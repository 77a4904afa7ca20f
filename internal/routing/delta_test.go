package routing

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/topogen"
)

// The demand-driven delta machinery has three pieces — graph-derived
// dependents, index-free ApplyFlips, the forward-CSR move predictor —
// and each is pinned here to a naive reference built from the tiebreak
// rows and decideNode alone, not to the other fast path.

// naiveDependents returns, for every node b, the ascending list of
// nodes whose tiebreak set contains b — by scanning every row.
func naiveDependents(s *Static) [][]int32 {
	deps := make([][]int32, len(s.Type))
	for _, j := range s.order {
		for _, b := range s.Tiebreak(j) {
			deps[b] = append(deps[b], j)
		}
	}
	for _, row := range deps {
		slices.Sort(row)
	}
	return deps
}

// drainPending returns the nodes whose order position is set in pend,
// ascending by node id, and clears the bitset.
func drainPending(s *Static, pend []uint64) []int32 {
	var out []int32
	for w, word := range pend {
		for ; word != 0; word &= word - 1 {
			out = append(out, s.order[w<<6|bits.TrailingZeros64(word)])
		}
		pend[w] = 0
	}
	slices.Sort(out)
	return out
}

// checkDependents compares enqueueDependents — index-free, then with
// the index — against the naive rows for the destination and every
// reachable node of d.
func checkDependents(t *testing.T, label string, g *asgraph.Graph, w *Workspace, d int32) bool {
	s := w.PrepareDest(d, HashTiebreaker{Seed: 5})
	want := naiveDependents(s)
	pend := make([]uint64, (g.N()+63)/64)
	for _, indexed := range []bool{false, true} {
		if indexed {
			w.PrepareDelta(s)
		}
		for _, i := range append([]int32{d}, s.order...) {
			added := w.enqueueDependents(s, i, pend)
			got := drainPending(s, pend)
			if added != len(got) || !slices.Equal(got, want[i]) {
				t.Logf("%s dest %d node %d (type %v len %d) indexed=%v: dependents %v (added %d), want %v",
					label, d, i, s.Type[i], s.Len[i], indexed, got, added, want[i])
				return false
			}
		}
	}
	return true
}

// TestQuickGraphDependentsMatchRows: the dependents ApplyFlips derives
// from the graph adjacency and (Type, Len) are exactly the nodes
// listing the node in their tiebreak set — the transpose of
// computeStatic's row rule — for the destination itself and every
// reachable node, on Internet-like and adversarial random graphs.
func TestQuickGraphDependentsMatchRows(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *asgraph.Graph
		if seed%2 == 0 {
			g = topogen.MustGenerate(topogen.Default(60+rng.Intn(140), seed))
		} else {
			g = asgraphtest.Random(rng, 4+rng.Intn(30), 0.15, 0.1, 0.25)
		}
		w := NewWorkspace(g)
		for trial := 0; trial < 6; trial++ {
			if !checkDependents(t, "random", g, w, int32(rng.Intn(g.N()))) {
				t.Logf("seed %d", seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGraphDependentsLongChain: on a ladder whose path lengths run past
// the byte-packed level encoding's saturation point the derivation must
// compare exact lengths — two rails keep every row at width 2, so a
// saturated comparison would enqueue every rung above 254.
func TestGraphDependentsLongChain(t *testing.T) {
	const rungs = 280
	b := asgraph.NewBuilder()
	for i := int32(1); i < rungs; i++ {
		b.AddCustomer(2*(i+1), 2*i).AddCustomer(2*(i+1)+1, 2*i)
		b.AddCustomer(2*(i+1), 2*i+1).AddCustomer(2*(i+1)+1, 2*i+1)
	}
	g := b.MustBuild()
	w := NewWorkspace(g)
	for _, asn := range []int32{2, 3, rungs, 2 * rungs} {
		d := idx(t, g, asn)
		if !checkDependents(t, "ladder", g, w, d) {
			t.Fatalf("ladder destination AS%d", asn)
		}
	}
	if s := w.PrepareDest(idx(t, g, 2), HashTiebreaker{Seed: 5}); s.Len[idx(t, g, 2*rungs)] < 255 {
		t.Fatal("ladder too short to saturate the byte levels")
	}
}

// randomFlips draws a flip set over all n nodes — the destination and
// unreachable nodes included — with per-node turn-on tie-break policies.
func randomFlips(rng *rand.Rand, n int, d int32) (flipped, flipBreaks []bool, list []int32) {
	flipped = make([]bool, n)
	if rng.Float64() < 0.8 {
		flipBreaks = make([]bool, n)
	}
	p := []float64{0.02, 0.1, 0.3}[rng.Intn(3)]
	for i := 0; i < n; i++ {
		if rng.Float64() < p || (int32(i) == d && rng.Float64() < 0.5) {
			flipped[i] = true
			if flipBreaks != nil {
				flipBreaks[i] = rng.Float64() < 0.5
			}
			list = append(list, int32(i))
		}
	}
	return flipped, flipBreaks, list
}

// TestQuickApplyFlipsIndexFree: ApplyFlips on a workspace and static
// that never saw PrepareDelta must be indistinguishable from the
// indexed run on the same (static, state, flip set): equal tree, undo
// log, re-decided list, parents-changed report and work count — and
// both equal a full resolution of the flipped state. Random graphs
// (disconnected ones included, so flip sets hit unreachable nodes),
// flip sets with and without the destination.
func TestQuickApplyFlipsIndexFree(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *asgraph.Graph
		if seed%3 == 0 {
			g = topogen.MustGenerate(topogen.Default(60+rng.Intn(100), seed))
		} else {
			g = asgraphtest.Random(rng, 4+rng.Intn(24), 0.15, 0.1, 0.25)
		}
		n := g.N()
		sec, brk := asgraphtest.RandomState(rng, n, 0.5, 0.7)
		tb := HashTiebreaker{Seed: uint64(seed)}
		bare, indexed := NewWorkspace(g), NewWorkspace(g)
		var base, full, tBare, tIdx Tree
		for trial := 0; trial < 8; trial++ {
			d := int32(rng.Intn(n))
			flipped, flipBreaks, list := randomFlips(rng, n, d)
			sb := bare.PrepareDest(d, tb)
			si := indexed.PrepareDest(d, tb)
			indexed.PrepareDelta(si)
			if sb.deltaReady || !si.deltaReady {
				t.Logf("seed %d: index state wrong (bare %v, indexed %v)", seed, sb.deltaReady, si.deltaReady)
				return false
			}
			base.Clear(n)
			bare.ResolveInto(&base, sb, sec, brk, nil, nil, tb)
			full.Clear(n)
			bare.ResolveInto(&full, sb, sec, brk, flipped, flipBreaks, tb)
			tBare.CopyFrom(&base)
			tIdx.CopyFrom(&base)
			chB, nB := bare.ApplyFlips(&tBare, sb, sec, brk, flipped, flipBreaks, list, tb)
			chI, nI := indexed.ApplyFlips(&tIdx, si, sec, brk, flipped, flipBreaks, list, tb)
			switch {
			case !treesEqual(&tBare, &full, n) || !treesEqual(&tIdx, &full, n):
				t.Logf("seed %d dest %d: propagated tree differs from full resolution", seed, d)
			case chB != chI || nB != nI:
				t.Logf("seed %d dest %d: changed/touched %v/%d index-free, %v/%d indexed", seed, d, chB, nB, chI, nI)
			case !slices.Equal(bare.undo, indexed.undo):
				t.Logf("seed %d dest %d: undo logs differ", seed, d)
			default:
				bare.RevertFlips(&tBare)
				if treesEqual(&tBare, &base, n) {
					continue
				}
				t.Logf("seed %d dest %d: RevertFlips did not restore the base tree", seed, d)
			}
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestApplyFlipsUnpreparedWorkspace: ApplyFlips sizes its own scratch —
// the first call on a fresh workspace, with no PrepareDelta anywhere,
// must propagate (it used to index a nil pending bitset).
func TestApplyFlipsUnpreparedWorkspace(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(120, 9))
	n := g.N()
	tb := HashTiebreaker{Seed: 9}
	sec := make([]bool, n)
	brk := make([]bool, n)
	for i := range sec {
		sec[i], brk[i] = i%3 != 0, true
	}
	w := NewWorkspace(g)
	d := int32(7)
	s := w.ComputeStatic(d)
	var tree, full Tree
	tree.Clear(n)
	w.ResolveInto(&tree, s, sec, brk, nil, nil, tb)
	flipped := make([]bool, n)
	list := []int32{d, 1, int32(n - 1)}
	for _, f := range list {
		flipped[f] = true
	}
	full.Clear(n)
	w.ResolveInto(&full, s, sec, brk, flipped, nil, tb)
	if _, touched := w.ApplyFlips(&tree, s, sec, brk, flipped, nil, list, tb); touched == 0 {
		t.Error("flipping the destination re-decided nothing")
	}
	if !treesEqual(&tree, &full, n) {
		t.Error("propagated tree differs from full resolution")
	}
}

// naiveMoveIf is the predictor's definition, spelled out with
// decideNode: bit k answers whether flipping the Secure flag of
// b = order[k] alone moves a parent at some dependent j, or leaves j's
// parent in place but flips j's own flag and — recursively — bit pos(j)
// is set. Dependents sit at larger positions, so one descending pass
// has every recursive answer ready.
func naiveMoveIf(s *Static, t *Tree, sec, brk []bool, tb Tiebreaker) []bool {
	deps := naiveDependents(s)
	var probe Tree
	probe.CopyFrom(t)
	out := make([]bool, len(s.order))
	for k := len(s.order) - 1; k >= 0; k-- {
		b := s.order[k]
		probe.Secure[b] = !probe.Secure[b]
		for _, j := range deps[b] {
			p, sc, ok := decideNode(&probe, s, s.Tiebreak(j), sec, brk, nil, nil, tb, j)
			if ok && (p != t.Parent[j] || (sc != t.Secure[j] && out[s.pos[j]])) {
				out[k] = true
				break
			}
		}
		probe.Secure[b] = !probe.Secure[b]
	}
	return out
}

// TestQuickFlipEffectsMatchNaive: the forward-CSR pass computes exactly
// the naive definition's bits, for every order position, with and
// without a dependents index on the static (the pass must not care).
func TestQuickFlipEffectsMatchNaive(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var g *asgraph.Graph
		if seed%3 == 0 {
			g = topogen.MustGenerate(topogen.Default(60+rng.Intn(100), seed))
		} else {
			g = asgraphtest.Random(rng, 4+rng.Intn(24), 0.15, 0.1, 0.25)
		}
		n := g.N()
		sec, brk := asgraphtest.RandomState(rng, n, 0.3+0.5*rng.Float64(), 0.7)
		tb := HashTiebreaker{Seed: uint64(seed)}
		w := NewWorkspace(g)
		var base Tree
		for trial := 0; trial < 8; trial++ {
			d := int32(rng.Intn(n))
			sec[d] = trial%4 != 0 // an insecure destination leaves nothing to ripple
			s := w.PrepareDest(d, tb)
			if trial%2 == 1 {
				w.PrepareDelta(s)
			}
			base.Clear(n)
			w.ResolveInto(&base, s, sec, brk, nil, nil, tb)
			w.PrepareFlipEffects(s, &base, sec, brk, tb)
			for k, want := range naiveMoveIf(s, &base, sec, brk, tb) {
				if got := w.effBits[k>>6]&(1<<uint(k&63)) != 0; got != want {
					t.Logf("seed %d dest %d node %d (pos %d): predictor bit %v, naive %v", seed, d, s.order[k], k, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
