package routing

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/topogen"
)

// requireLanesMatch builds dests as one batch and checks every lane
// against a width-1 build on a separate workspace: PrepareLane against
// PrepareDest (every array, winners included), plus each lane's resolved
// tree against the path-vector reference when ref is set; then the same
// batch built without a tiebreaker, lane by lane against ComputeStatic.
// Lanes finalize in reverse order, so no lane may depend on the one
// before it.
func requireLanesMatch(t *testing.T, label string, g *asgraph.Graph, b *StaticBatch, dests []int32, ref bool) {
	t.Helper()
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 13}
	w, one := NewWorkspace(g), NewWorkspace(g)
	b.Build(dests, tb)
	if !slices.Equal(b.Dests(), dests) {
		t.Fatalf("%s: batch lanes %v, want %v", label, b.Dests(), dests)
	}
	rng := rand.New(rand.NewSource(int64(len(dests))))
	sec, brk := asgraphtest.RandomState(rng, g.N(), 0.5, 0.6)
	for k := len(dests) - 1; k >= 0; k-- {
		d := dests[k]
		got := w.PrepareLane(b, k)
		if want := one.PrepareDest(d, tb); !staticsEqual(t, got, want, n) {
			t.Fatalf("%s width %d lane %d (dest %d): PrepareLane differs from PrepareDest", label, len(dests), k, d)
		}
		if ref {
			fast := resolve(w, got, sec, brk, tb)
			want, err := Reference(g, d, sec, brk, tb)
			if err != nil {
				t.Fatalf("%s dest %d: %v", label, d, err)
			}
			if !slices.Equal(fast.Parent, want.Parent) || !slices.Equal(fast.Secure, want.Secure) {
				t.Fatalf("%s width %d lane %d (dest %d): tree differs from the reference", label, len(dests), k, d)
			}
		}
	}
	b.Build(dests, nil)
	for k := len(dests) - 1; k >= 0; k-- {
		d := dests[k]
		got := w.PrepareLane(b, k)
		want := one.ComputeStatic(d)
		if got.HasWinners() || !slices.Equal(got.order, want.order) || !slices.Equal(got.tbAdj, want.tbAdj) ||
			!slices.Equal(got.tbOff, want.tbOff) || !slices.Equal(got.Len, want.Len) || !slices.Equal(got.Type, want.Type) {
			t.Fatalf("%s width %d lane %d (dest %d): winner-less lane differs from ComputeStatic", label, len(dests), k, d)
		}
	}
}

// TestStaticBatchWidthInvariance: a lane's static is the destination's
// width-1 static whatever else shares the sweep — at widths 1, 2, 63
// and 64, over shuffled members that span disconnected components, and
// in a batch mixing lanes whose paths run past 254 hops with short
// ones.
func TestStaticBatchWidthInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shuffled := func(g *asgraph.Graph) []int32 {
		all := make([]int32, g.N())
		for i := range all {
			all[i] = int32(i)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all
	}
	// One batch reused across every build: its un-marking between
	// builds of different widths is part of what is checked.
	for _, c := range []struct {
		name string
		g    *asgraph.Graph
	}{
		{"topogen", topogen.MustGenerate(topogen.Default(300, 34))},
		{"components", componentsGraph()},
		{"peer-only", peerOnlyGraph()},
	} {
		b := NewStaticBatch(c.g, BatchWidth)
		all := shuffled(c.g)
		for _, width := range []int{1, 2, 63, 64} {
			for lo := 0; lo < len(all); lo += width {
				requireLanesMatch(t, c.name, c.g, b, all[lo:min(lo+width, len(all))], lo == 0)
			}
		}
	}
	for trial := 0; trial < 10; trial++ {
		g, _ := disconnectedGraph(rng)
		b := NewStaticBatch(g, BatchWidth)
		all := shuffled(g)
		for _, width := range []int{1, 2, 63, 64} {
			requireLanesMatch(t, "disconnected", g, b, all[:min(width, len(all))], true)
		}
	}

	// The ladder's bottom and top rungs reach the far end past 254 hops;
	// its middle rungs stay within ≈140. Lengths are exact int32 levels
	// at any depth, so the long lanes must agree with width 1 and the
	// reference like the short ones.
	g := ladderGraph()
	var mixed []int32
	for _, asn := range []int32{2, 3, ladderRungs, ladderRungs + 1, 2 * ladderRungs, 2*ladderRungs + 1, ladderRungs + 2} {
		mixed = append(mixed, idx(t, g, asn))
	}
	b := NewStaticBatch(g, BatchWidth)
	b.Build(mixed, nil)
	w := NewWorkspace(g)
	long, short := 0, 0
	for k := range mixed {
		s := w.PrepareLane(b, k)
		if s.Len[s.order[len(s.order)-1]] >= 254 {
			long++
		} else {
			short++
		}
	}
	if long == 0 || short == 0 {
		t.Fatalf("ladder batch has %d lanes past 254 hops and %d short ones: want both", long, short)
	}
	requireLanesMatch(t, "ladder", g, b, mixed, true)
	requireLanesMatch(t, "ladder-wide", g, b, shuffled(g)[:BatchWidth], false)
}

// TestStaticBatchNonUniformRows: in each gadget, node X is claimed at
// the same level and class in two lanes whose tiebreak sets differ — a
// member of both and one of each's own — so the one claim of X is not
// lane-uniform and gives each lane a row of its own, and the two lanes'
// winners (lowest index) differ: the shared member C ranks between the
// lanes' own A and B. X's rows are customer-class, peer-class and
// provider-class in turn; in the provider gadget lane 2's own member
// holds a peer route, not a customer one. Each lane must see exactly its
// own set and winner.
func TestStaticBatchNonUniformRows(t *testing.T) {
	const d1, d2, a, c, bb, x = 1, 2, 10, 20, 30, 100
	for _, gad := range []struct {
		name string
		want RouteType
		g    *asgraph.Graph
	}{
		{"customer", CustomerRoute, asgraph.NewBuilder().
			AddCustomer(a, d1).AddCustomer(c, d1).AddCustomer(c, d2).AddCustomer(bb, d2).
			AddCustomer(x, a).AddCustomer(x, c).AddCustomer(x, bb).MustBuild()},
		{"peer", PeerRoute, asgraph.NewBuilder().
			AddCustomer(a, d1).AddCustomer(c, d1).AddCustomer(c, d2).AddCustomer(bb, d2).
			AddPeer(x, a).AddPeer(x, c).AddPeer(x, bb).MustBuild()},
		{"provider", ProviderRoute, asgraph.NewBuilder().
			AddCustomer(a, d1).AddCustomer(c, d1).AddCustomer(c, d2).AddPeer(bb, d2).
			AddCustomer(a, x).AddCustomer(c, x).AddCustomer(bb, x).MustBuild()},
	} {
		g := gad.g
		n := int32(g.N())
		ia, ic, ib, ix := idx(t, g, a), idx(t, g, c), idx(t, g, bb), idx(t, g, x)
		dests := []int32{idx(t, g, d1), idx(t, g, d2)}
		b := NewStaticBatch(g, BatchWidth)
		b.Build(dests, LowestIndex{})
		merged := false
		for idx, i := range b.node {
			merged = merged || (i == ix && b.mask[idx] == 3)
		}
		if !merged || laneRowOf(b, 0, ix) == laneRowOf(b, 1, ix) {
			t.Fatalf("%s: X is not one claim of both lanes with a row per lane", gad.name)
		}
		w, one := NewWorkspace(g), NewWorkspace(g)
		for k, want := range []struct {
			set []int32
			win int32
		}{{[]int32{ia, ic}, ia}, {[]int32{ic, ib}, ic}} {
			s := w.PrepareLane(b, k)
			got := sortedCopy(s.Tiebreak(ix))
			if s.Type[ix] != gad.want || s.Len[ix] != 2 || !slices.Equal(got, want.set) || s.win[ix] != want.win {
				t.Fatalf("%s lane %d: X is %v len %d, set %v, winner %d; want %v len 2, set %v, winner %d",
					gad.name, k, s.Type[ix], s.Len[ix], got, s.win[ix], gad.want, want.set, want.win)
			}
			if !staticsEqual(t, s, one.PrepareDest(dests[k], LowestIndex{}), n) {
				t.Fatalf("%s lane %d differs from PrepareDest", gad.name, k)
			}
			requireScalarStatic(t, g, s, LowestIndex{})
		}
	}
}

// laneRowOf returns the index of the laneRow that gives lane k node i.
func laneRowOf(b *StaticBatch, k int, i int32) int {
	for v, r := range b.rows[:len(b.rows)-1] {
		if r.node == i && b.rowLanes[v&^63+k]&(1<<uint(v&63)) != 0 {
			return v
		}
	}
	return -1
}

// scalarStatic is a plain three-stage BFS for destination d, kept apart
// from the batched build as its oracle: every node's route type and
// length, with stage 3 relaxing one length at a time over the whole
// graph.
func scalarStatic(g *asgraph.Graph, d int32) ([]RouteType, []int32) {
	n := g.N()
	typ, length := make([]RouteType, n), make([]int32, n)
	for i := range length {
		length[i] = -1
	}
	typ[d], length[d] = SelfRoute, 0
	queue := []int32{d}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for _, p := range g.Providers(i) {
			if typ[p] == NoRoute {
				typ[p], length[p] = CustomerRoute, length[i]+1
				queue = append(queue, p)
			}
		}
	}
	for i := int32(0); i < int32(n); i++ {
		if typ[i] != NoRoute {
			continue
		}
		for _, p := range g.Peers(i) {
			if (typ[p] == CustomerRoute || typ[p] == SelfRoute) && (typ[i] == NoRoute || length[p]+1 < length[i]) {
				typ[i], length[i] = PeerRoute, length[p]+1
			}
		}
	}
	for l := int32(0); l < int32(n); l++ {
		for i := int32(0); i < int32(n); i++ {
			if length[i] != l {
				continue
			}
			for _, c := range g.Customers(i) {
				if typ[c] == NoRoute {
					typ[c], length[c] = ProviderRoute, l+1
				}
			}
		}
	}
	return typ, length
}

// requireScalarStatic checks s against scalarStatic: every node's type
// and length, the order (ascending length, then id), and every reachable
// node's tiebreak set — the class neighbours one hop closer that export
// to it — and winner, the set's least member under tb.
func requireScalarStatic(t *testing.T, g *asgraph.Graph, s *Static, tb Tiebreaker) {
	t.Helper()
	typ, length := scalarStatic(g, s.Dest)
	if !slices.Equal(s.Type, typ) || !slices.Equal(s.Len, length) {
		t.Fatalf("dest %d: types/lengths differ from the scalar BFS", s.Dest)
	}
	var order []int32
	for i := range typ {
		if typ[i] != NoRoute && int32(i) != s.Dest {
			order = append(order, int32(i))
		}
	}
	slices.SortStableFunc(order, func(a, b int32) int { return int(length[a] - length[b]) })
	if !slices.Equal(s.Order(), order) {
		t.Fatalf("dest %d: order %v, scalar %v", s.Dest, s.Order(), order)
	}
	for _, i := range order {
		var nb, set []int32
		switch typ[i] {
		case CustomerRoute:
			nb = g.Customers(i)
		case PeerRoute:
			nb = g.Peers(i)
		default:
			nb = g.Providers(i)
		}
		for _, p := range nb {
			if length[p] == length[i]-1 && (typ[i] == ProviderRoute || typ[p] == CustomerRoute || typ[p] == SelfRoute) {
				set = append(set, p)
			}
		}
		got := sortedCopy(s.Tiebreak(i))
		slices.Sort(set)
		if !slices.Equal(got, set) {
			t.Fatalf("dest %d node %d: tiebreak set %v, scalar %v", s.Dest, i, got, set)
		}
		win := set[0]
		for _, p := range set[1:] {
			if tb.Less(i, p, win) {
				win = p
			}
		}
		if s.win[i] != win {
			t.Fatalf("dest %d node %d: winner %d, scalar %d", s.Dest, i, s.win[i], win)
		}
	}
}

// FuzzStaticBatch: any batch of destinations of a random graph —
// duplicates included — finalizes every lane to the width-1 static, to
// the plain scalar BFS and its tiebreak sets and winners, and to a tree
// the path-vector reference agrees with in a random deployment state.
// The tiebreaker is HashTiebreaker or LowestIndex by the low bit of
// tbSel.
func FuzzStaticBatch(f *testing.F) {
	f.Add(int64(1), uint8(20), []byte{0, 1, 2, 3}, uint8(0))
	f.Add(int64(7), uint8(60), []byte{5, 5, 9, 0, 200, 17}, uint8(1))
	f.Add(int64(3), uint8(2), []byte{1, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, members []byte, tbSel uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 2+int(size)%80, 0.12, 0.10, 0.3)
		n := int32(g.N())
		var dests []int32
		for _, m := range members {
			if len(dests) == BatchWidth {
				break
			}
			dests = append(dests, int32(m)%n)
		}
		if len(dests) == 0 {
			return
		}
		var tb Tiebreaker = HashTiebreaker{Seed: uint64(seed)}
		if tbSel&1 != 0 {
			tb = LowestIndex{}
		}
		sec, brk := asgraphtest.RandomState(rng, g.N(), 0.5, 0.6)
		w, one := NewWorkspace(g), NewWorkspace(g)
		b := NewStaticBatch(g, BatchWidth)
		b.Build(dests, tb)
		for k, d := range dests {
			s := w.PrepareLane(b, k)
			if !staticsEqual(t, s, one.PrepareDest(d, tb), n) {
				t.Fatalf("lane %d (dest %d of %v) differs from PrepareDest", k, d, dests)
			}
			requireScalarStatic(t, g, s, tb)
			want, err := Reference(g, d, sec, brk, tb)
			if err != nil {
				t.Fatalf("dest %d: %v", d, err)
			}
			if got := resolve(w, s, sec, brk, tb); !slices.Equal(got.Parent, want.Parent) || !slices.Equal(got.Secure, want.Secure) {
				t.Fatalf("lane %d (dest %d of %v): tree differs from the reference", k, d, dests)
			}
		}
	})
}

// benchSample is the destination sample of the static-build
// benchmarks: 640 destinations spread evenly over the N=10,000 graph's
// ids, so every width builds the same statics.
func benchSample(b *testing.B) (*asgraph.Graph, []int32) {
	b.Helper()
	if graph10k == nil {
		graph10k = topogen.MustGenerate(topogen.Default(10000, 42))
	}
	n := graph10k.N()
	dests := make([]int32, 640)
	for k := range dests {
		dests[k] = int32(k * n / len(dests))
	}
	return graph10k, dests
}

var graph10k *asgraph.Graph

// BenchmarkPrepareBatch times the batched static build of benchSample
// per destination, split into the level phase (Build's sweep) and the
// finalize (Build's claim rows plus every lane's PrepareLane), at widths
// 1, 8 and 64. It also reports the claims per destination and the share
// of lane rows — lanes summed over every claim past level 0 — that a
// lane-uniform claim row serves. BenchmarkPrepareDest beside it is the
// width-1 build as the engine's stray misses and the sbgpbench probe run
// it.
func BenchmarkPrepareBatch(b *testing.B) {
	g, sample := benchSample(b)
	tb := HashTiebreaker{Seed: 42}
	for _, width := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			w := NewWorkspace(g)
			bt := NewStaticBatch(g, width)
			var level, final time.Duration
			var claims, laneRows, uniformRows int
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for lo := 0; lo < len(sample); lo += width {
					t0 := time.Now()
					bt.sweep(sample[lo : lo+width])
					t1 := time.Now()
					bt.claimRows(tb)
					for k := 0; k < width; k++ {
						w.PrepareLane(bt, k)
					}
					level += t1.Sub(t0)
					final += time.Since(t1)
					if it == 0 {
						claims += len(bt.sorted)
						laneRows += uniformLaneRows(bt, &uniformRows)
					}
				}
			}
			per := float64(b.N * len(sample))
			b.ReportMetric(float64(level.Microseconds())/per, "level-us/dest")
			b.ReportMetric(float64(final.Microseconds())/per, "finalize-us/dest")
			b.ReportMetric(float64(claims)/float64(len(sample)), "claims/dest")
			b.ReportMetric(float64(uniformRows)/float64(laneRows), "uniform-row-share")
		})
	}
}

// uniformLaneRows returns the lane rows of b's claims past level 0 — a
// claim's lanes summed over the claims — and adds those served by a
// lane-uniform claim, one with a single laneRow, to *uniform. A claim's
// rows follow one another in claim order, and (node, level, type) tells
// one claim from another.
func uniformLaneRows(b *StaticBatch, uniform *int) int {
	total, v := 0, 0
	for l := 1; l+1 < len(b.lvlStart); l++ {
		for _, idx := range b.sorted[b.lvlStart[l]:b.lvlStart[l+1]] {
			nr := 0
			for ; v+1 < len(b.rows) && b.rows[v].node == b.node[idx] && b.rows[v].lt == int32(l)<<3|int32(b.typeOf(idx)); v++ {
				nr++
			}
			lanes := bits.OnesCount64(b.mask[idx])
			total += lanes
			if nr == 1 {
				*uniform += lanes
			}
		}
	}
	return total
}

// typeOf is the route type of build-order claim idx: its stage's, or
// SelfRoute for stage 1's level 0, the destinations.
func (b *StaticBatch) typeOf(idx int32) RouteType {
	switch {
	case idx < b.cust[1]:
		return SelfRoute
	case idx < b.cust[len(b.cust)-1]:
		return CustomerRoute
	case idx < b.peer[len(b.peer)-1]:
		return PeerRoute
	}
	return ProviderRoute
}

func BenchmarkPrepareDest(b *testing.B) {
	g, sample := benchSample(b)
	tb := HashTiebreaker{Seed: 42}
	w := NewWorkspace(g)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, d := range sample {
			w.PrepareDest(d, tb)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(sample)), "us/dest")
}

// BenchmarkSpliceLeaf times SpliceLeafBlob per leaf over the leaves of
// benchSample that have a sibling, each spliced from the blob of its
// provider's lowest other leaf: what a class replay pays, against
// BenchmarkPrepareDest plus the pack, to put a leaf's blob on disk.
func BenchmarkSpliceLeaf(b *testing.B) {
	g, sample := benchSample(b)
	tb := HashTiebreaker{Seed: 42}
	w := NewWorkspace(g)
	type pair struct {
		filler, leaf, p int32
		blob            []byte
	}
	var pairs []pair
	for _, d := range sample {
		prov := g.Providers(d)
		if len(prov) != 1 || !leafOf(g, d, prov[0]) {
			continue
		}
		for _, f := range g.Customers(prov[0]) {
			if f != d && leafOf(g, f, prov[0]) {
				pairs = append(pairs, pair{f, d, prov[0], AppendPacked(nil, w.PrepareDest(f, tb), g)})
				break
			}
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no sampled leaf has a sibling")
	}
	var dst []byte
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, pr := range pairs {
			var ok bool
			if dst, ok = SpliceLeafBlob(dst[:0], pr.blob, g, pr.filler, pr.leaf, pr.p); !ok {
				b.Fatalf("splice %d→%d refused", pr.filler, pr.leaf)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(pairs)), "us/leaf")
	b.ReportMetric(float64(len(pairs)), "leaves")
}

// sortedCopy returns xs sorted, leaving xs as it is.
func sortedCopy(xs []int32) []int32 {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	return ys
}
