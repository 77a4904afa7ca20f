package routing

// Regression and differential tests for the O(reachable) ComputeStatic
// overhaul: the clear-invariant un-marking, the compact stage-2/stage-3
// passes and the claim-row tiebreak-CSR build must agree with the naive
// path-vector reference on the graph shapes that stress each mechanism —
// tiny reachable components inside large graphs, paths longer than 254
// hops, peer-only reachability, and isolated nodes.

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
)

// requireMatchesReference diffs the fast Static+ResolveInto pipeline against
// the path-vector reference for the given destinations (all when nil).
func requireMatchesReference(t *testing.T, label string, g *asgraph.Graph, dests []int32, seed uint64) {
	t.Helper()
	n := int32(g.N())
	if dests == nil {
		for d := int32(0); d < n; d++ {
			dests = append(dests, d)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	sec, brk := asgraphtest.RandomState(rng, g.N(), 0.5, 0.6)
	tb := HashTiebreaker{Seed: seed}
	w := NewWorkspace(g)
	for _, d := range dests {
		s := w.PrepareDest(d, tb)
		fast := resolve(w, s, sec, brk, tb)
		ref, err := Reference(g, d, sec, brk, tb)
		if err != nil {
			t.Fatalf("%s dest %d: %v", label, d, err)
		}
		for i := int32(0); i < n; i++ {
			if fast.Parent[i] != ref.Parent[i] {
				t.Fatalf("%s dest %d node %d: fast parent %d, reference %d (type=%v len=%d)",
					label, d, i, fast.Parent[i], ref.Parent[i], s.Type[i], s.Len[i])
			}
			if fast.Secure[i] != ref.Secure[i] {
				t.Fatalf("%s dest %d node %d: fast secure %v, reference %v",
					label, d, i, fast.Secure[i], ref.Secure[i])
			}
		}
	}
}

// componentsGraph is three disconnected components of very different
// sizes: a 40-node provider chain with a stub per link, a peer pair with
// one customer each, and an isolated AS.
func componentsGraph() *asgraph.Graph {
	b := asgraph.NewBuilder()
	for i := int32(1); i < 40; i++ {
		b.AddCustomer(i+1, i)
		b.AddCustomer(i, 1000+i)
	}
	b.AddPeer(2001, 2002).AddCustomer(2001, 2003).AddCustomer(2002, 2004)
	b.AddAS(3001)
	return b.MustBuild()
}

// peerOnlyGraph: AS 1's only links are peer edges, so its reachable set
// enters through stages 2 and 3 alone.
func peerOnlyGraph() *asgraph.Graph {
	b := asgraph.NewBuilder()
	b.AddPeer(1, 2).AddPeer(1, 3).AddPeer(1, 4)
	b.AddCustomer(2, 5).AddCustomer(3, 5) // multihomed under two peers
	b.AddCustomer(4, 6).AddCustomer(6, 7)
	return b.MustBuild()
}

// ladderRungs makes ladderGraph's paths run past 254 hops.
const ladderRungs = 280

// ladderGraph is a ladderRungs-rung provider ladder: rails a_i = 2i and
// b_i = 2i+1, both rails of rung i+1 providers of both rails of rung i.
func ladderGraph() *asgraph.Graph {
	b := asgraph.NewBuilder()
	for i := int32(1); i < ladderRungs; i++ {
		b.AddCustomer(2*(i+1), 2*i).AddCustomer(2*(i+1)+1, 2*i)
		b.AddCustomer(2*(i+1), 2*i+1).AddCustomer(2*(i+1)+1, 2*i+1)
	}
	return b.MustBuild()
}

// disconnectedGraph draws 2–4 disconnected random components and
// returns the graph with the ASN range [lo, hi) of each component.
func disconnectedGraph(rng *rand.Rand) (*asgraph.Graph, [][2]int32) {
	b := asgraph.NewBuilder()
	parts := 2 + rng.Intn(3)
	base := int32(1)
	var bounds [][2]int32
	for p := 0; p < parts; p++ {
		m := int32(2 + rng.Intn(8))
		// Random provider tree plus extra peer edges, all within the
		// component's ASN range [base, base+m). A pair may hold only
		// one relationship, so peer edges avoid the tree's.
		linked := map[[2]int32]bool{}
		for i := int32(1); i < m; i++ {
			pr := int32(rng.Int31n(i))
			b.AddCustomer(base+pr, base+i)
			linked[[2]int32{pr, i}] = true
		}
		for e := 0; e < rng.Intn(3); e++ {
			x, y := int32(rng.Int31n(m)), int32(rng.Int31n(m))
			if x > y {
				x, y = y, x
			}
			if x != y && !linked[[2]int32{x, y}] {
				linked[[2]int32{x, y}] = true
				b.AddPeer(base+x, base+y)
			}
		}
		bounds = append(bounds, [2]int32{base, base + m})
		base += m + 10 // gap so ranges never collide
	}
	return b.MustBuild(), bounds
}

// TestStaticSingleNode: a one-node graph is the degenerate boundary of
// every pass — empty order, empty CSR, nothing to un-mark.
func TestStaticSingleNode(t *testing.T) {
	g := asgraph.NewBuilder().AddAS(7).MustBuild()
	w := NewWorkspace(g)
	s := w.PrepareDest(0, HashTiebreaker{Seed: 1})
	if s.Type[0] != SelfRoute || s.Len[0] != 0 || len(s.Order()) != 0 {
		t.Fatalf("single node: type=%v len=%d order=%v", s.Type[0], s.Len[0], s.Order())
	}
	requireMatchesReference(t, "single", g, nil, 1)
}

// TestStaticSmallReachableComponents: several disconnected components of
// very different sizes in one graph. The un-marking and the stage-2/3
// passes must stay confined to each destination's own component — a node
// of another component leaking into the order, a stale length surviving
// a shallow-after-deep destination switch, or a full-N scan picking up
// foreign claims would all surface as a reference mismatch here.
func TestStaticSmallReachableComponents(t *testing.T) {
	g := componentsGraph()
	requireMatchesReference(t, "components", g, nil, 3)

	// The reachable sets must be exactly the components: alternating a
	// deep chain destination with the isolated one exercises the sparse
	// un-mark path both ways.
	w := NewWorkspace(g)
	tb := HashTiebreaker{Seed: 3}
	dChain := idx(t, g, 1)
	dIso := idx(t, g, 3001)
	for round := 0; round < 3; round++ {
		if got := len(w.PrepareDest(dChain, tb).Order()); got != 2*39 {
			t.Fatalf("round %d: chain destination reaches %d nodes, want %d", round, got, 2*39)
		}
		if got := len(w.PrepareDest(dIso, tb).Order()); got != 0 {
			t.Fatalf("round %d: isolated destination reaches %d nodes, want 0", round, got)
		}
	}
}

// TestStaticPeerOnlyReachability: the destination's only links are peer
// edges, so stage 1 settles nothing beyond the destination and the whole
// reachable set enters through stage 2 and stage 3.
func TestStaticPeerOnlyReachability(t *testing.T) {
	g := peerOnlyGraph()
	requireMatchesReference(t, "peer-only", g, nil, 11)

	w := NewWorkspace(g)
	s := w.ComputeStatic(idx(t, g, 1))
	for _, asn := range []int32{2, 3, 4} {
		if s.Type[idx(t, g, asn)] != PeerRoute {
			t.Errorf("AS %d: type %v, want peer", asn, s.Type[idx(t, g, asn)])
		}
	}
	for _, asn := range []int32{5, 6, 7} {
		if s.Type[idx(t, g, asn)] != ProviderRoute {
			t.Errorf("AS %d: type %v, want provider", asn, s.Type[idx(t, g, asn)])
		}
	}
	if got := s.Tiebreak(idx(t, g, 5)); len(got) != 2 {
		t.Errorf("multihomed stub tiebreak set %v, want 2 members", got)
	}
}

// TestStaticLongChainSaturatesLevels: a 280-rung provider ladder drives
// path lengths past 254, where any byte-wide level encoding would
// saturate. Two parallel rails keep every tiebreak set at width 2 the
// whole way up, so a build comparing anything but exact lengths would
// build wrong sets far beyond that point.
func TestStaticLongChainSaturatesLevels(t *testing.T) {
	const rungs = ladderRungs
	g := ladderGraph()

	w := NewWorkspace(g)
	tb := HashTiebreaker{Seed: 17}
	d := idx(t, g, 2) // bottom of rail a
	s := w.PrepareDest(d, tb)
	top := idx(t, g, 2*rungs)
	if s.Len[top] != rungs-1 {
		t.Fatalf("top of ladder: len %d, want %d", s.Len[top], rungs-1)
	}
	if s.Len[top] < 255 {
		t.Fatalf("ladder too short to run past 254 hops (len %d)", s.Len[top])
	}
	for _, i := range s.Order() {
		if want := int32(2); s.Len[i] > 1 && int32(len(s.Tiebreak(i))) != want {
			t.Fatalf("node %d (len %d): tiebreak set %v, want width %d", i, s.Len[i], s.Tiebreak(i), want)
		}
	}
	// Reference is O(diameter·E) per destination; spot-check both ends
	// and the middle rather than all 2·280 destinations.
	dests := []int32{d, idx(t, g, 3), idx(t, g, rungs), idx(t, g, 2*rungs), idx(t, g, 2*rungs+1)}
	requireMatchesReference(t, "ladder", g, dests, 17)
}

// TestStaticDisconnectedFuzz: randomized differential fuzz on graphs
// built as several disconnected random components — the shape the
// compact passes are easiest to get wrong on, since every destination's
// reachable set is a small slice of N.
func TestStaticDisconnectedFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		g, bounds := disconnectedGraph(rng)
		requireMatchesReference(t, "fuzz", g, nil, uint64(trial))

		// No reachable set may cross its component's ASN range.
		w := NewWorkspace(g)
		for d := int32(0); d < int32(g.N()); d++ {
			s := w.ComputeStatic(d)
			var home [2]int32
			for _, r := range bounds {
				if a := g.ASN(d); a >= r[0] && a < r[1] {
					home = r
				}
			}
			for _, i := range s.Order() {
				if a := g.ASN(i); a < home[0] || a >= home[1] {
					t.Fatalf("trial %d dest AS %d: foreign AS %d in reachable set", trial, g.ASN(d), a)
				}
			}
		}
	}
}

// TestComputeStaticNoAllocs: no per-destination call may allocate once
// the buffers have grown — in particular not when a deep destination
// (many levels) follows a shallow one, the pattern that once regrew a
// level index every other call. The batched builds keep the same
// promise: width-1 builds alternating with 64-lane batches that mix deep
// and shallow lanes allocate nothing once their claim tables have grown.
func TestComputeStaticNoAllocs(t *testing.T) {
	b := asgraph.NewBuilder()
	for i := int32(1); i < 120; i++ { // deep chain with a stub per link
		b.AddCustomer(i+1, i)
		b.AddCustomer(i, 1000+i)
	}
	b.AddPeer(2001, 2002) // shallow two-node component
	g := b.MustBuild()
	w := NewWorkspace(g)
	tb := HashTiebreaker{Seed: 2}
	deep, shallow := idx(t, g, 1), idx(t, g, 2001)
	avg := testing.AllocsPerRun(50, func() {
		w.PrepareDest(shallow, tb)
		w.PrepareDest(deep, tb)
	})
	if avg != 0 {
		t.Fatalf("deep/shallow alternation allocates %.1f times per pair, want 0", avg)
	}

	wide := NewStaticBatch(g, BatchWidth)
	lanes := make([]int32, BatchWidth)
	for k := range lanes {
		lanes[k] = int32(k * g.N() / BatchWidth)
	}
	lanes[0], lanes[1] = deep, shallow
	avg = testing.AllocsPerRun(20, func() {
		w.PrepareDest(shallow, tb)
		wide.Build(lanes, tb)
		for k := range lanes {
			w.PrepareLane(wide, k)
		}
		w.PrepareDest(deep, tb)
		wide.Build(lanes[:1], nil)
		w.PrepareLane(wide, 0)
	})
	if avg != 0 {
		t.Fatalf("width-1/width-64 alternation allocates %.1f times per round, want 0", avg)
	}
}
