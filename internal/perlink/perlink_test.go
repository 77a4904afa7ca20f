package perlink

import (
	"math"
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// DisableAll turns off every link of node i.
func (s *State) DisableAll(i int32) { s.enabled[i] = make(map[int32]bool) }

// TestFullEnablementMatchesNodeLevel: enabling every link of a node set
// S must reproduce the node-level engine exactly — same trees, same
// secure flags (link security with full enablement degenerates to node
// security).
func TestFullEnablementMatchesNodeLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		g := asgraphtest.Random(rng, 5+rng.Intn(16), 0.15, 0.1, 0.2)
		secure := make([]bool, g.N())
		for i := range secure {
			secure[i] = rng.Float64() < 0.5
		}
		st := NewState(g)
		st.StubsBreakTies = true
		for i := int32(0); i < int32(g.N()); i++ {
			if secure[i] {
				st.EnableAll(i)
			}
		}
		breaks := sim.DeriveBreaks(g, secure, true)
		tb := routing.HashTiebreaker{Seed: uint64(trial)}
		ws := routing.NewWorkspace(g)
		ws2 := routing.NewWorkspace(g)
		var linkTree, nodeTree routing.Tree
		for d := int32(0); d < int32(g.N()); d++ {
			stc := ws.ComputeStatic(d)
			linkTree.Clear(g.N())
			st.Resolve(ws, &linkTree, stc, tb)
			stc2 := ws2.ComputeStatic(d)
			nodeTree.Clear(g.N())
			ws2.ResolveInto(&nodeTree, stc2, secure, breaks, nil, nil, tb)
			for i := int32(0); i < int32(g.N()); i++ {
				if linkTree.Parent[i] != nodeTree.Parent[i] {
					t.Fatalf("trial %d dest %d node %d: parents differ (%d vs %d)",
						trial, d, i, linkTree.Parent[i], nodeTree.Parent[i])
				}
				if i != d && linkTree.Secure[i] != nodeTree.Secure[i] {
					t.Fatalf("trial %d dest %d node %d: secure flags differ (%v vs %v)",
						trial, d, i, linkTree.Secure[i], nodeTree.Secure[i])
				}
			}
		}
	}
}

// TestTheoremJ2FullDeploymentOptimalOutgoing: under outgoing utility,
// no link subset beats enabling all links (Theorem J.2), for random
// graphs, random background states and random subsets.
func TestTheoremJ2FullDeploymentOptimalOutgoing(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tb := routing.HashTiebreaker{Seed: 1}
	for trial := 0; trial < 10; trial++ {
		g := asgraphtest.Random(rng, 5+rng.Intn(12), 0.16, 0.1, 0.2)
		st := NewState(g)
		for i := int32(0); i < int32(g.N()); i++ {
			if rng.Float64() < 0.5 {
				st.EnableAll(i)
			}
		}
		for n := int32(0); n < int32(g.N()); n++ {
			if !g.IsISP(n) {
				continue
			}
			st.EnableAll(n)
			full, err := Utility(st, sim.Outgoing, tb, n)
			if err != nil {
				t.Fatal(err)
			}
			for sub := 0; sub < 4; sub++ {
				st.DisableAll(n)
				for _, l := range Links(g, n) {
					if rng.Float64() < 0.5 {
						st.Enable(n, l)
					}
				}
				u, err := Utility(st, sim.Outgoing, tb, n)
				if err != nil {
					t.Fatal(err)
				}
				if u > full+1e-9 {
					t.Fatalf("trial %d node %d: subset beats full deployment (%v > %v)",
						trial, n, u, full)
				}
			}
			st.EnableAll(n)
		}
	}
}

// TestDilemmaTradeoff verifies the Figure 18 DILEMMA: X gets c1's
// revenue with the decision link off, c2's with it on, never both.
func TestDilemmaTradeoff(t *testing.T) {
	dl := NewDilemma(10, 15)
	tb := routing.LowestIndex{}
	st := dl.BaseState()

	uOff, err := Utility(st, sim.Incoming, tb, dl.X)
	if err != nil {
		t.Fatal(err)
	}
	st.Enable(dl.X, dl.Node2)
	uOn, err := Utility(st, sim.Incoming, tb, dl.X)
	if err != nil {
		t.Fatal(err)
	}

	// Off: +3·W1 (c1's traffic to d1, d2 and node 2 enters via the
	// customer conduit k). On: +W2 (c2 attracted) but c1's traffic
	// shifts to peer entry for all three destinations.
	wantDelta := dl.W2 - 3*dl.W1
	if got := uOn - uOff; math.Abs(got-wantDelta) > 1e-9 {
		t.Errorf("enabling the decision link changes utility by %v, want %v (= W2 - 3·W1)", got, wantDelta)
	}
	if uOn == uOff {
		t.Error("the decision link must matter")
	}
}

// TestDilemmaGreedyPicksBetterSide: restricted to the contested link,
// the greedy optimizer lands on whichever side of the dilemma pays more.
func TestDilemmaGreedyPicksBetterSide(t *testing.T) {
	tb := routing.LowestIndex{}
	for _, tc := range []struct {
		w1, w2 float64
		wantOn bool // link (X,2) enabled in the optimum
	}{
		{10, 50, true},  // W2 > 3·W1: attract c2
		{10, 15, false}, // W2 < 3·W1: keep c1
	} {
		dl := NewDilemma(tc.w1, tc.w2)
		st := dl.BaseState()
		chosen, _, err := GreedyLinksAmong(st, sim.Incoming, tb, dl.X, []int32{dl.Node2})
		if err != nil {
			t.Fatal(err)
		}
		if got := chosen[dl.Node2]; got != tc.wantOn {
			t.Errorf("W1=%v W2=%v: greedy enabled(X,2)=%v, want %v", tc.w1, tc.w2, got, tc.wantOn)
		}
	}
}

// TestDilemmaGreedyEscapesOverAllLinks documents a genuinely
// interesting optimizer behavior: allowed to touch *all* of X's links,
// greedy beats both pure dilemma configurations by also disabling X's
// side of the peering with r — that kills c1's secure alternative, so X
// keeps c1's customer-edge revenue AND attracts c2 (utility 3·W1+W2).
// Per-link deployment strictly dominates node-level on this instance.
func TestDilemmaGreedyEscapesOverAllLinks(t *testing.T) {
	tb := routing.LowestIndex{}
	dl := NewDilemma(10, 15)

	st := dl.BaseState()
	uOff, err := Utility(st, sim.Incoming, tb, dl.X)
	if err != nil {
		t.Fatal(err)
	}
	st.Enable(dl.X, dl.Node2)
	uOn, err := Utility(st, sim.Incoming, tb, dl.X)
	if err != nil {
		t.Fatal(err)
	}

	st2 := dl.BaseState()
	_, uGreedy, err := GreedyLinks(st2, sim.Incoming, tb, dl.X)
	if err != nil {
		t.Fatal(err)
	}
	if uGreedy < uOff || uGreedy < uOn {
		t.Fatalf("greedy (%v) should dominate both pure configs (%v, %v)", uGreedy, uOff, uOn)
	}
	if uGreedy-uOff < dl.W2-1e-9 {
		t.Errorf("greedy gain over the off-config = %v, want >= W2=%v (keep c1 and win c2)",
			uGreedy-uOff, dl.W2)
	}
}

// TestGreedyStableAtFullOutgoing is the operational face of Theorem
// J.2: starting from full enablement under outgoing utility, no single
// link toggle improves anything, so greedy keeps every link on and the
// full utility. (From an empty start greedy can stall on a zero-gain
// plateau — enabling one side of a link pays nothing until the peer
// side exists — which is exactly why the theorem prescribes full
// deployment rather than incremental search.)
func TestGreedyStableAtFullOutgoing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tb := routing.HashTiebreaker{Seed: 2}
	g := asgraphtest.Random(rng, 12, 0.18, 0.1, 0.2)
	st := NewState(g)
	for i := int32(0); i < int32(g.N()); i++ {
		if rng.Float64() < 0.6 {
			st.EnableAll(i)
		}
	}
	for n := int32(0); n < int32(g.N()); n++ {
		if !g.IsISP(n) {
			continue
		}
		st.EnableAll(n)
		full, err := Utility(st, sim.Outgoing, tb, n)
		if err != nil {
			t.Fatal(err)
		}
		chosen, got, err := GreedyLinks(st, sim.Outgoing, tb, n)
		if err != nil {
			t.Fatal(err)
		}
		if got < full-1e-9 {
			t.Errorf("node %d: greedy from full ended at %v, below %v", n, got, full)
		}
		if len(chosen) != len(Links(g, n)) {
			// Dropping links must never have been strictly profitable.
			u, err := Utility(st, sim.Outgoing, tb, n)
			if err != nil {
				t.Fatal(err)
			}
			if u > full+1e-9 {
				t.Errorf("node %d: greedy found a profitable link drop under outgoing utility", n)
			}
		}
		st.EnableAll(n) // restore for the next node
	}
}

// TestPartialLinkPathInsecure: a path through a half-enabled link is
// not secure.
func TestPartialLinkPathInsecure(t *testing.T) {
	g := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(2, 3).
		MustBuild()
	st := NewState(g)
	st.EnableAll(g.Index(1))
	st.EnableAll(g.Index(3))
	// Node 2 enables only its side toward 3, not toward 1.
	st.Enable(g.Index(2), g.Index(3))

	ws := routing.NewWorkspace(g)
	var tree routing.Tree
	tree.Clear(g.N())
	stc := ws.ComputeStatic(g.Index(3))
	st.Resolve(ws, &tree, stc, routing.LowestIndex{})
	i1, i2 := g.Index(1), g.Index(2)
	if !tree.Secure[i2] {
		t.Error("2-3 link is secured on both sides; 2's path should be secure")
	}
	if tree.Secure[i1] {
		t.Error("1's path crosses the half-enabled 1-2 link and cannot be secure")
	}
}

func TestStateBasics(t *testing.T) {
	g := asgraph.NewBuilder().AddCustomer(1, 2).AddPeer(2, 3).MustBuild()
	st := NewState(g)
	a, b := g.Index(1), g.Index(2)
	if st.LinkSecured(a, b) {
		t.Error("links start disabled")
	}
	st.Enable(a, b)
	if st.LinkSecured(a, b) {
		t.Error("one-sided enablement must not secure the link")
	}
	st.Enable(b, a)
	if !st.LinkSecured(a, b) || !st.LinkSecured(b, a) {
		t.Error("two-sided enablement secures the link")
	}
	if !st.Participates(a) || st.Participates(g.Index(3)) {
		t.Error("participation flags wrong")
	}
	st.DisableAll(a)
	if st.Participates(a) {
		t.Error("DisableAll should clear participation")
	}
	if got := len(Links(g, b)); got != 2 {
		t.Errorf("Links(2) = %d, want 2", got)
	}
}
