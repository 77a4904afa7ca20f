package adopters

import (
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
	"sbgp/internal/topogen"
)

func testGraph(t *testing.T) *asgraph.Graph {
	t.Helper()
	return topogen.MustGenerate(topogen.Default(300, 5))
}

func TestContentProviders(t *testing.T) {
	g := testGraph(t)
	cps := ContentProviders(g)
	if len(cps) != 5 {
		t.Fatalf("CPs = %d, want 5", len(cps))
	}
	for _, c := range cps {
		if !g.IsCP(c) {
			t.Errorf("node %d is not a CP", c)
		}
	}
}

func TestTopISPs(t *testing.T) {
	g := testGraph(t)
	top := TopISPs(g, 5)
	if len(top) != 5 {
		t.Fatalf("top = %d, want 5", len(top))
	}
	for k := 1; k < len(top); k++ {
		if g.Degree(top[k-1]) < g.Degree(top[k]) {
			t.Errorf("degrees not descending at %d", k)
		}
	}
	for _, i := range top {
		if !g.IsISP(i) {
			t.Errorf("node %d not an ISP", i)
		}
	}
}

func TestCPsPlusTopISPs(t *testing.T) {
	g := testGraph(t)
	set := CPsPlusTopISPs(g, 5)
	if len(set) != 10 {
		t.Fatalf("len = %d, want 10", len(set))
	}
}

func TestRandomISPs(t *testing.T) {
	g := testGraph(t)
	a := RandomISPs(g, 10, 1)
	b := RandomISPs(g, 10, 1)
	c := RandomISPs(g, 10, 2)
	if len(a) != 10 {
		t.Fatalf("len = %d", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Error("same seed must give same set")
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should give different sets")
	}
	seen := map[int32]bool{}
	for _, i := range a {
		if seen[i] {
			t.Error("duplicate in random set")
		}
		seen[i] = true
		if !g.IsISP(i) {
			t.Error("non-ISP in random set")
		}
	}
	// Asking for more than available truncates.
	all := RandomISPs(g, 1<<20, 3)
	if len(all) != len(g.Nodes(asgraph.ISP)) {
		t.Errorf("overshoot len = %d", len(all))
	}
}

func TestGreedyPicksInfluentialAdopter(t *testing.T) {
	// Diamond-rich toy graph: T(1) is the traffic source whose adoption
	// triggers everything; a leaf ISP (5) triggers nothing. Greedy over
	// {5, 1} must pick 1 first.
	g := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		AddCustomer(5, 6). // isolated ISP with private stub
		AddCustomer(1, 5).
		SetWeight(1, 10).
		MustBuild()
	cfg := sim.Config{
		Model:          sim.Outgoing,
		Theta:          0.05,
		StubsBreakTies: true,
		Tiebreaker:     routing.LowestIndex{},
	}
	// Seeding T(1) alone secures only T (its customers are ISPs, and no
	// stub is secure, so no market pressure starts): final count 1.
	// Seeding B(3) secures B plus its simplex stub: final count 2, and
	// with T also chosen later the A-steal cascade fires. Greedy's first
	// pick must therefore be B, not T.
	cand := []int32{g.Index(1), g.Index(3)}
	chosen, err := Greedy(g, cfg, cand, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) != 2 {
		t.Fatalf("chose %v, want 2 picks", chosen)
	}
	if chosen[0] != g.Index(3) {
		t.Errorf("first greedy pick = node %d, want B=%d (marginal gain 2 vs 1)",
			chosen[0], g.Index(3))
	}
	// With {3,1} seeded, A deploys to steal T's traffic: T, B, stub 4
	// and A end secure — the second pick (T) was accepted because 4 > 2.
	if chosen[1] != g.Index(1) {
		t.Errorf("second greedy pick = node %d, want T=%d", chosen[1], g.Index(1))
	}
	cfg.EarlyAdopters = chosen
	res := sim.MustNew(g, cfg).Run()
	if res.Final.SecureASes != 4 {
		t.Errorf("final secure = %d, want 4 (T, A, B, stub)", res.Final.SecureASes)
	}
	if !res.FinalSecure[g.Index(2)] {
		t.Error("A never deployed: the steal cascade did not fire")
	}
}

func TestGreedyRespectsK(t *testing.T) {
	g := testGraph(t)
	cfg := sim.Config{Model: sim.Outgoing, Theta: 0.05, StubsBreakTies: true}
	cand := TopISPs(g, 3)
	chosen, err := Greedy(g, cfg, cand, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(chosen) > 3 {
		t.Errorf("chose %d from pool of 3", len(chosen))
	}
}

func TestParse(t *testing.T) {
	g := testGraph(t)
	cases := []struct {
		spec string
		want int
		err  bool
	}{
		{"none", 0, false},
		{"", 0, false},
		{"cps", 5, false},
		{"top5", 5, false},
		{"cps+top5", 10, false},
		{"random7", 7, false},
		{"top0", 0, true},
		{"topX", 0, true},
		{"cps+topX", 0, true},
		{"random-3", 0, true},
		{"frobnicate", 0, true},
	}
	for _, tc := range cases {
		got, err := Parse(g, tc.spec, 1)
		if tc.err {
			if err == nil {
				t.Errorf("Parse(%q): expected error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != tc.want {
			t.Errorf("Parse(%q) = %d adopters, want %d", tc.spec, len(got), tc.want)
		}
	}
	// random is seed-deterministic.
	a, _ := Parse(g, "random5", 3)
	b, _ := Parse(g, "random5", 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random spec not seed-deterministic")
		}
	}
}
