package routing

import (
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
)

// diamond builds the competition scenario of the paper's Figure 2: a
// source S with two equally-good paths to stub d through competing ISPs
// A (ASN 20) and B (ASN 30).
//
//	   S(10)
//	   /   \
//	A(20) B(30)
//	   \   /
//	   d(40)
func diamond(t *testing.T) *asgraph.Graph {
	t.Helper()
	return asgraph.NewBuilder().
		AddCustomer(10, 20).AddCustomer(10, 30).
		AddCustomer(20, 40).AddCustomer(30, 40).
		MustBuild()
}

// resolve is a one-off resolution: ResolveInto on a cleared tree.
func resolve(w *Workspace, s *Static, secure, breaks []bool, tb Tiebreaker) *Tree {
	t := &Tree{}
	t.Clear(len(secure))
	w.ResolveInto(t, s, secure, breaks, nil, nil, tb)
	return t
}

// deployed returns the state of n nodes where exactly the given nodes
// are secure and break ties on security.
func deployed(n int, nodes ...int32) (secure, breaks []bool) {
	secure, breaks = make([]bool, n), make([]bool, n)
	for _, i := range nodes {
		secure[i], breaks[i] = true, true
	}
	return secure, breaks
}

func TestResolveInsecureUsesTiebreak(t *testing.T) {
	g := diamond(t)
	w := NewWorkspace(g)
	d := idx(t, g, 40)
	s := w.ComputeStatic(d)
	sec, brk := deployed(g.N())
	tree := resolve(w, s, sec, brk, LowestIndex{})
	iS, iA := idx(t, g, 10), idx(t, g, 20)
	if tree.Parent[iS] != iA {
		t.Errorf("S chose %d, want A (lowest index)", g.ASN(tree.Parent[iS]))
	}
	if tree.Secure[iS] {
		t.Error("no AS is secure; path cannot be secure")
	}
}

func TestResolveSecPOverridesTiebreak(t *testing.T) {
	g := diamond(t)
	w := NewWorkspace(g)
	d := idx(t, g, 40)
	s := w.ComputeStatic(d)
	iS, iA, iB := idx(t, g, 10), idx(t, g, 20), idx(t, g, 30)

	// Secure: S, B, d. A (the tie-break favorite) is insecure, so secure
	// S must route through B.
	sec, brk := deployed(g.N(), iS, iB, d)
	tree := resolve(w, s, sec, brk, LowestIndex{})
	if tree.Parent[iS] != iB {
		t.Errorf("S chose AS %d, want B (secure path)", g.ASN(tree.Parent[iS]))
	}
	if !tree.Secure[iS] {
		t.Error("S's path through B should be fully secure")
	}
	if tree.Secure[iA] {
		t.Error("insecure A cannot have a secure path")
	}
}

func TestResolveSecPRequiresFullySecurePath(t *testing.T) {
	g := diamond(t)
	w := NewWorkspace(g)
	d := idx(t, g, 40)
	s := w.ComputeStatic(d)
	iS, iA, iB := idx(t, g, 10), idx(t, g, 20), idx(t, g, 30)

	// S and B secure but d insecure: the B path is only partially secure,
	// so SecP must not fire and S keeps the tie-break favorite A.
	sec, brk := deployed(g.N(), iS, iB)
	tree := resolve(w, s, sec, brk, LowestIndex{})
	if tree.Parent[iS] != iA {
		t.Errorf("S chose AS %d, want A (no fully secure alternative)", g.ASN(tree.Parent[iS]))
	}
	if tree.Secure[iS] {
		t.Error("path cannot be secure with insecure destination")
	}
}

func TestResolveInsecureDecidersIgnoreSecurity(t *testing.T) {
	g := diamond(t)
	w := NewWorkspace(g)
	d := idx(t, g, 40)
	s := w.ComputeStatic(d)
	iS, iA, iB := idx(t, g, 10), idx(t, g, 20), idx(t, g, 30)

	// Everything secure except S: S still uses plain tie-break.
	sec, brk := deployed(g.N(), iA, iB, d)
	tree := resolve(w, s, sec, brk, LowestIndex{})
	if tree.Parent[iS] != iA {
		t.Errorf("insecure S chose AS %d, want tie-break favorite A", g.ASN(tree.Parent[iS]))
	}
}

func TestResolveSimplexStubNoTiebreak(t *testing.T) {
	g := diamond(t)
	w := NewWorkspace(g)
	d := idx(t, g, 40)
	s := w.ComputeStatic(d)
	iS, iA, iB := idx(t, g, 10), idx(t, g, 20), idx(t, g, 30)

	// S secure but does NOT break ties (simplex stub mode, Section 6.7):
	// it keeps tie-break favorite A even though the B path is secure.
	sec, brk := deployed(g.N(), iB, d)
	sec[iS] = true // secure, brk stays false
	tree := resolve(w, s, sec, brk, LowestIndex{})
	if tree.Parent[iS] != iA {
		t.Errorf("non-tie-breaking S chose AS %d, want A", g.ASN(tree.Parent[iS]))
	}
	if tree.Secure[iS] {
		t.Error("path through insecure A cannot be secure")
	}
}

func TestResolveSecurityPropagatesAlongChain(t *testing.T) {
	// Chain stub -> I1 -> I2 -> d with everyone secure: all paths secure.
	g := asgraph.NewBuilder().
		AddCustomer(2, 1). // I2 provider of I1? build chain: d=4 customer of I2=3, ...
		AddCustomer(3, 2).
		AddCustomer(3, 4).
		MustBuild()
	// Graph: 3 -> {2,4}; 2 -> 1. Destination 4. Node 1 reaches 4 via
	// providers 2, 3: path 1-2-3-4.
	w := NewWorkspace(g)
	d := idx(t, g, 4)
	s := w.ComputeStatic(d)
	sec, brk := deployed(g.N())
	for i := range sec {
		sec[i], brk[i] = true, true
	}
	tree := resolve(w, s, sec, brk, LowestIndex{})
	i1 := idx(t, g, 1)
	if !tree.Secure[i1] {
		t.Error("fully secure chain should give node 1 a secure path")
	}
	got := tree.PathTo(i1)
	want := []int32{idx(t, g, 1), idx(t, g, 2), idx(t, g, 3), idx(t, g, 4)}
	if len(got) != len(want) {
		t.Fatalf("path = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("path = %v, want %v", got, want)
		}
	}
}

func TestPathToUnreachable(t *testing.T) {
	g := asgraph.NewBuilder().AddCustomer(1, 2).AddCustomer(3, 4).MustBuild()
	w := NewWorkspace(g)
	d := idx(t, g, 2)
	s := w.ComputeStatic(d)
	sec, brk := deployed(g.N())
	tree := resolve(w, s, sec, brk, LowestIndex{})
	if p := tree.PathTo(idx(t, g, 4)); p != nil {
		t.Errorf("PathTo(unreachable) = %v, want nil", p)
	}
	if p := tree.PathTo(d); len(p) != 1 || p[0] != d {
		t.Errorf("PathTo(dest) = %v, want [dest]", p)
	}
}

// Weights accumulates, for every node, the total traffic weight of the
// subtree rooted at that node (the node's own weight plus everything that
// routes through it), using the static ascending-length order in reverse.
// The acc slice must have length N; it is overwritten.
func (t *Tree) Weights(s *Static, nodeWeight []float64, acc []float64) {
	for i := range acc {
		acc[i] = 0
	}
	for i := int32(0); i < int32(len(acc)); i++ {
		if i == t.Dest || t.Parent[i] >= 0 {
			acc[i] = nodeWeight[i]
		}
	}
	order := s.Order()
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		if p := t.Parent[i]; p >= 0 {
			acc[p] += acc[i]
		}
	}
}

func TestTreeWeights(t *testing.T) {
	g := figure1(t)
	w := NewWorkspace(g)
	d := idx(t, g, 8)
	s := w.ComputeStatic(d)
	sec, brk := deployed(g.N())
	tree := resolve(w, s, sec, brk, LowestIndex{})

	weights := make([]float64, g.N())
	for i := range weights {
		weights[i] = 1
	}
	acc := make([]float64, g.N())
	tree.Weights(s, weights, acc)

	// Everything reaches d=8, so d's subtree holds all 9 nodes.
	if acc[d] != 9 {
		t.Errorf("acc[dest] = %v, want 9", acc[d])
	}
	// B (AS 4) is d's lowest-index provider, so T1's traffic flows
	// through it (LowestIndex tiebreak at T1 chooses B over nothing --
	// T1's tiebreak set toward 8 is {B} only). B carries itself, T1 and
	// everything routing through T1.
	iB := idx(t, g, 4)
	if acc[iB] < 2 {
		t.Errorf("acc[B] = %v, want >= 2", acc[iB])
	}
	var total float64
	for i := int32(0); i < int32(g.N()); i++ {
		if tree.Parent[i] >= 0 || i == d {
			total += weights[i]
		}
	}
	if acc[d] != total {
		t.Errorf("root subtree %v != total reachable weight %v", acc[d], total)
	}
}

func TestHashTiebreakerDeterministic(t *testing.T) {
	tb1 := HashTiebreaker{Seed: 7}
	tb2 := HashTiebreaker{Seed: 7}
	for node := int32(0); node < 50; node++ {
		for a := int32(0); a < 10; a++ {
			for b := int32(0); b < 10; b++ {
				if a == b {
					continue
				}
				if tb1.Less(node, a, b) != tb2.Less(node, a, b) {
					t.Fatal("same seed must give same order")
				}
				if tb1.Less(node, a, b) == tb1.Less(node, b, a) {
					t.Fatalf("order not strict for node=%d a=%d b=%d", node, a, b)
				}
			}
		}
	}
}

func TestHashTiebreakerSeedVaries(t *testing.T) {
	// Different seeds should disagree on at least some comparisons.
	tb1 := HashTiebreaker{Seed: 1}
	tb2 := HashTiebreaker{Seed: 2}
	diff := 0
	for node := int32(0); node < 100; node++ {
		if tb1.Less(node, 0, 1) != tb2.Less(node, 0, 1) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 1 and 2 produce identical orders on 100 probes")
	}
}

// TestResolveMatchesReference is the core differential test: the fast
// Static+ResolveInto pipeline must agree exactly with the naive path-vector
// reference on random graphs and random deployment states.
func TestResolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const trials = 120
	for trial := 0; trial < trials; trial++ {
		n := 4 + rng.Intn(22)
		g := asgraphtest.Random(rng, n, 0.12, 0.10, 0.3)
		sec, brk := asgraphtest.RandomState(rng, g.N(), 0.5, 0.7)
		tb := HashTiebreaker{Seed: uint64(trial)}
		w := NewWorkspace(g)

		for d := int32(0); d < int32(g.N()); d++ {
			s := w.ComputeStatic(d)
			fast := resolve(w, s, sec, brk, tb)
			ref, err := Reference(g, d, sec, brk, tb)
			if err != nil {
				t.Fatalf("trial %d dest %d: %v", trial, d, err)
			}
			for i := int32(0); i < int32(g.N()); i++ {
				if fast.Parent[i] != ref.Parent[i] {
					t.Fatalf("trial %d dest %d node %d: fast parent %d, reference %d (type=%v len=%d tb=%v)",
						trial, d, i, fast.Parent[i], ref.Parent[i], s.Type[i], s.Len[i], s.Tiebreak(i))
				}
				if fast.Secure[i] != ref.Secure[i] {
					t.Fatalf("trial %d dest %d node %d: fast secure %v, reference %v",
						trial, d, i, fast.Secure[i], ref.Secure[i])
				}
			}
		}
	}
}

// TestStaticMatchesReferenceLengths checks Observation C.1 from the
// other side: the reference's realized path lengths and classes equal
// the state-independent static ones, for random states.
func TestStaticMatchesReferenceLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(15)
		g := asgraphtest.Random(rng, n, 0.15, 0.08, 0.2)
		sec, brk := asgraphtest.RandomState(rng, g.N(), 0.6, 0.5)
		tb := HashTiebreaker{Seed: 99}
		w := NewWorkspace(g)
		for d := int32(0); d < int32(g.N()); d++ {
			s := w.ComputeStatic(d)
			ref, err := Reference(g, d, sec, brk, tb)
			if err != nil {
				t.Fatal(err)
			}
			for i := int32(0); i < int32(g.N()); i++ {
				if i == d {
					continue
				}
				refLen := int32(len(ref.PathTo(i))) - 1
				if ref.Parent[i] < 0 {
					if s.Type[i] != NoRoute {
						t.Fatalf("node %d: static says reachable, reference says not", i)
					}
					continue
				}
				if s.Len[i] != refLen {
					t.Fatalf("node %d: static len %d, reference len %d", i, s.Len[i], refLen)
				}
			}
		}
	}
}

// TestObservationC1 verifies that route class and length do not depend
// on the deployment state (Observation C.1) by comparing reference runs
// under different random states.
func TestObservationC1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := asgraphtest.Random(rng, 18, 0.15, 0.1, 0.2)
	tb := HashTiebreaker{Seed: 5}
	for d := int32(0); d < int32(g.N()); d++ {
		var baseLens []int
		for stateTrial := 0; stateTrial < 6; stateTrial++ {
			sec, brk := asgraphtest.RandomState(rng, g.N(), 0.5, 0.5)
			ref, err := Reference(g, d, sec, brk, tb)
			if err != nil {
				t.Fatal(err)
			}
			lens := make([]int, g.N())
			for i := int32(0); i < int32(g.N()); i++ {
				lens[i] = len(ref.PathTo(i))
			}
			if baseLens == nil {
				baseLens = lens
				continue
			}
			for i := range lens {
				if lens[i] != baseLens[i] {
					t.Fatalf("dest %d node %d: path length depends on state (%d vs %d)",
						d, i, lens[i], baseLens[i])
				}
			}
		}
	}
}
