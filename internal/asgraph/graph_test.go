package asgraph

import (
	"math"
	"strings"
	"testing"
)

// chain builds 1 -> 2 -> 3 where 1 is provider of 2, 2 provider of 3.
func chain(t *testing.T) *Graph {
	t.Helper()
	g, err := NewBuilder().
		AddCustomer(1, 2).
		AddCustomer(2, 3).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	g := chain(t)
	if g.N() != 3 {
		t.Fatalf("N = %d, want 3", g.N())
	}
	i1, i2, i3 := g.Index(1), g.Index(2), g.Index(3)
	if i1 < 0 || i2 < 0 || i3 < 0 {
		t.Fatalf("missing index: %d %d %d", i1, i2, i3)
	}
	if got := g.Customers(i1); len(got) != 1 || got[0] != i2 {
		t.Errorf("Customers(1) = %v, want [%d]", got, i2)
	}
	if got := g.Providers(i3); len(got) != 1 || got[0] != i2 {
		t.Errorf("Providers(3) = %v, want [%d]", got, i2)
	}
	if got := g.Peers(i2); len(got) != 0 {
		t.Errorf("Peers(2) = %v, want empty", got)
	}
	if g.Rel(i1, i2) != RelCustomer {
		t.Errorf("Rel(1,2) = %v, want customer", g.Rel(i1, i2))
	}
	if g.Rel(i2, i1) != RelProvider {
		t.Errorf("Rel(2,1) = %v, want provider", g.Rel(i2, i1))
	}
	if g.Rel(i1, i3) != RelNone {
		t.Errorf("Rel(1,3) = %v, want none", g.Rel(i1, i3))
	}
}

func TestClassDerivation(t *testing.T) {
	g := chain(t)
	if c := g.Class(g.Index(1)); c != ISP {
		t.Errorf("class(1) = %v, want isp", c)
	}
	if c := g.Class(g.Index(2)); c != ISP {
		t.Errorf("class(2) = %v, want isp", c)
	}
	if c := g.Class(g.Index(3)); c != Stub {
		t.Errorf("class(3) = %v, want stub", c)
	}
}

func TestExplicitCPClass(t *testing.T) {
	g, err := NewBuilder().
		AddCustomer(10, 20).
		AddPeer(20, 30).
		MarkCP(30).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !g.IsCP(g.Index(30)) {
		t.Errorf("AS 30 should be a content provider")
	}
	if got := g.Nodes(ContentProvider); len(got) != 1 {
		t.Errorf("Nodes(CP) = %v, want one element", got)
	}
}

func TestStubWithCustomersRejected(t *testing.T) {
	_, err := NewBuilder().
		AddCustomer(1, 2).
		SetClass(1, Stub).
		Build()
	if err == nil {
		t.Fatal("expected error for stub with customers")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	if _, err := NewBuilder().AddCustomer(5, 5).Build(); err == nil {
		t.Fatal("expected error for customer self loop")
	}
	if _, err := NewBuilder().AddPeer(5, 5).Build(); err == nil {
		t.Fatal("expected error for peer self loop")
	}
}

func TestConflictingRelationshipsRejected(t *testing.T) {
	if _, err := NewBuilder().AddCustomer(1, 2).AddPeer(1, 2).Build(); err == nil {
		t.Fatal("expected error for customer+peer on same pair")
	}
	if _, err := NewBuilder().AddCustomer(1, 2).AddCustomer(2, 1).Build(); err == nil {
		t.Fatal("expected error for mutual customers")
	}
}

func TestGR1CycleRejected(t *testing.T) {
	// 1 -> 2 -> 3 -> 1 customer chain (each provider of the next) is a
	// customer-provider cycle and must be rejected.
	_, err := NewBuilder().
		AddCustomer(1, 2).
		AddCustomer(2, 3).
		AddCustomer(3, 1).
		Build()
	if err == nil {
		t.Fatal("expected GR1 violation error")
	}
}

func TestGR1LongerCycleRejected(t *testing.T) {
	b := NewBuilder()
	// Valid tree plus a back edge deep down.
	b.AddCustomer(1, 2).AddCustomer(2, 3).AddCustomer(3, 4).AddCustomer(4, 5)
	b.AddCustomer(5, 2) // 2 is now 5's customer: cycle 2->3->4->5->2
	if _, err := b.Build(); err == nil {
		t.Fatal("expected GR1 violation error")
	}
}

func TestPeeringDoesNotTriggerGR1(t *testing.T) {
	// Peering cycles are fine.
	_, err := NewBuilder().
		AddPeer(1, 2).AddPeer(2, 3).AddPeer(3, 1).
		Build()
	if err != nil {
		t.Fatalf("peering triangle rejected: %v", err)
	}
}

func TestCPTrafficFraction(t *testing.T) {
	b := NewBuilder()
	for i := int32(2); i <= 100; i++ {
		b.AddCustomer(1, i)
	}
	b.MarkCP(99).MarkCP(100)
	g := b.MustBuild()
	g.SetCPTrafficFraction(0.10)

	n, k := float64(g.N()), 2.0
	want := 0.10 * (n - k) / (k * 0.90)
	cpIdx := g.Index(99)
	if got := g.Weight(cpIdx); math.Abs(got-want) > 1e-9 {
		t.Errorf("CP weight = %v, want %v", got, want)
	}
	// The CP share of total weight must be x.
	cpW := g.Weight(g.Index(99)) + g.Weight(g.Index(100))
	var total float64
	for i := int32(0); i < int32(g.N()); i++ {
		total += g.Weight(i)
	}
	if share := cpW / total; math.Abs(share-0.10) > 1e-9 {
		t.Errorf("CP share = %v, want 0.10", share)
	}
}

func TestCPWeightForMatchesPaper(t *testing.T) {
	// Paper Section 7.1: wCP = 821 corresponds to x=10% on the 36,964-AS
	// Cyclops+IXP graph with five CPs.
	w := CPWeightFor(36964, 5, 0.10)
	if w < 820 || w > 823 {
		t.Errorf("CPWeightFor(36964,5,0.10) = %v, want ~821", w)
	}
}

func TestSetCPTrafficFractionPanics(t *testing.T) {
	g := chain(t)
	assertPanics(t, func() { g.SetCPTrafficFraction(-0.1) })
	assertPanics(t, func() { g.SetCPTrafficFraction(1.0) })
	assertPanics(t, func() { g.SetCPTrafficFraction(0.5) }) // no CPs
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestTopByDegree(t *testing.T) {
	b := NewBuilder()
	// AS 1 has 4 customers, AS 2 has 2, AS 3 has 1.
	b.AddCustomer(1, 10).AddCustomer(1, 11).AddCustomer(1, 12).AddCustomer(1, 13)
	b.AddCustomer(2, 10).AddCustomer(2, 11)
	b.AddCustomer(3, 12)
	g := b.MustBuild()
	top := TopByDegree(g, 2, ISP)
	if len(top) != 2 {
		t.Fatalf("len = %d, want 2", len(top))
	}
	if g.ASN(top[0]) != 1 || g.ASN(top[1]) != 2 {
		t.Errorf("top = ASes %d,%d; want 1,2", g.ASN(top[0]), g.ASN(top[1]))
	}
}

func TestStats(t *testing.T) {
	b := NewBuilder()
	b.AddCustomer(1, 2)
	b.AddCustomer(1, 3)
	b.AddCustomer(2, 4).AddCustomer(3, 4) // 4 multihomed
	b.AddPeer(2, 3)
	b.MarkCP(5)
	b.AddPeer(5, 1)
	g := b.MustBuild()
	s := ComputeStats(g)
	if s.ASes != 5 || s.CPs != 1 {
		t.Errorf("ASes=%d CPs=%d", s.ASes, s.CPs)
	}
	if s.Stubs != 1 { // AS 4 only (2,3 have customers; 5 is CP)
		t.Errorf("Stubs = %d, want 1", s.Stubs)
	}
	if s.MultiHomedStubs != 1 {
		t.Errorf("MultiHomedStubs = %d, want 1", s.MultiHomedStubs)
	}
	if s.CustProvEdges != 4 || s.PeeringEdges != 2 {
		t.Errorf("edges = %d/%d, want 4/2", s.CustProvEdges, s.PeeringEdges)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// TestStatsSingleHomedAndLeafStubs: a stub is single-homed when it has
// exactly one provider — not "fewer than two", which counted
// provider-less stubs — and a leaf when, besides, it has no peer.
func TestStatsSingleHomedAndLeafStubs(t *testing.T) {
	b := NewBuilder()
	b.AddCustomer(1, 2).AddCustomer(1, 3) // 2, 3: leaves of 1
	b.AddCustomer(1, 4).AddPeer(4, 5)     // 4: single-homed but peered; 5: no provider at all
	b.AddCustomer(1, 6).AddCustomer(7, 6) // 6: multi-homed
	b.AddPeer(1, 7).AddCustomer(7, 8)     // 8: leaf of 7
	s := ComputeStats(b.MustBuild())
	if s.Stubs != 6 || s.MultiHomedStubs != 1 {
		t.Fatalf("Stubs = %d, MultiHomedStubs = %d, want 6 and 1", s.Stubs, s.MultiHomedStubs)
	}
	if s.SingleHomedStubs != 4 {
		t.Errorf("SingleHomedStubs = %d, want 4 (2, 3, 4, 8 — not the provider-less 5)", s.SingleHomedStubs)
	}
	if s.LeafStubs != 3 {
		t.Errorf("LeafStubs = %d, want 3 (2, 3, 8 — not the peered 4)", s.LeafStubs)
	}
	for _, line := range []string{"single-homed           4 (66.7% of stubs)", "leaf stubs           3 (37.5% of ASes"} {
		if !strings.Contains(s.String(), line) {
			t.Errorf("String() lacks %q:\n%s", line, s)
		}
	}
}

func TestDeterministicIndices(t *testing.T) {
	mk := func() *Graph {
		return NewBuilder().
			AddCustomer(7, 3).AddCustomer(7, 9).AddPeer(3, 9).
			MustBuild()
	}
	g1, g2 := mk(), mk()
	for i := int32(0); i < int32(g1.N()); i++ {
		if g1.ASN(i) != g2.ASN(i) {
			t.Fatalf("index %d maps to ASN %d vs %d", i, g1.ASN(i), g2.ASN(i))
		}
	}
	// ASN order must be ascending.
	for i := int32(1); i < int32(g1.N()); i++ {
		if g1.ASN(i-1) >= g1.ASN(i) {
			t.Fatalf("ASNs not ascending: %v then %v", g1.ASN(i-1), g1.ASN(i))
		}
	}
}

func TestClassString(t *testing.T) {
	cases := map[Class]string{Stub: "stub", ISP: "isp", ContentProvider: "cp"}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(c), c.String(), want)
		}
	}
	if Class(9).String() == "" {
		t.Error("unknown class should stringify")
	}
}

func TestRelString(t *testing.T) {
	if RelCustomer.String() != "customer" || RelPeer.String() != "peer" ||
		RelProvider.String() != "provider" || RelNone.String() != "none" {
		t.Error("Rel.String mismatch")
	}
}
