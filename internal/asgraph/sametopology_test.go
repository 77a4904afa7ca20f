package asgraph_test

import (
	"bytes"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/topogen"
)

// TestSameTopologyWeightVariants: graphs that differ only in their
// traffic weights — SetCPTrafficFraction variants of one generated
// graph, or a graph and its Write/Read copy — are one topology, even
// though their content fingerprints differ.
func TestSameTopologyWeightVariants(t *testing.T) {
	params := topogen.Default(300, 7)
	a, b := topogen.MustGenerate(params), topogen.MustGenerate(params)
	a.SetCPTrafficFraction(0.10)
	b.SetCPTrafficFraction(0.33)
	if asgraph.Fingerprint(a) == asgraph.Fingerprint(b) {
		t.Fatal("x=0.10 and x=0.33 variants fingerprint alike: the weights did not change")
	}
	if !asgraph.SameTopology(a, b) || !asgraph.SameTopology(b, a) {
		t.Error("SetCPTrafficFraction variants of one graph are not the same topology")
	}
	if !asgraph.SameTopology(a, a) {
		t.Error("a graph is not its own topology")
	}

	var buf bytes.Buffer
	if err := asgraph.Write(&buf, b); err != nil {
		t.Fatal(err)
	}
	c, err := asgraph.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !asgraph.SameTopology(a, c) || !asgraph.SameTopology(b, c) {
		t.Error("a Write/Read copy is not the same topology")
	}

	other := topogen.MustGenerate(topogen.Default(300, 8))
	if asgraph.SameTopology(a, other) {
		t.Error("graphs of two seeds are the same topology")
	}
}

// TestSameTopologyDetectsOneChange: one p2c edge, one p2p edge, one ASN
// label or one class changed — each alone, with everything else equal
// index for index — makes a different topology. A weight change alone
// does not.
func TestSameTopologyDetectsOneChange(t *testing.T) {
	type spec struct {
		p2c, p2p [][2]int32
		cps      []int32
		weight   float64 // AS 1's weight
	}
	build := func(s spec) *asgraph.Graph {
		b := asgraph.NewBuilder()
		for _, e := range s.p2c {
			b.AddCustomer(e[0], e[1])
		}
		for _, e := range s.p2p {
			b.AddPeer(e[0], e[1])
		}
		for _, cp := range s.cps {
			b.MarkCP(cp)
		}
		b.SetWeight(1, s.weight)
		return b.MustBuild()
	}
	// ISPs 1, 2, 3 (2 and 3 with two customers each); stubs 4, 5, 7, 8;
	// CP 6 peering with 1.
	base := spec{
		p2c:    [][2]int32{{1, 2}, {1, 3}, {2, 4}, {2, 7}, {3, 5}, {3, 8}},
		p2p:    [][2]int32{{2, 3}, {6, 1}},
		cps:    []int32{6},
		weight: 1,
	}
	g := build(base)

	reweighted := base
	reweighted.weight = 3.5
	if !asgraph.SameTopology(g, build(reweighted)) {
		t.Error("a weight change alone changed the topology")
	}

	p2c := base
	p2c.p2c = [][2]int32{{1, 2}, {1, 3}, {3, 4}, {2, 7}, {3, 5}, {3, 8}} // 4 moves from 2 to 3
	p2p := base
	p2p.p2p = [][2]int32{{4, 5}, {6, 1}} // 2–3 becomes 4–5
	asn := base
	asn.p2c = [][2]int32{{1, 2}, {1, 3}, {2, 4}, {2, 7}, {3, 5}, {3, 9}} // AS 8 relabelled 9
	class := base
	class.cps = []int32{6, 7} // stub 7 becomes a CP
	for name, s := range map[string]spec{"p2c edge": p2c, "p2p edge": p2p, "ASN": asn, "class": class} {
		h := build(s)
		if h.N() != g.N() {
			t.Fatalf("%s: variant has %d ASes, want %d", name, h.N(), g.N())
		}
		if asgraph.SameTopology(g, h) || asgraph.SameTopology(h, g) {
			t.Errorf("one changed %s left the topology the same", name)
		}
	}
}
