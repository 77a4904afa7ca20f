package asgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Stats summarizes a graph in the shape of the paper's Table 2
// (graph sizes) and the stub/ISP breakdowns quoted throughout Section 2.
type Stats struct {
	ASes              int
	Stubs             int
	ISPs              int
	CPs               int
	CustProvEdges     int
	PeeringEdges      int
	MaxDegree         int
	MeanDegree        float64
	MultiHomedStubs   int // stubs with >= 2 providers
	SingleHomedStubs  int // stubs with exactly one provider
	LeafStubs         int // single-homed stubs with no peer: exchangeable with their siblings
	ISPsFewStubCusts  int // ISPs with < 7 stub customers (paper: ~80%)
	ISPsManyStubCusts int // ISPs with > 100 stub customers (paper: ~1%)
}

// ComputeStats returns summary statistics for g.
func ComputeStats(g *Graph) Stats {
	var s Stats
	s.ASes = g.N()
	cp, pe := g.EdgeCount()
	s.CustProvEdges = cp
	s.PeeringEdges = pe
	totalDeg := 0
	for i := int32(0); i < int32(g.N()); i++ {
		d := g.Degree(i)
		totalDeg += d
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		switch g.Class(i) {
		case Stub:
			s.Stubs++
			switch np := len(g.Providers(i)); {
			case np >= 2:
				s.MultiHomedStubs++
			case np == 1:
				s.SingleHomedStubs++
				if len(g.Peers(i)) == 0 {
					s.LeafStubs++
				}
			}
		case ISP:
			s.ISPs++
			stubCusts := 0
			for _, c := range g.Customers(i) {
				if g.IsStub(c) {
					stubCusts++
				}
			}
			if stubCusts < 7 {
				s.ISPsFewStubCusts++
			}
			if stubCusts > 100 {
				s.ISPsManyStubCusts++
			}
		case ContentProvider:
			s.CPs++
		}
	}
	if g.N() > 0 {
		s.MeanDegree = float64(totalDeg) / float64(g.N())
	}
	return s
}

// String renders the stats as an aligned table.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ASes            %8d\n", s.ASes)
	fmt.Fprintf(&b, "  stubs         %8d (%.1f%%)\n", s.Stubs, pct(s.Stubs, s.ASes))
	fmt.Fprintf(&b, "  ISPs          %8d (%.1f%%)\n", s.ISPs, pct(s.ISPs, s.ASes))
	fmt.Fprintf(&b, "  CPs           %8d\n", s.CPs)
	fmt.Fprintf(&b, "cust-prov edges %8d\n", s.CustProvEdges)
	fmt.Fprintf(&b, "peering edges   %8d\n", s.PeeringEdges)
	fmt.Fprintf(&b, "max degree      %8d\n", s.MaxDegree)
	fmt.Fprintf(&b, "mean degree     %11.2f\n", s.MeanDegree)
	fmt.Fprintf(&b, "multihomed stubs%8d (%.1f%% of stubs)\n", s.MultiHomedStubs, pct(s.MultiHomedStubs, s.Stubs))
	fmt.Fprintf(&b, "single-homed    %8d (%.1f%% of stubs)\n", s.SingleHomedStubs, pct(s.SingleHomedStubs, s.Stubs))
	fmt.Fprintf(&b, "  leaf stubs    %8d (%.1f%% of ASes; one provider, no peer)\n", s.LeafStubs, pct(s.LeafStubs, s.ASes))
	return b.String()
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// TopByDegree returns the indices of the k highest-degree nodes of the
// given class (or of any class if classes is empty), highest first.
// Ties break toward the lower node index so results are deterministic.
func TopByDegree(g *Graph, k int, classes ...Class) []int32 {
	want := func(c Class) bool {
		if len(classes) == 0 {
			return true
		}
		for _, cc := range classes {
			if c == cc {
				return true
			}
		}
		return false
	}
	var cand []int32
	for i := int32(0); i < int32(g.N()); i++ {
		if want(g.Class(i)) {
			cand = append(cand, i)
		}
	}
	sort.Slice(cand, func(a, b int) bool {
		da, db := g.Degree(cand[a]), g.Degree(cand[b])
		if da != db {
			return da > db
		}
		return cand[a] < cand[b]
	})
	if k > len(cand) {
		k = len(cand)
	}
	return cand[:k]
}
