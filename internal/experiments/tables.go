package experiments

import (
	"fmt"

	"sbgp/internal/adopters"
	"sbgp/internal/asgraph"
	"sbgp/internal/metrics"
	"sbgp/internal/routing"
)

// Table1 counts DIAMOND competition scenarios around each early adopter
// of the case-study set: pairs of ISPs holding equally-good paths from
// the adopter to a stub destination.
func Table1(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	set := adopters.CPsPlusTopISPs(g, 5)
	counts := metrics.CountDiamonds(g, set)
	fmt.Fprintf(opt.Out, "# Table 1: DIAMOND scenarios per early adopter (N=%d)\n", g.N())
	fmt.Fprintf(opt.Out, "%-10s %-6s %-8s %s\n", "adopter", "class", "degree", "diamonds")
	var total int64
	for _, a := range sortedKeys(counts) {
		fmt.Fprintf(opt.Out, "AS%-8d %-6s %-8d %d\n", g.ASN(a), g.Class(a), g.Degree(a), counts[a])
		total += counts[a]
	}
	fmt.Fprintf(opt.Out, "total diamonds: %d\n", total)
	return nil
}

// Table2 prints graph summaries for the base and augmented graphs
// (the paper's Cyclops+IXP vs augmented comparison).
func Table2(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	aug := augGraph(opt)
	fmt.Fprintf(opt.Out, "# Table 2: AS graph summaries\n")
	for _, row := range []struct {
		name string
		g    *asgraph.Graph
	}{{"base", g}, {"augmented", aug}} {
		s := asgraph.ComputeStats(row.g)
		fmt.Fprintf(opt.Out, "%-10s ASes=%d  peering=%d  customer-provider=%d  stubs=%s  multihomed-stubs=%s\n",
			row.name, s.ASes, s.PeeringEdges, s.CustProvEdges,
			fmtPct(float64(s.Stubs)/float64(s.ASes)),
			fmtPct(float64(s.MultiHomedStubs)/float64(s.Stubs)))
	}
	return nil
}

// Table3 compares every content provider's mean path length to all
// destinations on the base and augmented graphs (paper: 2.7-6.9 hops
// dropping to ~2.1).
func Table3(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	aug := augGraph(opt)
	fmt.Fprintf(opt.Out, "# Table 3: mean CP path length to all destinations\n")
	fmt.Fprintf(opt.Out, "%-10s %-10s %s\n", "CP", "base", "augmented")
	cps := g.Nodes(asgraph.ContentProvider)
	pb := meanPathsFrom(g, cps)
	pa := meanPathsFrom(aug, aug.Nodes(asgraph.ContentProvider))
	for k, cp := range cps {
		fmt.Fprintf(opt.Out, "AS%-8d %-10.2f %.2f\n", g.ASN(cp), pb[k], pa[k])
	}
	return nil
}

// meanPathsFrom computes, for each source, the mean routing path length
// to every reachable destination, in one sweep over the destinations:
// paths from a source are read off the per-destination static info (the
// source's best-route length toward that destination).
func meanPathsFrom(g *asgraph.Graph, srcs []int32) []float64 {
	sum := make([]float64, len(srcs))
	cnt := make([]float64, len(srcs))
	routing.NewWorkspace(g).Sweep(g.AllNodes(), nil, func(s *routing.Static) {
		for k, src := range srcs {
			if s.Dest != src && s.Type[src] != routing.NoRoute {
				sum[k] += float64(s.Len[src])
				cnt[k]++
			}
		}
	})
	mean := make([]float64, len(srcs))
	for k := range srcs {
		if cnt[k] > 0 {
			mean[k] = sum[k] / cnt[k]
		}
	}
	return mean
}

// Table4 compares content-provider degrees to the top Tier-1 degrees on
// both graphs (paper Table 4: augmentation lifts CPs above the Tier-1s).
func Table4(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	aug := augGraph(opt)
	fmt.Fprintf(opt.Out, "# Table 4: degrees of CPs vs top-5 Tier-1 ISPs\n")
	fmt.Fprintf(opt.Out, "%-12s %-8s %s\n", "AS", "base", "augmented")
	for k, cp := range g.Nodes(asgraph.ContentProvider) {
		fmt.Fprintf(opt.Out, "CP AS%-7d %-8d %d\n",
			g.ASN(cp), g.Degree(cp), aug.Degree(aug.Nodes(asgraph.ContentProvider)[k]))
	}
	for _, t := range adopters.TopISPs(g, 5) {
		fmt.Fprintf(opt.Out, "T1 AS%-7d %-8d %d\n", g.ASN(t), g.Degree(t), aug.Degree(t))
	}
	return nil
}
