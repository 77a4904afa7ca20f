// Package metrics computes the quantities the paper's evaluation reports:
// secure-path fractions (Fig. 9), tiebreak-set distributions (Fig. 10),
// diamond counts (Table 1), adoption-by-degree curves (Fig. 6), utility
// trajectories (Figs. 4, 5, 14), and turn-off-incentive scans
// (Section 7.3).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// SecurePaths reports how much of the src-dst path matrix is fully
// secure in a deployment state (Fig. 9).
type SecurePaths struct {
	// Fraction is the share of ordered (src,dst) pairs, src≠dst, whose
	// chosen path is fully secure.
	Fraction float64
	// SecureASFraction is f, the share of ASes that are secure; the
	// paper observes Fraction lands slightly below f².
	SecureASFraction float64
	// Longest is the hop count of the longest fully-secure chosen path
	// (Fig. 7); 0 when no path is secure.
	Longest int32
}

// ComputeSecurePaths resolves every destination's routing tree in the
// given state and counts fully-secure source-destination paths.
func ComputeSecurePaths(g *asgraph.Graph, secure []bool, stubsBreakTies bool, tb routing.Tiebreaker) SecurePaths {
	return ComputeSecurePathsStates(g, [][]bool{secure}, stubsBreakTies, tb)[0]
}

// ComputeSecurePathsStates is ComputeSecurePaths for several deployment
// states of one graph at once (a run's per-round states, a θ sweep's
// final states). The static routing information is state-independent
// (Observation C.1), so each destination's BFS is paid once and only
// the resolution is repeated per state.
func ComputeSecurePathsStates(g *asgraph.Graph, states [][]bool, stubsBreakTies bool, tb routing.Tiebreaker) []SecurePaths {
	n := g.N()
	breaks := make([][]bool, len(states))
	for k, secure := range states {
		breaks[k] = sim.DeriveBreaks(g, secure, stubsBreakTies)
	}
	out := make([]SecurePaths, len(states))
	securePairs := make([]int64, len(states))
	w := routing.NewWorkspace(g)
	var tree routing.Tree
	w.Sweep(g.AllNodes(), nil, func(s *routing.Static) {
		tree.Clear(n)
		for k, secure := range states {
			w.ResolveInto(&tree, s, secure, breaks[k], nil, nil, tb)
			for _, i := range s.Order() {
				if tree.Secure[i] {
					securePairs[k]++
					if s.Len[i] > out[k].Longest {
						out[k].Longest = s.Len[i]
					}
				}
			}
		}
	})
	for k, secure := range states {
		var totalSecure int64
		for _, s := range secure {
			if s {
				totalSecure++
			}
		}
		out[k].Fraction = float64(securePairs[k]) / float64(int64(n)*int64(n-1))
		out[k].SecureASFraction = float64(totalSecure) / float64(n)
	}
	return out
}

// TiebreakDist is the distribution of tiebreak-set sizes over all
// (source, destination) pairs (Fig. 10), split by source class.
type TiebreakDist struct {
	// Counts[k] is the number of (src,dst) pairs whose tiebreak set has
	// size k (index 0 unused; unreachable pairs are not counted).
	Counts []int64
	// MeanAll, MeanISPs and MeanStubs are average sizes over all
	// sources, ISP sources and stub sources (paper: 1.18 / 1.30 / 1.16).
	MeanAll   float64
	MeanISPs  float64
	MeanStubs float64
	// FracMultiAll is the share of pairs with more than one path
	// (paper: ~20%), FracMultiISPs the same for ISP sources (~25%).
	FracMultiAll  float64
	FracMultiISPs float64
}

// ComputeTiebreakDist measures tiebreak-set sizes across all pairs.
func ComputeTiebreakDist(g *asgraph.Graph) TiebreakDist {
	var dist TiebreakDist
	var sumAll, cntAll, sumISP, cntISP, sumStub, cntStub, multiAll, multiISP int64
	routing.NewWorkspace(g).Sweep(g.AllNodes(), nil, func(s *routing.Static) {
		for _, i := range s.Order() {
			k := len(s.Tiebreak(i))
			for k >= len(dist.Counts) {
				dist.Counts = append(dist.Counts, 0)
			}
			dist.Counts[k]++
			sumAll += int64(k)
			cntAll++
			if k > 1 {
				multiAll++
			}
			switch g.Class(i) {
			case asgraph.ISP:
				sumISP += int64(k)
				cntISP++
				if k > 1 {
					multiISP++
				}
			case asgraph.Stub:
				sumStub += int64(k)
				cntStub++
			}
		}
	})
	if cntAll > 0 {
		dist.MeanAll = float64(sumAll) / float64(cntAll)
		dist.FracMultiAll = float64(multiAll) / float64(cntAll)
	}
	if cntISP > 0 {
		dist.MeanISPs = float64(sumISP) / float64(cntISP)
		dist.FracMultiISPs = float64(multiISP) / float64(cntISP)
	}
	if cntStub > 0 {
		dist.MeanStubs = float64(sumStub) / float64(cntStub)
	}
	return dist
}

// CountDiamonds counts the paper's Table 1 DIAMOND scenarios: for each
// early adopter a and each stub destination s, every unordered pair of
// ISPs in a's tiebreak set toward s is a diamond — two ISPs competing
// for a's traffic to s on equally-good paths.
func CountDiamonds(g *asgraph.Graph, earlyAdopters []int32) map[int32]int64 {
	out := make(map[int32]int64, len(earlyAdopters))
	for _, a := range earlyAdopters {
		out[a] = 0
	}
	routing.NewWorkspace(g).Sweep(g.Stubs(), nil, func(s *routing.Static) {
		for _, a := range earlyAdopters {
			if s.Type[a] == routing.NoRoute || s.Type[a] == routing.SelfRoute {
				continue
			}
			isps := 0
			for _, b := range s.Tiebreak(a) {
				if g.IsISP(b) {
					isps++
				}
			}
			if isps >= 2 {
				out[a] += int64(isps*(isps-1)) / 2
			}
		}
	})
	return out
}

// AdoptionByDegree returns, for each round and each degree bin, the
// cumulative fraction of that bin's ISPs that are secure (Fig. 6).
// binEdges are inclusive lower bounds, e.g. {1, 11, 26, 101}: bin b
// holds ISPs with degree in [binEdges[b], binEdges[b+1]).
func AdoptionByDegree(g *asgraph.Graph, res *sim.Result, binEdges []int) [][]float64 {
	nb := len(binEdges)
	binOf := func(deg int) int {
		b := 0
		for b+1 < nb && deg >= binEdges[b+1] {
			b++
		}
		return b
	}
	binTotal := make([]int, nb)
	for _, i := range res.ISPs {
		binTotal[binOf(g.Degree(i))]++
	}

	secure := make([]bool, g.N())
	for _, a := range initialSecureISPs(g, res) {
		secure[a] = true
	}
	cum := make([]int, nb)
	for _, i := range res.ISPs {
		if secure[i] {
			cum[binOf(g.Degree(i))]++
		}
	}
	frac := func() []float64 {
		row := make([]float64, nb)
		for b := 0; b < nb; b++ {
			if binTotal[b] > 0 {
				row[b] = float64(cum[b]) / float64(binTotal[b])
			}
		}
		return row
	}

	out := [][]float64{frac()}
	for _, rd := range res.Rounds {
		for _, i := range rd.Deployed {
			if !secure[i] {
				secure[i] = true
				cum[binOf(g.Degree(i))]++
			}
		}
		for _, i := range rd.Disabled {
			if secure[i] {
				secure[i] = false
				cum[binOf(g.Degree(i))]--
			}
		}
		out = append(out, frac())
	}
	return out
}

// initialSecureISPs reconstructs which ISPs were secure before round 1
// (the early adopters that are ISPs).
func initialSecureISPs(g *asgraph.Graph, res *sim.Result) []int32 {
	// Work backwards from the final state: remove everything deployed in
	// rounds, add back everything disabled.
	secure := make(map[int32]bool)
	for i, s := range res.FinalSecure {
		if s && g.IsISP(int32(i)) {
			secure[int32(i)] = true
		}
	}
	for r := len(res.Rounds) - 1; r >= 0; r-- {
		for _, i := range res.Rounds[r].Deployed {
			delete(secure, i)
		}
		for _, i := range res.Rounds[r].Disabled {
			secure[i] = true
		}
	}
	out := make([]int32, 0, len(secure))
	for i := range secure {
		out = append(out, i)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// Trajectory is one ISP's utility per round normalized by its pristine
// (pre-deployment) utility — the paper's Figure 4 series.
type Trajectory struct {
	Node       int32
	Normalized []float64 // per round; NaN where undefined
	DeployedAt int       // round index the ISP deployed, -1 if never
}

// UtilityTrajectories extracts normalized utility trajectories for the
// given ISPs. The simulation must have run with RecordUtilities.
func UtilityTrajectories(res *sim.Result, nodes []int32) []Trajectory {
	out := make([]Trajectory, 0, len(nodes))
	for _, n := range nodes {
		tr := Trajectory{Node: n, DeployedAt: -1}
		base := res.PristineUtil[n]
		for r, rd := range res.Rounds {
			if rd.UtilBase == nil {
				tr.Normalized = append(tr.Normalized, math.NaN())
				continue
			}
			tr.Normalized = append(tr.Normalized, rd.UtilBase[n]/base)
			for _, d := range rd.Deployed {
				if d == n {
					tr.DeployedAt = r
				}
			}
		}
		out = append(out, tr)
	}
	return out
}

// DeployerMedians returns, per round, the median normalized utility and
// median normalized projected utility of the ISPs that deployed at the
// end of that round (Fig. 5). Rounds with no deployments yield NaN.
func DeployerMedians(res *sim.Result) (util, proj []float64) {
	for _, rd := range res.Rounds {
		var us, ps []float64
		if rd.UtilBase != nil {
			for _, i := range rd.Deployed {
				base := res.PristineUtil[i]
				if base > 0 {
					us = append(us, rd.UtilBase[i]/base)
					ps = append(ps, rd.UtilProj[i]/base)
				}
			}
		}
		util = append(util, median(us))
		proj = append(proj, median(ps))
	}
	return util, proj
}

// ProjectionAccuracy returns, for every ISP that deployed in some round
// r, its round-r projected utility divided by the utility it actually
// observed in round r+1 (Fig. 14). Ratios are sorted ascending (ready
// for a CDF). ISPs with zero realized utility are skipped.
func ProjectionAccuracy(res *sim.Result) []float64 {
	var ratios []float64
	for r := 0; r+1 < len(res.Rounds); r++ {
		rd, next := res.Rounds[r], res.Rounds[r+1]
		if rd.UtilProj == nil || next.UtilBase == nil {
			continue
		}
		for _, i := range rd.Deployed {
			realized := next.UtilBase[i]
			if realized > 0 {
				ratios = append(ratios, rd.UtilProj[i]/realized)
			}
		}
	}
	sort.Float64s(ratios)
	return ratios
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// TurnOffReport summarizes Section 7.3's scan for "buyer's remorse":
// secure ISPs that would profit from disabling S*BGP.
type TurnOffReport struct {
	SecureISPs int
	// WholeNetwork counts secure ISPs whose total utility rises when
	// they turn S*BGP off entirely (the paper's AS 4755 example).
	WholeNetwork int
	// PerDestination counts secure ISPs that gain for at least one
	// destination (paper: at least 10% of ISPs).
	PerDestination int
}

// ScanTurnOff evaluates every secure ISP's incentive to disable S*BGP in
// the given state under cfg's utility model (Section 7.3 runs it under
// Incoming; Theorem 6.2 predicts no whole-network gain under Outgoing).
// The scan is destination-major (sim.ScanFlips) and the per-ISP totals
// are summed in ascending destination order, so the report is the same
// at any cfg.Workers.
func ScanTurnOff(g *asgraph.Graph, secure []bool, cfg sim.Config) (TurnOffReport, error) {
	var rep TurnOffReport
	if len(secure) != g.N() {
		return rep, fmt.Errorf("metrics: secure bitmap has %d entries for %d ASes", len(secure), g.N())
	}
	var nodes []int32
	for _, i := range g.ISPs() {
		if secure[i] {
			nodes = append(nodes, i)
		}
	}
	rep.SecureISPs = len(nodes)
	// Indexed by node id; only the scanned ISPs' entries are touched.
	tb := make([]float64, g.N())
	tp := make([]float64, g.N())
	perDest := make([]bool, g.N())
	err := sim.ScanFlips(g, secure, cfg, nodes, func(_ int32, rows []sim.FlipRow) {
		for _, r := range rows {
			tb[r.Node] += r.Base
			tp[r.Node] += r.Proj
			if r.Proj > r.Base+1e-9 {
				perDest[r.Node] = true
			}
		}
	})
	if err != nil {
		return rep, err
	}
	for _, i := range nodes {
		if perDest[i] {
			rep.PerDestination++
		}
		if tp[i] > tb[i]+1e-9 {
			rep.WholeNetwork++
		}
	}
	return rep, nil
}
