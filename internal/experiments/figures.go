package experiments

import (
	"fmt"
	"math"

	"sbgp/internal/adopters"
	"sbgp/internal/asgraph"
	"sbgp/internal/metrics"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// Fig2 locates a DIAMOND case study in the running deployment: an ISP
// that lost traffic to a secure competitor and deployed to regain it,
// like the paper's AS 8359 vs AS 13789.
func Fig2(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	res := runOnce(opt, g, caseStudyConfig(g, opt))

	// Find the deployer with the largest relative loss at deployment
	// time: it deployed to regain, not to steal.
	bestNode, bestRound, bestLoss := int32(-1), -1, 0.0
	for r, rd := range res.Rounds {
		if rd.UtilBase == nil {
			continue
		}
		for _, i := range rd.Deployed {
			p := res.PristineUtil[i]
			if p <= 0 {
				continue
			}
			loss := 1 - rd.UtilBase[i]/p
			if loss > bestLoss {
				bestNode, bestRound, bestLoss = i, r, loss
			}
		}
	}
	fmt.Fprintf(opt.Out, "# Figure 2: diamond competition case study (N=%d)\n", g.N())
	if bestNode < 0 {
		fmt.Fprintf(opt.Out, "no regaining deployer found (all deployments were steals)\n")
		return nil
	}
	fmt.Fprintf(opt.Out, "AS%d (degree %d) had lost %s of its pristine utility by round %d, then deployed.\n",
		g.ASN(bestNode), g.Degree(bestNode), fmtPct(bestLoss), bestRound+1)
	tr := metrics.UtilityTrajectories(res, []int32{bestNode})[0]
	fmt.Fprintf(opt.Out, "round  normalized-utility\n")
	for r, v := range tr.Normalized {
		marker := ""
		if r == tr.DeployedAt {
			marker = "  <- deploys"
		}
		fmt.Fprintf(opt.Out, "%5d  %.3f%s\n", r+1, v, marker)
	}
	return nil
}

// Fig3 prints the number of ASes and ISPs that become secure in each
// round of the case study.
func Fig3(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	res := runOnce(opt, g, caseStudyConfig(g, opt))
	ases, isps := res.NewPerRound()
	fmt.Fprintf(opt.Out, "# Figure 3: newly secure ASes/ISPs per round (N=%d, θ=5%%, x=%s)\n",
		g.N(), fmtPct(opt.X))
	fmt.Fprintf(opt.Out, "initial: %d ASes (%d ISPs) seeded\n", res.Initial.SecureASes, res.Initial.SecureISPs)
	fmt.Fprintf(opt.Out, "round  newASes  newISPs\n")
	for r := range ases {
		fmt.Fprintf(opt.Out, "%5d  %7d  %7d\n", r+1, ases[r], isps[r])
	}
	fmt.Fprintf(opt.Out, "final: %s of ASes, %s of ISPs secure, %d rounds\n",
		fmtPct(res.SecureFractionASes()), fmtPct(res.SecureFractionISPs()), res.NumRounds())
	return nil
}

// Fig4 prints normalized utility trajectories for three characteristic
// ISPs of the case study: an early stealer, a late regainer, and an ISP
// that never deploys and loses traffic.
func Fig4(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	res := runOnce(opt, g, caseStudyConfig(g, opt))

	var stealer, regainer, holdout int32 = -1, -1, -1
	bestGain, bestLoss := 0.0, 0.0
	for r, rd := range res.Rounds {
		if rd.UtilProj == nil {
			continue
		}
		for _, i := range rd.Deployed {
			p := res.PristineUtil[i]
			if p <= 0 {
				continue
			}
			gain := rd.UtilProj[i]/p - 1
			if r == 0 && gain > bestGain {
				bestGain, stealer = gain, i
			}
			loss := 1 - rd.UtilBase[i]/p
			if r > 0 && loss > bestLoss {
				bestLoss, regainer = loss, i
			}
		}
	}
	last := res.Rounds[len(res.Rounds)-1]
	worst := 0.0
	for _, i := range res.ISPs {
		if res.FinalSecure[i] || last.UtilBase == nil {
			continue
		}
		p := res.PristineUtil[i]
		if p <= 0 {
			continue
		}
		if loss := 1 - last.UtilBase[i]/p; loss > worst {
			worst, holdout = loss, i
		}
	}

	fmt.Fprintf(opt.Out, "# Figure 4: normalized utility trajectories (N=%d)\n", g.N())
	var nodes []int32
	for _, n := range []int32{stealer, regainer, holdout} {
		if n >= 0 {
			nodes = append(nodes, n)
		}
	}
	trs := metrics.UtilityTrajectories(res, nodes)
	fmt.Fprintf(opt.Out, "round")
	for _, tr := range trs {
		fmt.Fprintf(opt.Out, "  AS%d(dep@%d)", g.ASN(tr.Node), tr.DeployedAt+1)
	}
	fmt.Fprintln(opt.Out)
	for r := 0; r < len(res.Rounds); r++ {
		fmt.Fprintf(opt.Out, "%5d", r+1)
		for _, tr := range trs {
			fmt.Fprintf(opt.Out, "  %12.3f", tr.Normalized[r])
		}
		fmt.Fprintln(opt.Out)
	}
	return nil
}

// Fig5 prints, per round, the median normalized utility and projected
// utility of the ISPs that deploy at the end of that round.
func Fig5(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	res := runOnce(opt, g, caseStudyConfig(g, opt))
	util, proj := metrics.DeployerMedians(res)
	fmt.Fprintf(opt.Out, "# Figure 5: median (projected) utility of deployers, normalized by pristine\n")
	fmt.Fprintf(opt.Out, "round  #deploying  med-utility  med-projected\n")
	for r := range util {
		fmt.Fprintf(opt.Out, "%5d  %10d  %11.3f  %13.3f\n",
			r+1, len(res.Rounds[r].Deployed), util[r], proj[r])
	}
	return nil
}

// Fig6 prints cumulative ISP adoption per degree bin per round.
func Fig6(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	res := runOnce(opt, g, caseStudyConfig(g, opt))
	edges := []int{1, 11, 26, 101}
	rows := metrics.AdoptionByDegree(g, res, edges)
	fmt.Fprintf(opt.Out, "# Figure 6: cumulative fraction of ISPs secure, by degree bin\n")
	fmt.Fprintf(opt.Out, "round  deg1-10  deg11-25  deg26-100  deg>100\n")
	// Count bin populations so empty bins render as "-" instead of 0.
	binTotal := make([]int, len(edges))
	for _, i := range res.ISPs {
		b := 0
		for b+1 < len(edges) && g.Degree(i) >= edges[b+1] {
			b++
		}
		binTotal[b]++
	}
	for r, row := range rows {
		fmt.Fprintf(opt.Out, "%5d", r)
		for b, f := range row {
			if binTotal[b] == 0 {
				fmt.Fprintf(opt.Out, "  %7s", "-")
			} else {
				fmt.Fprintf(opt.Out, "  %7.3f", f)
			}
		}
		fmt.Fprintln(opt.Out)
	}
	return nil
}

// Fig7 tracks secure-path growth: per round, the number of fully-secure
// source-destination paths and the longest secure path, showing how
// longer secure paths appear as deployment spreads.
func Fig7(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	cfg := caseStudyConfig(g, opt)
	res := runOnce(opt, g, cfg)
	states := statesPerRound(g, cfg, res)

	fmt.Fprintf(opt.Out, "# Figure 7: secure-path growth per round (N=%d)\n", g.N())
	fmt.Fprintf(opt.Out, "round  secure-paths  frac      longest\n")
	for r, sp := range metrics.ComputeSecurePathsStates(g, states, cfg.StubsBreakTies, cfg.Tiebreaker) {
		fmt.Fprintf(opt.Out, "%5d  %12.0f  %.4f  %7d\n",
			r, sp.Fraction*float64(g.N())*float64(g.N()-1), sp.Fraction, sp.Longest)
	}
	return nil
}

// statesPerRound reconstructs the secure bitmap at the start of each
// round (index 0 = initial seeding) plus the final state.
func statesPerRound(g *asgraph.Graph, cfg sim.Config, res *sim.Result) [][]bool {
	secure := make([]bool, g.N())
	for _, a := range cfg.EarlyAdopters {
		secure[a] = true
	}
	for _, a := range cfg.EarlyAdopters {
		if g.IsISP(a) {
			for _, c := range g.Customers(a) {
				if g.IsStub(c) {
					secure[c] = true
				}
			}
		}
	}
	states := [][]bool{append([]bool(nil), secure...)}
	for _, rd := range res.Rounds {
		for _, i := range rd.Deployed {
			secure[i] = true
		}
		for _, i := range rd.Disabled {
			secure[i] = false
		}
		for _, s := range rd.NewSimplexStubs {
			secure[s] = true
		}
		states = append(states, append([]bool(nil), secure...))
	}
	return states
}

// Fig8 sweeps the deployment threshold θ for each early-adopter set and
// prints the final fraction of secure ASes (a) and ISPs (b).
func Fig8(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	sets := adopterSets(g, opt.Seed)
	fmt.Fprintf(opt.Out, "# Figure 8: secure fraction vs θ per early-adopter set (N=%d, x=%s)\n",
		g.N(), fmtPct(opt.X))
	fmt.Fprintf(opt.Out, "%-14s %-6s %-10s %-10s %s\n", "adopters", "theta", "frac-ASes", "frac-ISPs", "rounds")
	for _, set := range sets {
		for _, th := range thetas {
			cfg := sim.Config{
				Model:          sim.Outgoing,
				Theta:          th,
				EarlyAdopters:  set.Nodes,
				StubsBreakTies: true,
				Tiebreaker:     routing.HashTiebreaker{Seed: uint64(opt.Seed)},
				Workers:        opt.Workers,
			}
			res := runOnce(opt, g, cfg)
			fmt.Fprintf(opt.Out, "%-14s %-6.2f %-10s %-10s %d\n",
				set.Name, th, fmtPct(res.SecureFractionASes()),
				fmtPct(res.SecureFractionISPs()), res.NumRounds())
		}
	}
	return nil
}

// Fig9 sweeps θ for the case-study adopter set and reports the fraction
// of fully-secure paths against f².
func Fig9(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	set := adopters.CPsPlusTopISPs(g, 5)
	tb := routing.HashTiebreaker{Seed: uint64(opt.Seed)}
	fmt.Fprintf(opt.Out, "# Figure 9: fraction of secure src-dst paths vs θ (adopters=5cps+top5)\n")
	fmt.Fprintf(opt.Out, "%-6s %-12s %-8s %-8s %s\n", "theta", "secure-paths", "f", "f^2", "paths/f^2")
	finals := make([][]bool, len(thetas))
	for k, th := range thetas {
		cfg := sim.Config{
			Model:          sim.Outgoing,
			Theta:          th,
			EarlyAdopters:  set,
			StubsBreakTies: true,
			Tiebreaker:     tb,
			Workers:        opt.Workers,
		}
		finals[k] = runOnce(opt, g, cfg).FinalSecure
	}
	for k, sp := range metrics.ComputeSecurePathsStates(g, finals, true, tb) {
		th := thetas[k]
		f2 := sp.SecureASFraction * sp.SecureASFraction
		ratio := math.NaN()
		if f2 > 0 {
			ratio = sp.Fraction / f2
		}
		fmt.Fprintf(opt.Out, "%-6.2f %-12.4f %-8.3f %-8.4f %.3f\n",
			th, sp.Fraction, sp.SecureASFraction, f2, ratio)
	}
	return nil
}

// Fig10 prints the tiebreak-set size distribution.
func Fig10(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	d := metrics.ComputeTiebreakDist(g)
	fmt.Fprintf(opt.Out, "# Figure 10: tiebreak-set sizes over all src-dst pairs (N=%d)\n", g.N())
	fmt.Fprintf(opt.Out, "size  pairs\n")
	for k := 1; k < len(d.Counts); k++ {
		if d.Counts[k] > 0 {
			fmt.Fprintf(opt.Out, "%4d  %d\n", k, d.Counts[k])
		}
	}
	fmt.Fprintf(opt.Out, "mean: all=%.3f isps=%.3f stubs=%.3f; multi-path pairs: all=%s isps=%s\n",
		d.MeanAll, d.MeanISPs, d.MeanStubs, fmtPct(d.FracMultiAll), fmtPct(d.FracMultiISPs))
	return nil
}

// Fig11 compares deployment with stubs breaking vs ignoring security.
func Fig11(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	set := adopters.CPsPlusTopISPs(g, 5)
	fmt.Fprintf(opt.Out, "# Figure 11: sensitivity to stubs breaking ties (adopters=5cps+top5)\n")
	fmt.Fprintf(opt.Out, "%-6s %-18s %s\n", "theta", "stubs-break:frac", "stubs-ignore:frac")
	for _, th := range thetas {
		var frac [2]float64
		for k, sbt := range []bool{true, false} {
			cfg := sim.Config{
				Model:          sim.Outgoing,
				Theta:          th,
				EarlyAdopters:  set,
				StubsBreakTies: sbt,
				Tiebreaker:     routing.HashTiebreaker{Seed: uint64(opt.Seed)},
				Workers:        opt.Workers,
			}
			frac[k] = runOnce(opt, g, cfg).SecureFractionASes()
		}
		fmt.Fprintf(opt.Out, "%-6.2f %-18s %s\n", th, fmtPct(frac[0]), fmtPct(frac[1]))
	}
	return nil
}

// Fig12 compares the five CPs vs the top-5 Tier-1s as early adopters
// across CP traffic shares x, on the base and augmented graphs.
func Fig12(opt Options) error {
	opt = opt.withDefaults()
	fmt.Fprintf(opt.Out, "# Figure 12: CPs vs Tier-1s as early adopters (θ=5%%)\n")
	fmt.Fprintf(opt.Out, "# Under the flip-only projection CP-only seeding cannot bootstrap (no\n")
	fmt.Fprintf(opt.Out, "# stub starts secure); the bundled-stub columns use ProjectStubUpgrades,\n")
	fmt.Fprintf(opt.Out, "# where CP traffic volume drives deployment as in the paper's Figure 12.\n")
	fmt.Fprintf(opt.Out, "%-10s %-6s %-10s %-10s %-14s %s\n",
		"graph", "x", "5cps", "top5", "5cps+bundle", "top5+bundle")
	// Store graphs are shared and immutable, so instead of re-weighting
	// one graph per x (the old SetCPTrafficFraction-in-place loop) each
	// (variant, x) cell fetches its own graph; structure and node
	// indices are identical across x, only the traffic weights differ.
	for _, row := range []struct {
		name    string
		variant string
	}{{"base", variantBase}, {"augmented", variantAug}} {
		for _, x := range []float64{0.10, 0.20, 0.33, 0.50} {
			g := graphAt(opt, row.variant, x)
			var frac [4]float64
			for k := 0; k < 4; k++ {
				var set []int32
				if k%2 == 0 {
					set = adopters.ContentProviders(g)
				} else {
					set = adopters.TopISPs(g, 5)
				}
				cfg := sim.Config{
					Model:               sim.Outgoing,
					Theta:               0.05,
					EarlyAdopters:       set,
					StubsBreakTies:      true,
					ProjectStubUpgrades: k >= 2,
					Tiebreaker:          routing.HashTiebreaker{Seed: uint64(opt.Seed)},
					Workers:             opt.Workers,
				}
				frac[k] = runOnce(opt, g, cfg).SecureFractionASes()
			}
			fmt.Fprintf(opt.Out, "%-10s %-6.2f %-10s %-10s %-14s %s\n",
				row.name, x, fmtPct(frac[0]), fmtPct(frac[1]), fmtPct(frac[2]), fmtPct(frac[3]))
		}
	}
	return nil
}

// Fig14 reports the accuracy of projected utility: the distribution of
// projected/realized ratios for every ISP that deployed.
func Fig14(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	cfg := caseStudyConfig(g, opt)
	cfg.Theta = 0
	res := runOnce(opt, g, cfg)
	ratios := metrics.ProjectionAccuracy(res)
	fmt.Fprintf(opt.Out, "# Figure 14: projected/realized utility ratios (θ=0, %d deployers)\n", len(ratios))
	if len(ratios) == 0 {
		fmt.Fprintln(opt.Out, "no deployments to measure")
		return nil
	}
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.80, 0.90, 0.95, 1.00} {
		idx := int(q*float64(len(ratios))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ratios) {
			idx = len(ratios) - 1
		}
		fmt.Fprintf(opt.Out, "p%-3.0f  %.4f\n", q*100, ratios[idx])
	}
	within := 0
	for _, r := range ratios {
		if r <= 1.02 && r >= 0.98 {
			within++
		}
	}
	fmt.Fprintf(opt.Out, "within 2%% of realized: %s (paper: 80%% overestimate by <2%%)\n",
		fmtPct(float64(within)/float64(len(ratios))))
	return nil
}
