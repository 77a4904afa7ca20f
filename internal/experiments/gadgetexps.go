package experiments

import (
	"fmt"
	"strings"

	"sbgp/internal/gadgets"
	"sbgp/internal/metrics"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// Fig13 demonstrates the buyer's-remorse scenario: an ISP whose
// incoming utility rises when it disables S*BGP (the paper's AS 4755).
func Fig13(opt Options) error {
	opt = opt.withDefaults()
	br := gadgets.NewBuyersRemorse(24, 821) // the paper's 24 stubs, wCP=821
	secure := br.SecureBitmap()
	cfg := sim.Config{
		Model:          sim.Incoming,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
		Workers:        opt.Workers,
	}
	base, proj, err := sim.EvaluateFlip(br.Graph, secure, cfg, br.N)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.Out, "# Figure 13: buyer's remorse (incoming utility)\n")
	fmt.Fprintf(opt.Out, "gadget: CP(w=821) -> provider P -> ISP N -> 24 stubs; alternative via N's customer C\n")
	fmt.Fprintf(opt.Out, "N's incoming utility while secure:  %.0f\n", base)
	fmt.Fprintf(opt.Out, "N's incoming utility if turned off: %.0f (%+.1f%%)\n",
		proj, 100*(proj/base-1))
	bd, pd, err := sim.EvaluateFlipPerDest(br.Graph, secure, cfg, br.N)
	if err != nil {
		return err
	}
	gains := 0
	for d := range bd {
		if pd[d] > bd[d] {
			gains++
		}
	}
	fmt.Fprintf(opt.Out, "destinations with a turn-off gain: %d (the stubs + N itself)\n", gains)

	// Theorem 6.2 cross-check: outgoing utility shows no such incentive.
	cfg.Model = sim.Outgoing
	ob, op, err := sim.EvaluateFlip(br.Graph, secure, cfg, br.N)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.Out, "outgoing-utility cross-check: %.0f -> %.0f (no incentive, per Theorem 6.2)\n", ob, op)
	return nil
}

// Fig15 demonstrates the Appendix B attack enabled by preferring
// partially-secure paths.
func Fig15(opt Options) error {
	opt = opt.withDefaults()
	a := gadgets.NewPartialAttack()
	fmt.Fprintf(opt.Out, "# Figure 15: partially-secure path preference attack\n")
	fmt.Fprintf(opt.Out, "false path (attacker m lies about reaching v): %s\n", strings.Join(a.FalsePath, "->"))
	fmt.Fprintf(opt.Out, "true path:                                     %s\n", strings.Join(a.TruePath, "->"))
	full := a.ChooseFullSecurityRule()
	part := a.ChoosePartialPreferenceRule()
	fmt.Fprintf(opt.Out, "paper's rule (only fully-secure preferred): p chooses %s (hijacked=%v)\n",
		strings.Join(full, "->"), a.Hijacked(full))
	fmt.Fprintf(opt.Out, "partial-preference rule:                    p chooses %s (hijacked=%v)\n",
		strings.Join(part, "->"), a.Hijacked(part))
	return nil
}

// Fig16 runs the Theorem 6.1 set-cover reduction and shows that the
// deployment outcome counts exactly 2k+1+covered ASes.
func Fig16(opt Options) error {
	opt = opt.withDefaults()
	sets := [][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}}
	sc, err := gadgets.NewSetCover(6, sets)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.Out, "# Figure 16 / Theorem 6.1: set-cover reduction\n")
	fmt.Fprintf(opt.Out, "universe {0..5}; sets S0=%v S1=%v S2=%v S3=%v\n", sets[0], sets[1], sets[2], sets[3])
	fmt.Fprintf(opt.Out, "%-16s %-10s %-10s %s\n", "early adopters", "covered", "secure", "predicted")
	for _, chosen := range [][]int{{0, 2}, {0, 1}, {1, 3}, {3}} {
		cfg := sim.Config{
			Model:               sim.Outgoing,
			Theta:               0,
			EarlyAdopters:       sc.Adopters(chosen),
			StubsBreakTies:      true,
			ProjectStubUpgrades: true,
			Tiebreaker:          routing.LowestIndex{},
			Workers:             opt.Workers,
		}
		res := runOnce(opt, sc.Graph, cfg)
		fmt.Fprintf(opt.Out, "%-16s %-10d %-10d %d\n",
			fmt.Sprintf("%v", chosen), len(sc.Covered(chosen)), res.Final.SecureASes, sc.ExpectedSecure(chosen))
	}
	return nil
}

// Fig17 runs the oscillator gadget and reports the detected cycle.
func Fig17(opt Options) error {
	opt = opt.withDefaults()
	o := gadgets.NewOscillator()
	cfg := sim.Config{
		Model:          sim.Incoming,
		Theta:          0,
		EarlyAdopters:  o.EarlyAdopters,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
		MaxRounds:      40,
		Workers:        opt.Workers,
	}
	res := runOnce(opt, o.Graph, cfg)
	fmt.Fprintf(opt.Out, "# Figure 17 / Appendix F: deployment oscillation (incoming utility)\n")
	fmt.Fprintf(opt.Out, "oscillated=%v cycle-start=round %d period=%d\n",
		res.Oscillated, res.CycleStart, res.CycleLen)
	for r, rd := range res.Rounds {
		var acts []string
		for _, i := range rd.Deployed {
			acts = append(acts, fmt.Sprintf("AS%d on", o.Graph.ASN(i)))
		}
		for _, i := range rd.Disabled {
			acts = append(acts, fmt.Sprintf("AS%d off", o.Graph.ASN(i)))
		}
		fmt.Fprintf(opt.Out, "round %d: %s\n", r+1, strings.Join(acts, ", "))
	}
	fmt.Fprintf(opt.Out, "(the outgoing utility model provably terminates on the same graph)\n")
	return nil
}

// Sec73 scans the final state of an incoming-utility deployment run for
// ISPs with incentives to disable S*BGP, whole-network or per
// destination.
func Sec73(opt Options) error {
	opt = opt.withDefaults()
	g := baseGraph(opt)
	cfg := caseStudyConfig(g, opt)
	cfg.Model = sim.Incoming
	cfg.RecordUtilities = false
	res := runOnce(opt, g, cfg)
	fmt.Fprintf(opt.Out, "# Section 7.3: turn-off incentives in the final state (incoming utility)\n")
	fmt.Fprintf(opt.Out, "deployment: %s ASes secure after %d rounds (oscillated=%v)\n",
		fmtPct(res.SecureFractionASes()), res.NumRounds(), res.Oscillated)
	// The scan stripes destinations over cfg.Workers goroutines: claim
	// them from the store's budget, as a simulation does.
	cfg.Workers = opt.store.acquireWorkers(cfg.Workers)
	rep, err := metrics.ScanTurnOff(g, res.FinalSecure, cfg)
	opt.store.budget.release(cfg.Workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(opt.Out, "secure ISPs:                 %d\n", rep.SecureISPs)
	fmt.Fprintf(opt.Out, "whole-network turn-off gain: %d (%s)\n",
		rep.WholeNetwork, fmtPct(float64(rep.WholeNetwork)/float64(max(rep.SecureISPs, 1))))
	fmt.Fprintf(opt.Out, "per-destination gain:        %d (%s; paper: at least 10%%)\n",
		rep.PerDestination, fmtPct(float64(rep.PerDestination)/float64(max(rep.SecureISPs, 1))))
	return nil
}
