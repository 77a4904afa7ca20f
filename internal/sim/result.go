package sim

import (
	"fmt"
	"strings"

	"sbgp/internal/asgraph"
)

// Counts summarizes how much of the graph is secure at some point of the
// deployment process, by AS class.
type Counts struct {
	SecureASes  int // all secure ASes (ISPs + simplex stubs + CPs)
	SecureISPs  int
	SecureStubs int
	SecureCPs   int
}

// Round records what happened in one round of the deployment process.
// Utilities are measured in the state at the *start* of the round; the
// Deployed/Disabled actions are the flips those utilities triggered at
// the round's end.
type Round struct {
	// Deployed lists ISPs that turned S*BGP on at the end of this round.
	Deployed []int32
	// Disabled lists ISPs that turned S*BGP off (incoming model only).
	Disabled []int32
	// NewSimplexStubs lists stubs upgraded to simplex S*BGP by their
	// newly secure providers at the end of this round.
	NewSimplexStubs []int32
	// After counts the secure population after the round's flips.
	After Counts
	// UtilBase and UtilProj hold, when Config.RecordUtilities is set,
	// every AS's utility and projected utility in this round's starting
	// state, indexed by node. Entries are NaN for ASes that are not
	// deployment candidates (stubs, CPs, and — under outgoing utility —
	// already-secure ISPs, which never want to flip by Theorem 6.2).
	UtilBase []float64
	UtilProj []float64
	// Stats instruments this round's utility computation; nil unless
	// Config.RecordStats is set.
	Stats *RoundStats
}

// Result is the outcome of a deployment simulation.
type Result struct {
	// ISPs lists all ISP node indices (the deployment decision makers).
	ISPs []int32
	// PristineUtil is every ISP's utility in the all-insecure state,
	// before even the early adopters deployed — the "starting utility"
	// the paper normalizes by (Figure 4). Indexed by node; NaN for
	// non-ISPs.
	PristineUtil []float64
	// PristineStats instruments the pristine-baseline utility pass (the
	// computation behind PristineUtil); nil unless Config.RecordStats is
	// set. It is where a simulation pays its cold static work, so the
	// static cache/disk-tier counters of a run's very first pass show up
	// here rather than in any Round's Stats.
	PristineStats *RoundStats
	// Initial counts the secure population after seeding the early
	// adopters and their simplex stubs, before any round ran.
	Initial Counts
	// Rounds records each simulation round in order.
	Rounds []Round
	// FinalSecure is the final deployment state, indexed by node.
	FinalSecure []bool
	// Final counts the secure population in the final state.
	Final Counts
	// Stable reports whether the process reached a state where no ISP
	// wants to change its action.
	Stable bool
	// Oscillated reports that the process revisited an earlier state
	// (possible only under incoming utility, Theorem 7.1). CycleStart is
	// the round index of the state's first occurrence and CycleLen the
	// period.
	Oscillated bool
	CycleStart int
	CycleLen   int
}

// NumRounds returns how many rounds ran.
func (r *Result) NumRounds() int { return len(r.Rounds) }

// SecureFractionASes returns the final fraction of all ASes secure; 0
// for an empty graph.
func (r *Result) SecureFractionASes() float64 {
	if len(r.FinalSecure) == 0 {
		return 0
	}
	return float64(r.Final.SecureASes) / float64(len(r.FinalSecure))
}

// SecureFractionISPs returns the final fraction of ISPs secure.
func (r *Result) SecureFractionISPs() float64 {
	if len(r.ISPs) == 0 {
		return 0
	}
	return float64(r.Final.SecureISPs) / float64(len(r.ISPs))
}

// NewPerRound returns the number of ASes and ISPs that became secure in
// each round (the paper's Figure 3 series).
func (r *Result) NewPerRound() (ases, isps []int) {
	prevA, prevI := r.Initial.SecureASes, r.Initial.SecureISPs
	for _, rd := range r.Rounds {
		ases = append(ases, rd.After.SecureASes-prevA)
		isps = append(isps, rd.After.SecureISPs-prevI)
		prevA, prevI = rd.After.SecureASes, rd.After.SecureISPs
	}
	return ases, isps
}

// Summary renders a human-readable digest of the run.
func (r *Result) Summary(g *asgraph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rounds: %d, stable: %v", r.NumRounds(), r.Stable)
	if r.Oscillated {
		fmt.Fprintf(&b, ", OSCILLATION (first state at round %d, period %d)", r.CycleStart, r.CycleLen)
	}
	fmt.Fprintf(&b, "\nsecure ASes: %d/%d (%.1f%%)", r.Final.SecureASes, g.N(),
		100*r.SecureFractionASes())
	fmt.Fprintf(&b, "\nsecure ISPs: %d/%d (%.1f%%)", r.Final.SecureISPs, len(r.ISPs),
		100*r.SecureFractionISPs())
	fmt.Fprintf(&b, "\nsecure stubs: %d, secure CPs: %d\n", r.Final.SecureStubs, r.Final.SecureCPs)
	return b.String()
}

func countSecure(g *asgraph.Graph, secure []bool) Counts {
	var c Counts
	for i, s := range secure {
		if !s {
			continue
		}
		c.SecureASes++
		switch g.Class(int32(i)) {
		case asgraph.ISP:
			c.SecureISPs++
		case asgraph.Stub:
			c.SecureStubs++
		case asgraph.ContentProvider:
			c.SecureCPs++
		}
	}
	return c
}
