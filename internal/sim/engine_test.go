package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/routing"
)

// diamondGraph builds the paper's Figure 2 competition scenario:
//
//	    T(1)          Tier-1, traffic source (weight 10), early adopter
//	   /    \
//	A(2)    B(3)      competing ISPs
//	   \    /
//	    s(4)          multihomed stub
//
// With the LowestIndex tiebreak T prefers A absent security.
func diamondGraph(t *testing.T) *asgraph.Graph {
	t.Helper()
	return asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		SetWeight(1, 10).
		SetClass(1, asgraph.ISP). // T has customers, ISP anyway; explicit for clarity
		MustBuild()
}

func nodeOf(t *testing.T, g *asgraph.Graph, asn int32) int32 {
	t.Helper()
	i := g.Index(asn)
	if i < 0 {
		t.Fatalf("ASN %d missing", asn)
	}
	return i
}

func TestDiamondCompetitorDeploysToSteal(t *testing.T) {
	g := diamondGraph(t)
	iT, iA, iB, iS := nodeOf(t, g, 1), nodeOf(t, g, 2), nodeOf(t, g, 3), nodeOf(t, g, 4)

	// Early adopters: T and B. B's stub s gets simplex S*BGP at init, so
	// the secure path T-B-s exists and T's traffic deserts tie-break
	// favorite A. A should deploy in round 1 to steal it back.
	cfg := Config{
		Model:           Outgoing,
		Theta:           0.05,
		EarlyAdopters:   []int32{iT, iB},
		StubsBreakTies:  true,
		Tiebreaker:      routing.LowestIndex{},
		Workers:         2,
		RecordUtilities: true,
	}
	res := MustNew(g, cfg).Run()

	if res.Initial.SecureStubs != 1 {
		t.Fatalf("initial secure stubs = %d, want 1 (B's customer)", res.Initial.SecureStubs)
	}
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds ran")
	}
	if got := res.Rounds[0].Deployed; len(got) != 1 || got[0] != iA {
		t.Fatalf("round 1 deployed = %v, want [A=%d]", got, iA)
	}
	if !res.Stable {
		t.Error("process should stabilize")
	}
	if !res.FinalSecure[iA] || !res.FinalSecure[iB] || !res.FinalSecure[iT] || !res.FinalSecure[iS] {
		t.Error("all four ASes should end secure")
	}

	// A's projected utility in round 1 must reflect stealing T's 10
	// units, versus a base of 0.
	if b := res.Rounds[0].UtilBase[iA]; b != 0 {
		t.Errorf("A base utility = %v, want 0 (lost the traffic)", b)
	}
	if p := res.Rounds[0].UtilProj[iA]; p != 10 {
		t.Errorf("A projected utility = %v, want 10", p)
	}
	// B's base utility in round 1 reflects holding T's traffic.
	if b := res.Rounds[0].UtilBase[iB]; b != 10 {
		t.Errorf("B base utility = %v, want 10", b)
	}
}

func TestDiamondProjectionAccurateWhenSoleMover(t *testing.T) {
	g := diamondGraph(t)
	iT, iA, iB := nodeOf(t, g, 1), nodeOf(t, g, 2), nodeOf(t, g, 3)
	cfg := Config{
		Model:           Outgoing,
		Theta:           0.05,
		EarlyAdopters:   []int32{iT, iB},
		StubsBreakTies:  true,
		Tiebreaker:      routing.LowestIndex{},
		RecordUtilities: true,
	}
	res := MustNew(g, cfg).Run()
	if len(res.Rounds) < 2 {
		t.Fatalf("want >= 2 rounds, got %d", len(res.Rounds))
	}
	// A was the only mover in round 1, so its realized utility in round
	// 2 must equal its round-1 projection exactly (Section 8.1).
	proj := res.Rounds[0].UtilProj[iA]
	got := res.Rounds[1].UtilBase[iA]
	if math.Abs(proj-got) > 1e-9 {
		t.Errorf("projection %v != realized %v", proj, got)
	}
}

func TestSimultaneousMoversOvershoot(t *testing.T) {
	// Three-way competition: stub s homed to A, B and early adopter E;
	// both A and B project stealing T's traffic from E and deploy in the
	// same round, but only the tie-break winner (A) realizes the gain —
	// the projection error of Section 8.1 / Figure 14.
	g := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).AddCustomer(1, 5).
		AddCustomer(2, 4).AddCustomer(3, 4).AddCustomer(5, 4).
		SetWeight(1, 10).
		MustBuild()
	iT, iA, iB, iE := nodeOf(t, g, 1), nodeOf(t, g, 2), nodeOf(t, g, 3), nodeOf(t, g, 5)
	cfg := Config{
		Model:           Outgoing,
		Theta:           0.05,
		EarlyAdopters:   []int32{iT, iE},
		StubsBreakTies:  true,
		Tiebreaker:      routing.LowestIndex{},
		RecordUtilities: true,
	}
	res := MustNew(g, cfg).Run()
	if len(res.Rounds) == 0 {
		t.Fatal("no rounds")
	}
	dep := res.Rounds[0].Deployed
	if len(dep) != 2 {
		t.Fatalf("round 1 deployed %v, want both A and B", dep)
	}
	// Both projected 10; A (lower index) realizes it, B realizes 0.
	if p := res.Rounds[0].UtilProj[iB]; p != 10 {
		t.Errorf("B projected %v, want 10", p)
	}
	if len(res.Rounds) >= 2 {
		if b := res.Rounds[1].UtilBase[iB]; b != 0 {
			t.Errorf("B realized %v, want 0 (lost the simultaneous race)", b)
		}
		if a := res.Rounds[1].UtilBase[iA]; a != 10 {
			t.Errorf("A realized %v, want 10", a)
		}
	}
}

func TestThetaBlocksDeployment(t *testing.T) {
	g := diamondGraph(t)
	iT, iB := nodeOf(t, g, 1), nodeOf(t, g, 3)
	// With base utility 0 for A any positive projection clears any θ, so
	// give A standing utility: a private stub customer.
	// Rebuild with an extra stub under A.
	g2 := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		AddCustomer(2, 6). // A's private stub: T routes to 6 via A only
		SetWeight(1, 10).
		MustBuild()
	iT, iB = nodeOf(t, g2, 1), nodeOf(t, g2, 3)
	iA := nodeOf(t, g2, 2)

	// A's base utility: toward its private stub 6 it transits T (10),
	// B (1) and s (1) = 12, plus AS 6's traffic toward s (1): total 13.
	// Deploying steals T's 10 units toward s: projection 23, ratio
	// 23/13 ≈ 1.77, so θ < 0.769 deploys and θ above blocks.
	for _, tc := range []struct {
		theta  float64
		deploy bool
	}{
		{0.5, true},
		{0.75, true},
		{0.78, false},
		{2.0, false},
	} {
		cfg := Config{
			Model:          Outgoing,
			Theta:          tc.theta,
			EarlyAdopters:  []int32{iT, iB},
			StubsBreakTies: true,
			Tiebreaker:     routing.LowestIndex{},
		}
		res := MustNew(g2, cfg).Run()
		got := res.FinalSecure[iA]
		if got != tc.deploy {
			t.Errorf("θ=%v: A secure = %v, want %v", tc.theta, got, tc.deploy)
		}
	}
}

func TestSimplexStubUpgrade(t *testing.T) {
	g := diamondGraph(t)
	iT, iA, iB, iS := nodeOf(t, g, 1), nodeOf(t, g, 2), nodeOf(t, g, 3), nodeOf(t, g, 4)
	cfg := Config{
		Model:          Outgoing,
		Theta:          0.05,
		EarlyAdopters:  []int32{iT, iB},
		StubsBreakTies: true,
		Tiebreaker:     routing.LowestIndex{},
	}
	res := MustNew(g, cfg).Run()
	_ = iS
	// s was already simplex (B early adopter); A deploying re-upgrades
	// nothing, so NewSimplexStubs must be empty in round 1.
	if len(res.Rounds[0].NewSimplexStubs) != 0 {
		t.Errorf("NewSimplexStubs = %v, want none", res.Rounds[0].NewSimplexStubs)
	}
	_, _ = iA, iB

	// Now give A a private stub and make only T+B early adopters: when A
	// deploys, its stub must be upgraded.
	g2 := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		AddCustomer(2, 6).
		SetWeight(1, 10).
		MustBuild()
	i6 := nodeOf(t, g2, 6)
	cfg2 := Config{
		Model:          Outgoing,
		Theta:          0.05,
		EarlyAdopters:  []int32{nodeOf(t, g2, 1), nodeOf(t, g2, 3)},
		StubsBreakTies: true,
		Tiebreaker:     routing.LowestIndex{},
	}
	res2 := MustNew(g2, cfg2).Run()
	found := false
	for _, rd := range res2.Rounds {
		for _, s := range rd.NewSimplexStubs {
			if s == i6 {
				found = true
			}
		}
	}
	if !found {
		t.Error("A's private stub was never upgraded to simplex")
	}
	if !res2.FinalSecure[i6] {
		t.Error("stub 6 should end secure")
	}
}

func TestCPsOnlyDeployAsEarlyAdopters(t *testing.T) {
	// A CP with every incentive in the world must stay insecure unless
	// seeded as an early adopter.
	g := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		AddPeer(5, 1).
		MarkCP(5).
		MustBuild()
	g.SetCPTrafficFraction(0.3)
	iCP := nodeOf(t, g, 5)
	cfg := Config{
		Model:          Outgoing,
		Theta:          0,
		EarlyAdopters:  []int32{nodeOf(t, g, 1), nodeOf(t, g, 3)},
		StubsBreakTies: true,
		Tiebreaker:     routing.LowestIndex{},
	}
	res := MustNew(g, cfg).Run()
	if res.FinalSecure[iCP] {
		t.Error("CP deployed without being an early adopter")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := asgraphtest.Random(rng, 40, 0.10, 0.08, 0.2)
	isps := g.Nodes(asgraph.ISP)
	if len(isps) == 0 {
		t.Skip("random graph has no ISPs")
	}
	cfg := Config{
		Model:          Outgoing,
		Theta:          0.02,
		EarlyAdopters:  isps[:1],
		StubsBreakTies: true,
		Workers:        3,
	}
	r1 := MustNew(g, cfg).Run()
	r2 := MustNew(g, cfg).Run()
	if r1.NumRounds() != r2.NumRounds() {
		t.Fatalf("rounds differ: %d vs %d", r1.NumRounds(), r2.NumRounds())
	}
	for i := range r1.FinalSecure {
		if r1.FinalSecure[i] != r2.FinalSecure[i] {
			t.Fatalf("final state differs at node %d", i)
		}
	}
}

// TestTheorem62NoTurnOffIncentiveOutgoing property-tests Theorem 6.2: in
// the outgoing utility model, a secure node never gains by turning off
// S*BGP, over random graphs and random states.
func TestTheorem62NoTurnOffIncentiveOutgoing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		g := asgraphtest.Random(rng, 5+rng.Intn(20), 0.13, 0.1, 0.2)
		secure := make([]bool, g.N())
		for i := range secure {
			secure[i] = rng.Float64() < 0.5
		}
		cfg := Config{Model: Outgoing, StubsBreakTies: true, Tiebreaker: routing.HashTiebreaker{Seed: uint64(trial)}}
		for i := int32(0); i < int32(g.N()); i++ {
			if !g.IsISP(i) || !secure[i] {
				continue
			}
			base, proj, err := EvaluateFlip(g, secure, cfg, i)
			if err != nil {
				t.Fatal(err)
			}
			if proj > base+1e-9 {
				t.Fatalf("trial %d: secure ISP %d gains %v > %v by turning off under outgoing utility",
					trial, i, proj, base)
			}
		}
	}
}

// TestTurnOnNeverHurtsOutgoing checks the flip side used by the C.4
// optimizations: turning on can only help under outgoing utility.
func TestTurnOnNeverHurtsOutgoing(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		g := asgraphtest.Random(rng, 5+rng.Intn(20), 0.13, 0.1, 0.2)
		secure := make([]bool, g.N())
		for i := range secure {
			secure[i] = rng.Float64() < 0.5
		}
		cfg := Config{Model: Outgoing, StubsBreakTies: true, Tiebreaker: routing.HashTiebreaker{Seed: uint64(trial)}}
		for i := int32(0); i < int32(g.N()); i++ {
			if !g.IsISP(i) || secure[i] {
				continue
			}
			base, proj, err := EvaluateFlip(g, secure, cfg, i)
			if err != nil {
				t.Fatal(err)
			}
			if proj < base-1e-9 {
				t.Fatalf("trial %d: ISP %d loses utility (%v -> %v) by deploying under outgoing utility",
					trial, i, base, proj)
			}
		}
	}
}

// TestSkipRulesSound verifies the Appendix C.4 skip rules never change
// outcomes: projected utilities computed with the rules must equal a
// brute-force recomputation without them, in every StubsBreakTies ×
// ProjectStubUpgrades corner. Under ProjectStubUpgrades a deploying ISP
// brings its insecure stub customers along, in the brute force as in
// the projection. Each corner's trials must fire every skip rule and
// find some projection unchanged, or the comparison would not exercise
// the rules at all (the N=2,500 games never fire the dest-flip rule).
func TestSkipRulesSound(t *testing.T) {
	for _, corner := range []struct{ stubsBreakTies, projectStubs bool }{
		{true, false}, {true, true}, {false, false}, {false, true},
	} {
		rng := rand.New(rand.NewSource(41))
		var sum RoundStats
		for trial := 0; trial < 12; trial++ {
			g := asgraphtest.Random(rng, 5+rng.Intn(15), 0.15, 0.1, 0.25)
			secure := make([]bool, g.N())
			for i := range secure {
				secure[i] = rng.Float64() < 0.5
			}
			for _, model := range []UtilityModel{Outgoing, Incoming} {
				cfg := Config{Model: model, StubsBreakTies: corner.stubsBreakTies,
					ProjectStubUpgrades: corner.projectStubs, Tiebreaker: routing.HashTiebreaker{Seed: 7}}
				for i := int32(0); i < int32(g.N()); i++ {
					if !g.IsISP(i) {
						continue
					}
					_, proj, err := EvaluateFlip(g, secure, cfg, i)
					if err != nil {
						t.Fatal(err)
					}
					// Brute force: utility of i in the fully flipped state.
					flipped := append([]bool(nil), secure...)
					flipped[i] = !flipped[i]
					if cfg.ProjectStubUpgrades && !secure[i] {
						for _, s := range g.Customers(i) {
							if g.IsStub(s) {
								flipped[s] = true
							}
						}
					}
					u, err := Utilities(g, flipped, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(u[i]-proj) > 1e-6 {
						t.Fatalf("%+v trial %d model %v node %d: skip-rule projection %v != brute force %v",
							corner, trial, model, i, proj, u[i])
					}
				}
				cfg.RecordStats = true
				_, _, st, err := MustNew(g, cfg).RoundUtilities(secure, true)
				if err != nil {
					t.Fatal(err)
				}
				sum.SkipZeroUtil += st.SkipZeroUtil
				sum.SkipDestFlip += st.SkipDestFlip
				sum.SkipInsecureDest += st.SkipInsecureDest
				sum.SkipTurnOff += st.SkipTurnOff
				sum.SkipTurnOn += st.SkipTurnOn
				sum.ProjUnchanged += st.ProjUnchanged
			}
		}
		for name, v := range map[string]int64{
			"SkipZeroUtil": sum.SkipZeroUtil, "SkipDestFlip": sum.SkipDestFlip,
			"SkipInsecureDest": sum.SkipInsecureDest, "SkipTurnOff": sum.SkipTurnOff,
			"SkipTurnOn": sum.SkipTurnOn, "ProjUnchanged": sum.ProjUnchanged,
		} {
			if v == 0 {
				t.Errorf("%+v: %s never fired", corner, name)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := diamondGraph(t)
	if _, err := New(g, Config{Theta: -1}); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := New(g, Config{EarlyAdopters: []int32{99}}); err == nil {
		t.Error("out-of-range early adopter accepted")
	}
	if _, err := New(g, Config{CacheBytes: -1}); err == nil {
		t.Error("negative cache budget accepted")
	}
	if _, err := NewShardEngine(g, Config{CacheBytes: -1}, []int{0}, 1); err == nil {
		t.Error("negative cache budget accepted by NewShardEngine")
	}
	if _, err := New(g, Config{CacheBytes: 1}); err != nil {
		t.Errorf("1-byte cache budget rejected: %v", err)
	}
	if _, err := New(g, Config{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestHelperValidation(t *testing.T) {
	g := diamondGraph(t)
	if _, err := Utilities(g, make([]bool, 1), Config{}); err == nil {
		t.Error("short bitmap accepted by Utilities")
	}
	if _, _, err := EvaluateFlip(g, make([]bool, g.N()), Config{}, -1); err == nil {
		t.Error("negative node accepted by EvaluateFlip")
	}
	if _, _, err := EvaluateFlipPerDest(g, make([]bool, 2), Config{}, 0); err == nil {
		t.Error("short bitmap accepted by EvaluateFlipPerDest")
	}
}

func TestEvaluateFlipPerDestConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := asgraphtest.Random(rng, 18, 0.15, 0.1, 0.2)
	secure := make([]bool, g.N())
	for i := range secure {
		secure[i] = rng.Float64() < 0.5
	}
	cfg := Config{Model: Incoming, StubsBreakTies: true, Tiebreaker: routing.HashTiebreaker{Seed: 3}}
	for i := int32(0); i < int32(g.N()); i++ {
		if !g.IsISP(i) {
			continue
		}
		base, proj, err := EvaluateFlip(g, secure, cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		bd, pd, err := EvaluateFlipPerDest(g, secure, cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		var sb, sp float64
		for d := range bd {
			sb += bd[d]
			sp += pd[d]
		}
		if math.Abs(sb-base) > 1e-6 || math.Abs(sp-proj) > 1e-6 {
			t.Fatalf("node %d: per-dest sums (%v,%v) != totals (%v,%v)", i, sb, sp, base, proj)
		}
	}
}

func TestUtilityModelString(t *testing.T) {
	if Outgoing.String() != "outgoing" || Incoming.String() != "incoming" {
		t.Error("model names wrong")
	}
	if UtilityModel(9).String() == "" {
		t.Error("unknown model should stringify")
	}
}

func TestNoEarlyAdoptersNoDeploymentAtPositiveTheta(t *testing.T) {
	g := diamondGraph(t)
	cfg := Config{Model: Outgoing, Theta: 0.05, Tiebreaker: routing.LowestIndex{}}
	res := MustNew(g, cfg).Run()
	if res.Final.SecureASes != 0 {
		t.Errorf("with no early adopters and θ>0, nothing should deploy; got %d secure", res.Final.SecureASes)
	}
	// One quiescent round is recorded (carrying final utilities).
	if !res.Stable || res.NumRounds() != 1 {
		t.Errorf("expected stability after one quiescent round, rounds=%d", res.NumRounds())
	}
	if len(res.Rounds[0].Deployed) != 0 {
		t.Errorf("quiescent round deployed %v", res.Rounds[0].Deployed)
	}
}

// TestShardTimingZeroPartials: a round that computed no shards must
// report zeroed timing aggregates, not a garbage minimum or a division
// by zero.
func TestShardTimingZeroPartials(t *testing.T) {
	wallMax, wallMin, straggler := shardTiming(nil)
	if wallMax != 0 || wallMin != 0 || straggler != 0 {
		t.Fatalf("shardTiming(nil) = %v/%v/%v, want zeros", wallMax, wallMin, straggler)
	}
	wallMax, wallMin, straggler = shardTiming([]ShardPartial{})
	if wallMax != 0 || wallMin != 0 || straggler != 0 {
		t.Fatalf("shardTiming(empty) = %v/%v/%v, want zeros", wallMax, wallMin, straggler)
	}
	one := []ShardPartial{{Stats: RoundStats{Wall: 40}}}
	wallMax, wallMin, straggler = shardTiming(one)
	if wallMax != 40*time.Nanosecond || wallMin != 40*time.Nanosecond || straggler != 1.0 {
		t.Fatalf("shardTiming(one) = %v/%v/%v, want 40ns/40ns/1.0", wallMax, wallMin, straggler)
	}
}
