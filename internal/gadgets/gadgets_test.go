package gadgets

import (
	"reflect"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// Diamond is the Figure 2 competition scenario.
//
//	  T          traffic source (early adopter, heavy weight)
//	 / \
//	A   B        competing ISPs
//	 \ /
//	  S          multihomed stub
//
// With a lowest-index tie-break T prefers A when security is moot.
type Diamond struct {
	Graph      *asgraph.Graph
	T, A, B, S int32
}

// NewDiamond builds the diamond with the given traffic weight at T.
func NewDiamond(sourceWeight float64) *Diamond {
	g := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		SetWeight(1, sourceWeight).
		MustBuild()
	return &Diamond{
		Graph: g,
		T:     g.Index(1), A: g.Index(2), B: g.Index(3), S: g.Index(4),
	}
}

func TestDiamondStealRegainCycle(t *testing.T) {
	d := NewDiamond(10)
	cfg := sim.Config{
		Model:           sim.Outgoing,
		Theta:           0.05,
		EarlyAdopters:   []int32{d.T, d.B},
		StubsBreakTies:  true,
		Tiebreaker:      routing.LowestIndex{},
		RecordUtilities: true,
	}
	res := sim.MustNew(d.Graph, cfg).Run()
	if !res.Stable {
		t.Fatal("diamond should stabilize")
	}
	if got := res.Rounds[0].Deployed; len(got) != 1 || got[0] != d.A {
		t.Fatalf("round 1 deployed %v, want A", got)
	}
	// A regains exactly its pristine traffic.
	if res.Rounds[len(res.Rounds)-1].UtilBase[d.A] != res.PristineUtil[d.A] {
		t.Error("A should return to pristine utility after deploying")
	}
}

func TestBuyersRemorseTurnOffIncentive(t *testing.T) {
	br := NewBuyersRemorse(10, 100)
	secure := br.SecureBitmap()
	cfg := sim.Config{
		Model:          sim.Incoming,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
	}
	base, proj, err := sim.EvaluateFlip(br.Graph, secure, cfg, br.N)
	if err != nil {
		t.Fatal(err)
	}
	if proj <= base {
		t.Fatalf("N should gain by turning off: %v -> %v", base, proj)
	}
	// The gain is the CP's weight landing on customer edges for every
	// stub destination plus N itself (the paper's 24-stub example sees
	// a 205%% per-destination increase).
	wantGain := 100.0 * float64(len(br.Stubs)+1)
	if gain := proj - base; gain != wantGain {
		t.Errorf("gain = %v, want %v", gain, wantGain)
	}
}

func TestBuyersRemorseOutgoingImmune(t *testing.T) {
	// Theorem 6.2: the same graph and state give no turn-off incentive
	// under outgoing utility.
	br := NewBuyersRemorse(10, 100)
	secure := br.SecureBitmap()
	cfg := sim.Config{
		Model:          sim.Outgoing,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
	}
	base, proj, err := sim.EvaluateFlip(br.Graph, secure, cfg, br.N)
	if err != nil {
		t.Fatal(err)
	}
	if proj > base+1e-9 {
		t.Fatalf("outgoing model must not reward turning off: %v -> %v", base, proj)
	}
}

func TestBuyersRemorsePerDestination(t *testing.T) {
	// Section 7.1 "turning off a destination": the incentive shows up
	// destination by destination, for every stub.
	br := NewBuyersRemorse(5, 50)
	secure := br.SecureBitmap()
	cfg := sim.Config{
		Model:          sim.Incoming,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
	}
	bd, pd, err := sim.EvaluateFlipPerDest(br.Graph, secure, cfg, br.N)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range br.Stubs {
		if pd[s] <= bd[s] {
			t.Errorf("stub %d: no per-destination turn-off gain (%v -> %v)", s, bd[s], pd[s])
		}
	}
}

func TestBuyersRemorseSimLoopDisables(t *testing.T) {
	// Running the actual deployment loop from the gadget state must
	// disable N in round 1 and then stabilize.
	br := NewBuyersRemorse(8, 100)
	var adopters []int32
	for i, s := range br.SecureBitmap() {
		if s {
			adopters = append(adopters, int32(i))
		}
	}
	cfg := sim.Config{
		Model:          sim.Incoming,
		Theta:          0,
		EarlyAdopters:  adopters,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
	}
	res := sim.MustNew(br.Graph, cfg).Run()
	if res.Oscillated {
		t.Fatal("buyers-remorse gadget should not oscillate")
	}
	disabled := false
	for _, rd := range res.Rounds {
		for _, i := range rd.Disabled {
			if i == br.N {
				disabled = true
			}
		}
	}
	if !disabled {
		t.Error("N never disabled S*BGP in the deployment loop")
	}
	if res.FinalSecure[br.N] {
		t.Error("N should end insecure")
	}
}

func TestPartialAttack(t *testing.T) {
	a := NewPartialAttack()

	chosen := a.ChooseFullSecurityRule()
	if a.Hijacked(chosen) {
		t.Errorf("full-security rule chose the false path %v", chosen)
	}

	chosen = a.ChoosePartialPreferenceRule()
	if !a.Hijacked(chosen) {
		t.Errorf("partial-preference rule should fall for the attack, chose %v", chosen)
	}
}

func TestSetCoverCounting(t *testing.T) {
	// Universe {0..5}; S0={0,1,2} S1={2,3} S2={3,4,5} S3={0,5}.
	sets := [][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}}
	sc, err := NewSetCover(6, sets)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Model:               sim.Outgoing,
		Theta:               0,
		StubsBreakTies:      true,
		ProjectStubUpgrades: true,
		Tiebreaker:          routing.LowestIndex{},
	}

	cases := []struct {
		name   string
		chosen []int
	}{
		{"cover{S0,S2}", []int{0, 2}},    // covers all 6
		{"noncover{S0,S1}", []int{0, 1}}, // covers {0,1,2,3}
		{"single{S3}", []int{3}},         // covers {0,5}
		{"all", []int{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		cfg.EarlyAdopters = sc.Adopters(tc.chosen)
		res := sim.MustNew(sc.Graph, cfg).Run()
		if !res.Stable {
			t.Fatalf("%s: did not stabilize", tc.name)
		}
		want := sc.ExpectedSecure(tc.chosen)
		if res.Final.SecureASes != want {
			t.Errorf("%s: secure ASes = %d, want %d (2k+1+covered)",
				tc.name, res.Final.SecureASes, want)
		}
		// Exactly the covered elements' stubs become secure.
		cov := sc.Covered(tc.chosen)
		for j, u := range sc.U {
			if res.FinalSecure[u] != cov[j] {
				t.Errorf("%s: element %d secure=%v, want %v", tc.name, j, res.FinalSecure[u], cov[j])
			}
		}
	}
}

func TestSetCoverOptimalChoiceIsCover(t *testing.T) {
	// With k=2, the early-adopter pairs that maximize deployment are
	// exactly the set covers — the heart of the Theorem 6.1 reduction.
	sets := [][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {0, 5}}
	sc, err := NewSetCover(6, sets)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Model:               sim.Outgoing,
		Theta:               0,
		StubsBreakTies:      true,
		ProjectStubUpgrades: true,
		Tiebreaker:          routing.LowestIndex{},
	}
	best, bestPair := -1, []int{}
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			cfg.EarlyAdopters = sc.Adopters([]int{i, j})
			res := sim.MustNew(sc.Graph, cfg).Run()
			if res.Final.SecureASes > best {
				best = res.Final.SecureASes
				bestPair = []int{i, j}
			}
		}
	}
	if cov := sc.Covered(bestPair); len(cov) != 6 {
		t.Errorf("best pair %v covers only %d elements", bestPair, len(cov))
	}
	if best != sc.ExpectedSecure(bestPair) {
		t.Errorf("best outcome %d != predicted %d", best, sc.ExpectedSecure(bestPair))
	}
}

func TestSetCoverValidation(t *testing.T) {
	if _, err := NewSetCover(0, nil); err == nil {
		t.Error("empty universe accepted")
	}
	if _, err := NewSetCover(3, [][]int{{5}}); err == nil {
		t.Error("out-of-universe element accepted")
	}
	if _, err := NewSetCover(1000, nil); err == nil {
		t.Error("oversized instance accepted")
	}
}

func TestOscillator(t *testing.T) {
	o := NewOscillator()
	cfg := sim.Config{
		Model:          sim.Incoming,
		Theta:          0,
		EarlyAdopters:  o.EarlyAdopters,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
		MaxRounds:      40,
	}
	res := sim.MustNew(o.Graph, cfg).Run()
	if !res.Oscillated {
		t.Fatal("oscillator did not oscillate")
	}
	if res.Stable {
		t.Fatal("oscillator reported stable")
	}
	if res.CycleLen != 4 {
		t.Errorf("cycle length = %d, want 4", res.CycleLen)
	}
	if res.CycleStart != 0 {
		t.Errorf("cycle start = %d, want 0 (returns to the seed state)", res.CycleStart)
	}
	// The phase order: X on, Y on, X off, Y off.
	wantDeploy := []struct {
		node int32
		off  bool
	}{{o.X, false}, {o.Y, false}, {o.X, true}, {o.Y, true}}
	if len(res.Rounds) < 4 {
		t.Fatalf("rounds = %d, want >= 4", len(res.Rounds))
	}
	for r, w := range wantDeploy {
		rd := res.Rounds[r]
		if w.off {
			if len(rd.Disabled) != 1 || rd.Disabled[0] != w.node || len(rd.Deployed) != 0 {
				t.Errorf("round %d: got deployed=%v disabled=%v, want disable %d",
					r, rd.Deployed, rd.Disabled, w.node)
			}
		} else {
			if len(rd.Deployed) != 1 || rd.Deployed[0] != w.node || len(rd.Disabled) != 0 {
				t.Errorf("round %d: got deployed=%v disabled=%v, want deploy %d",
					r, rd.Deployed, rd.Disabled, w.node)
			}
		}
	}
}

// TestOscillatorDynCacheInvariant: an oscillating run is the dynamic
// cache's hardest trajectory — states recur exactly (maximum replay
// opportunity) while every round realizes flips (maximum invalidation
// churn) — and the verdict hangs on exact utility ties at θ=0, where a
// single ULP of drift would break the cycle. The cached run must
// reproduce the uncached one's rounds and cycle verdict exactly.
// (This lives here rather than in internal/sim because the gadget
// package already depends on sim.)
func TestOscillatorDynCacheInvariant(t *testing.T) {
	o := NewOscillator()
	base := sim.Config{
		Model:          sim.Incoming,
		Theta:          0,
		EarlyAdopters:  o.EarlyAdopters,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
		MaxRounds:      40,
	}
	cfgOff := base
	cfgOff.CacheBytes, cfgOff.SharedStatics = 1, routing.NewSharedStaticCache(0) // records off, statics on
	ref := sim.MustNew(o.Graph, cfgOff).Run()
	got := sim.MustNew(o.Graph, base).Run() // budget 0: cache on at the default

	if got.Oscillated != ref.Oscillated || got.Stable != ref.Stable ||
		got.CycleStart != ref.CycleStart || got.CycleLen != ref.CycleLen {
		t.Fatalf("cycle verdict diverges: cached oscillated=%v stable=%v cycle=[%d,+%d), uncached oscillated=%v stable=%v cycle=[%d,+%d)",
			got.Oscillated, got.Stable, got.CycleStart, got.CycleLen,
			ref.Oscillated, ref.Stable, ref.CycleStart, ref.CycleLen)
	}
	if len(got.Rounds) != len(ref.Rounds) {
		t.Fatalf("rounds = %d cached vs %d uncached", len(got.Rounds), len(ref.Rounds))
	}
	for r := range ref.Rounds {
		if !reflect.DeepEqual(got.Rounds[r].Deployed, ref.Rounds[r].Deployed) ||
			!reflect.DeepEqual(got.Rounds[r].Disabled, ref.Rounds[r].Disabled) {
			t.Errorf("round %d: cached deployed=%v disabled=%v, uncached deployed=%v disabled=%v",
				r, got.Rounds[r].Deployed, got.Rounds[r].Disabled,
				ref.Rounds[r].Deployed, ref.Rounds[r].Disabled)
		}
	}
}

func TestOscillatorOutgoingTerminates(t *testing.T) {
	// The same graph under outgoing utility must reach a stable state
	// (Theorem 6.2 guarantees termination).
	o := NewOscillator()
	cfg := sim.Config{
		Model:          sim.Outgoing,
		Theta:          0,
		EarlyAdopters:  o.EarlyAdopters,
		StubsBreakTies: false,
		Tiebreaker:     routing.LowestIndex{},
		MaxRounds:      40,
	}
	res := sim.MustNew(o.Graph, cfg).Run()
	if !res.Stable || res.Oscillated {
		t.Fatalf("outgoing model must terminate: stable=%v oscillated=%v", res.Stable, res.Oscillated)
	}
}
