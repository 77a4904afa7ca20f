package metrics

import (
	"fmt"
	"math"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/gadgets"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
	"sbgp/internal/topogen"
)

// diamond: T(1) -> A(2),B(3); s(4) customer of A and B; T weight 10.
func diamond(t *testing.T) *asgraph.Graph {
	t.Helper()
	return asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		SetWeight(1, 10).
		MustBuild()
}

func TestComputeSecurePathsAllInsecure(t *testing.T) {
	g := diamond(t)
	sp := ComputeSecurePaths(g, make([]bool, g.N()), true, routing.LowestIndex{})
	if sp.Fraction != 0 || sp.SecureASFraction != 0 {
		t.Errorf("insecure graph: %+v", sp)
	}
}

func TestComputeSecurePathsAllSecure(t *testing.T) {
	g := diamond(t)
	secure := make([]bool, g.N())
	for i := range secure {
		secure[i] = true
	}
	sp := ComputeSecurePaths(g, secure, true, routing.LowestIndex{})
	if sp.SecureASFraction != 1 {
		t.Errorf("f = %v, want 1", sp.SecureASFraction)
	}
	// Fully connected diamond: every reachable pair is secure; the graph
	// is fully reachable so Fraction must be 1.
	if sp.Fraction != 1 {
		t.Errorf("fraction = %v, want 1", sp.Fraction)
	}
}

func TestSecurePathsBelowFSquared(t *testing.T) {
	// On a realistic topology with a partial deployment, the secure-path
	// fraction must land below f² but in the same ballpark (Fig. 9).
	g := topogen.MustGenerate(topogen.Default(400, 3))
	g.SetCPTrafficFraction(0.1)
	ad := append(asgraph.TopByDegree(g, 5, asgraph.ISP), g.Nodes(asgraph.ContentProvider)...)
	cfg := sim.Config{Model: sim.Outgoing, Theta: 0.05, EarlyAdopters: ad, StubsBreakTies: true}
	res := sim.MustNew(g, cfg).Run()
	sp := ComputeSecurePaths(g, res.FinalSecure, true, routing.HashTiebreaker{})
	f2 := sp.SecureASFraction * sp.SecureASFraction
	if sp.Fraction > f2+1e-9 {
		t.Errorf("secure paths %v exceed f²=%v", sp.Fraction, f2)
	}
	if sp.Fraction < 0.5*f2 {
		t.Errorf("secure paths %v far below f²=%v; paper reports only ~4%% below", sp.Fraction, f2)
	}
}

// TestComputeSecurePathsStatesIndependent: resolving several states off
// one static per destination must not leak one state's tree into the
// next — each entry equals the one-state computation, in any order.
func TestComputeSecurePathsStatesIndependent(t *testing.T) {
	g, cfg, final := caseStudyFinal(t, 300, sim.Outgoing)
	initial := make([]bool, g.N())
	for _, a := range cfg.EarlyAdopters {
		initial[a] = true
	}
	states := [][]bool{final, make([]bool, g.N()), initial, final}
	got := ComputeSecurePathsStates(g, states, true, cfg.Tiebreaker)
	for k, secure := range states {
		if want := ComputeSecurePaths(g, secure, true, cfg.Tiebreaker); got[k] != want {
			t.Errorf("state %d: %+v in the batch, %+v alone", k, got[k], want)
		}
	}
	if got[0].Longest < 2 {
		t.Errorf("final state's longest secure path = %d hops, want at least 2", got[0].Longest)
	}
	if got[1] != (SecurePaths{}) {
		t.Errorf("all-insecure state: %+v", got[1])
	}
}

func TestComputeTiebreakDist(t *testing.T) {
	g := diamond(t)
	d := ComputeTiebreakDist(g)
	// T toward s has a 2-way tiebreak set; most pairs are single-path.
	if len(d.Counts) < 3 || d.Counts[2] == 0 {
		t.Fatalf("no 2-way tiebreak sets found: %v", d.Counts)
	}
	if d.Counts[1] == 0 {
		t.Fatal("no singleton tiebreak sets found")
	}
	if d.MeanAll <= 1 || d.MeanAll >= 2 {
		t.Errorf("mean tiebreak size = %v, want in (1,2)", d.MeanAll)
	}
	if d.FracMultiAll <= 0 || d.FracMultiAll >= 1 {
		t.Errorf("multi fraction = %v", d.FracMultiAll)
	}
}

func TestTiebreakDistRealisticShape(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(600, 7))
	d := ComputeTiebreakDist(g)
	// The paper's striking observation: tiebreak sets are typically very
	// small — mean ~1.2, ISPs slightly larger than stubs.
	if d.MeanAll < 1.0 || d.MeanAll > 1.8 {
		t.Errorf("mean tiebreak size = %v, want ~1.2", d.MeanAll)
	}
	if d.MeanISPs < d.MeanStubs {
		t.Errorf("ISPs (%v) should have at least stub-sized (%v) tiebreak sets", d.MeanISPs, d.MeanStubs)
	}
	if d.FracMultiAll > 0.5 {
		t.Errorf("multi-path fraction %v too high; paper reports ~20%%", d.FracMultiAll)
	}
}

func TestCountDiamonds(t *testing.T) {
	g := diamond(t)
	iT := g.Index(1)
	counts := CountDiamonds(g, []int32{iT})
	// T has exactly one diamond: ISPs A and B competing for stub s.
	if counts[iT] != 1 {
		t.Errorf("diamonds(T) = %d, want 1", counts[iT])
	}
	// A stub early adopter has none (its provider paths are single).
	iS := g.Index(4)
	counts = CountDiamonds(g, []int32{iS})
	if counts[iS] != 0 {
		t.Errorf("diamonds(s) = %d, want 0", counts[iS])
	}
}

func TestCountDiamondsTriple(t *testing.T) {
	// A stub with three providers yields C(3,2)=3 diamonds for a source
	// seeing all three as equally good.
	g := asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).AddCustomer(1, 5).
		AddCustomer(2, 4).AddCustomer(3, 4).AddCustomer(5, 4).
		MustBuild()
	iT := g.Index(1)
	counts := CountDiamonds(g, []int32{iT})
	if counts[iT] != 3 {
		t.Errorf("diamonds = %d, want 3", counts[iT])
	}
}

func runDiamondSim(t *testing.T) (*asgraph.Graph, *sim.Result) {
	t.Helper()
	g := diamond(t)
	cfg := sim.Config{
		Model:           sim.Outgoing,
		Theta:           0.05,
		EarlyAdopters:   []int32{g.Index(1), g.Index(3)},
		StubsBreakTies:  true,
		Tiebreaker:      routing.LowestIndex{},
		RecordUtilities: true,
	}
	return g, sim.MustNew(g, cfg).Run()
}

func TestAdoptionByDegree(t *testing.T) {
	g, res := runDiamondSim(t)
	rows := AdoptionByDegree(g, res, []int{1, 3})
	if len(rows) != len(res.Rounds)+1 {
		t.Fatalf("rows = %d, want %d", len(rows), len(res.Rounds)+1)
	}
	last := rows[len(rows)-1]
	// All three ISPs (T deg 2... T has degree 2, A,B degree 2) end secure.
	for b, f := range last {
		if tot := f; tot != 1 && !math.IsNaN(tot) && tot != 0 {
			t.Logf("bin %d final fraction %v", b, f)
		}
	}
	// Total over bins must reach 1 for bins that contain ISPs.
	if last[0] != 1 {
		t.Errorf("low-degree bin final fraction = %v, want 1 (all ISPs secure)", last[0])
	}
}

func TestUtilityTrajectories(t *testing.T) {
	g, res := runDiamondSim(t)
	iA := g.Index(2)
	trs := UtilityTrajectories(res, []int32{iA})
	if len(trs) != 1 {
		t.Fatal("want one trajectory")
	}
	tr := trs[0]
	if tr.DeployedAt != 0 {
		t.Errorf("A deployed at round %d, want 0", tr.DeployedAt)
	}
	// Pristine utility of A: T routes to s via A (lowest index) when no
	// one is secure: 10 units. In round 1 (B secure early adopter) A has
	// lost it: normalized 0. After deploying A regains it: normalized 1.
	if len(tr.Normalized) < 2 {
		t.Fatalf("trajectory too short: %v", tr.Normalized)
	}
	if tr.Normalized[0] != 0 {
		t.Errorf("round-1 normalized utility = %v, want 0", tr.Normalized[0])
	}
	if last := tr.Normalized[len(tr.Normalized)-1]; last != 1 {
		t.Errorf("final normalized utility = %v, want 1", last)
	}
}

func TestDeployerMedians(t *testing.T) {
	_, res := runDiamondSim(t)
	util, proj := DeployerMedians(res)
	if len(util) != len(res.Rounds) {
		t.Fatalf("len = %d, want %d", len(util), len(res.Rounds))
	}
	// Round 1: A deploys with base 0 (normalized 0) and projection 10
	// (normalized 1).
	if util[0] != 0 {
		t.Errorf("median util = %v, want 0", util[0])
	}
	if proj[0] != 1 {
		t.Errorf("median projection = %v, want 1", proj[0])
	}
	// Quiescent final round: no deployers -> NaN.
	if !math.IsNaN(util[len(util)-1]) {
		t.Errorf("final round median = %v, want NaN", util[len(util)-1])
	}
}

func TestProjectionAccuracy(t *testing.T) {
	_, res := runDiamondSim(t)
	ratios := ProjectionAccuracy(res)
	if len(ratios) != 1 {
		t.Fatalf("ratios = %v, want one entry", ratios)
	}
	// Sole mover: projection exact.
	if math.Abs(ratios[0]-1) > 1e-9 {
		t.Errorf("ratio = %v, want 1", ratios[0])
	}
}

func TestScanTurnOffOutgoingFindsNothing(t *testing.T) {
	// Theorem 6.2: under outgoing utility no secure ISP wants off.
	g, res := runDiamondSim(t)
	rep, err := ScanTurnOff(g, res.FinalSecure, sim.Config{
		Model: sim.Outgoing, StubsBreakTies: true, Tiebreaker: routing.LowestIndex{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WholeNetwork != 0 {
		t.Errorf("whole-network turn-off incentives under outgoing utility: %+v", rep)
	}
	if rep.SecureISPs != 3 {
		t.Errorf("secure ISPs = %d, want 3", rep.SecureISPs)
	}
}

// caseStudyFinal plays the Section 5 case-study game (five CPs plus the
// top five ISPs seeded, θ=5%, stubs breaking ties) on an n-node
// synthetic graph under the given model and returns its final state.
func caseStudyFinal(tb testing.TB, n int, model sim.UtilityModel) (*asgraph.Graph, sim.Config, []bool) {
	tb.Helper()
	g := topogen.MustGenerate(topogen.Default(n, 42))
	g.SetCPTrafficFraction(0.10)
	cfg := sim.Config{
		Model:          model,
		Theta:          0.05,
		EarlyAdopters:  append(g.CPs(), asgraph.TopByDegree(g, 5, asgraph.ISP)...),
		StubsBreakTies: true,
		Tiebreaker:     routing.HashTiebreaker{Seed: 42},
	}
	return g, cfg, sim.MustNew(g, cfg).Run().FinalSecure
}

// TestScanTurnOffSameAtAnyWorkerCount: the per-ISP totals are folded in
// ascending destination order whatever the striping, so the report —
// whose counts compare float sums against a 1e-9 margin — cannot depend
// on cfg.Workers.
func TestScanTurnOffSameAtAnyWorkerCount(t *testing.T) {
	g, cfg, final := caseStudyFinal(t, 400, sim.Incoming)
	cfg.Workers = 1
	one, err := ScanTurnOff(g, final, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one.SecureISPs == 0 {
		t.Fatal("no secure ISP in the final state: nothing was scanned")
	}
	cfg.Workers = 5
	five, err := ScanTurnOff(g, final, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if one != five {
		t.Errorf("report differs across worker counts: workers=1 %+v, workers=5 %+v", one, five)
	}
}

// TestScanTurnOffBuyersRemorse drives Fig. 13's gadget, configuration
// and state through the scan: under incoming utility ISP N gains by
// turning S*BGP off, overall and per destination; under outgoing
// utility nobody does (Theorem 6.2).
func TestScanTurnOffBuyersRemorse(t *testing.T) {
	br := gadgets.NewBuyersRemorse(24, 821)
	cfg := sim.Config{Model: sim.Incoming, StubsBreakTies: false, Tiebreaker: routing.LowestIndex{}}
	rep, err := ScanTurnOff(br.Graph, br.SecureBitmap(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WholeNetwork < 1 || rep.PerDestination < 1 {
		t.Errorf("incoming utility: N's buyer's remorse not found: %+v", rep)
	}
	cfg.Model = sim.Outgoing
	rep, err = ScanTurnOff(br.Graph, br.SecureBitmap(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WholeNetwork != 0 {
		t.Errorf("outgoing utility: whole-network turn-off incentive contradicts Theorem 6.2: %+v", rep)
	}
}

func TestScanTurnOffRejectsWrongLengthBitmap(t *testing.T) {
	g := diamond(t)
	for _, n := range []int{0, g.N() - 1, g.N() + 1} {
		if _, err := ScanTurnOff(g, make([]bool, n), sim.Config{}); err == nil {
			t.Errorf("%d-entry bitmap accepted for %d ASes", n, g.N())
		}
	}
}

// BenchmarkScanTurnOff times the Section 7.3 scan as sec73 runs it: the
// N=1200 case-study final state under incoming utility. The two worker
// counts show what the destination striping buys.
func BenchmarkScanTurnOff(b *testing.B) {
	g, cfg, final := caseStudyFinal(b, 1200, sim.Incoming)
	for _, workers := range []int{1, 2} {
		cfg.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ScanTurnOff(g, final, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestMedianHelper(t *testing.T) {
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) should be NaN")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
