package sim

import (
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

func thetaTestGraph(t *testing.T) *asgraph.Graph {
	t.Helper()
	// The θ-blocking graph from TestThetaBlocksDeployment: A's
	// deploy/no-deploy threshold sits at θ ≈ 0.769.
	return asgraph.NewBuilder().
		AddCustomer(1, 2).AddCustomer(1, 3).
		AddCustomer(2, 4).AddCustomer(3, 4).
		AddCustomer(2, 6).
		SetWeight(1, 10).
		MustBuild()
}

func TestThetaJitterZeroMatchesUniform(t *testing.T) {
	g := thetaTestGraph(t)
	iT, iB := g.Index(1), g.Index(3)
	base := Config{
		Model:          Outgoing,
		Theta:          0.05,
		EarlyAdopters:  []int32{iT, iB},
		StubsBreakTies: true,
		Tiebreaker:     routing.LowestIndex{},
	}
	jittered := base
	jittered.ThetaJitter = 0
	jittered.ThetaSeed = 99
	r1 := MustNew(g, base).Run()
	r2 := MustNew(g, jittered).Run()
	for i := range r1.FinalSecure {
		if r1.FinalSecure[i] != r2.FinalSecure[i] {
			t.Fatalf("zero jitter changed the outcome at node %d", i)
		}
	}
}

func TestThetaJitterBounds(t *testing.T) {
	g := thetaTestGraph(t)
	s := MustNew(g, Config{Theta: 0.10, ThetaJitter: 0.5, ThetaSeed: 3})
	for i, th := range s.theta {
		if th < 0.05-1e-12 || th > 0.15+1e-12 {
			t.Errorf("node %d: θ=%v outside [0.05, 0.15]", i, th)
		}
	}
	// Deterministic for a fixed seed.
	s2 := MustNew(g, Config{Theta: 0.10, ThetaJitter: 0.5, ThetaSeed: 3})
	for i := range s.theta {
		if s.theta[i] != s2.theta[i] {
			t.Fatal("threshold draw not deterministic")
		}
	}
	// Different seeds differ somewhere.
	s3 := MustNew(g, Config{Theta: 0.10, ThetaJitter: 0.5, ThetaSeed: 4})
	same := true
	for i := range s.theta {
		if s.theta[i] != s3.theta[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds drew identical thresholds")
	}
}

func TestThetaJitterValidation(t *testing.T) {
	g := thetaTestGraph(t)
	if _, err := New(g, Config{ThetaJitter: -0.1}); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := New(g, Config{ThetaJitter: 1.5}); err == nil {
		t.Error("jitter > 1 accepted")
	}
}

func TestThetaJitterStraddlesCliff(t *testing.T) {
	// A's decision threshold sits at ≈0.769; with θ=0.769 and 30%
	// jitter, different seeds should produce both outcomes — the jitter
	// smooths the adoption cliff into a probability.
	g := thetaTestGraph(t)
	iT, iA, iB := g.Index(1), g.Index(2), g.Index(3)
	deployed, blocked := 0, 0
	for seed := int64(0); seed < 20; seed++ {
		cfg := Config{
			Model:          Outgoing,
			Theta:          0.769,
			ThetaJitter:    0.3,
			ThetaSeed:      seed,
			EarlyAdopters:  []int32{iT, iB},
			StubsBreakTies: true,
			Tiebreaker:     routing.LowestIndex{},
		}
		if MustNew(g, cfg).Run().FinalSecure[iA] {
			deployed++
		} else {
			blocked++
		}
	}
	if deployed == 0 || blocked == 0 {
		t.Errorf("jitter at the cliff should mix outcomes; got %d deployed / %d blocked", deployed, blocked)
	}
}
