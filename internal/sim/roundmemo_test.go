package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"sbgp/internal/adopters"
	"sbgp/internal/asgraph"
	"sbgp/internal/experiments"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// memoRequest is one simulation the round-memo test asks a Store for.
type memoRequest struct {
	name string
	g    *asgraph.Graph
	cfg  sim.Config
}

// TestRoundMemoResultInvariant: rounds that simulations sharing a
// statics handle serve each other are the rounds each would compute. A
// slice of the paper suite — fig8's θ sweep for two adopter sets,
// fig11's StubsBreakTies pair, fig12's x = 0.10/0.20 pair, a
// ProjectStubUpgrades pair, a model pair and Workers 2 against 3 — runs
// through one Store, and every Result must be byte-identical, recorded
// utilities included and stats stripped, to the one a fresh Store
// computes for that simulation alone, where nothing can hit. The sweep
// must share rounds, and no pair that differs in weights,
// StubsBreakTies, ProjectStubUpgrades, model or shard count may. It all
// runs again with every key hashed to one bucket, where only the full
// key comparison keeps one state's round from serving another.
func TestRoundMemoResultInvariant(t *testing.T) {
	graphs, err := experiments.NewStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	at := func(x float64) *asgraph.Graph {
		g, err := graphs.Graph(experiments.GraphKey{N: 250, Seed: 5, X: x, Variant: "base"})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g, g20 := at(0.10), at(0.20)
	base := sim.Config{
		Model:          sim.Outgoing,
		Theta:          0.05,
		EarlyAdopters:  adopters.CPsPlusTopISPs(g, 5),
		StubsBreakTies: true,
		Tiebreaker:     routing.HashTiebreaker{Seed: 5},
		Workers:        2,
	}
	with := func(f func(*sim.Config)) sim.Config {
		c := base
		f(&c)
		return c
	}

	var sweep []memoRequest
	for _, set := range []struct {
		name  string
		nodes []int32
	}{{"5cps+top5", base.EarlyAdopters}, {"top5", adopters.TopISPs(g, 5)}} {
		for _, th := range []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50} {
			sweep = append(sweep, memoRequest{fmt.Sprintf("fig8 %s θ=%.2f", set.name, th), g,
				with(func(c *sim.Config) { c.EarlyAdopters, c.Theta = set.nodes, th })})
		}
	}
	// Each pair's second simulation must share no round with its first.
	pairs := [][2]memoRequest{
		{{"fig11 stubs break", g, base}, {"fig11 stubs ignore", g, with(func(c *sim.Config) { c.StubsBreakTies = false })}},
		{{"fig12 x=0.10", g, base}, {"fig12 x=0.20", g20, base}},
		{{"flip-only projection", g, base}, {"bundled projection", g, with(func(c *sim.Config) { c.ProjectStubUpgrades = true })}},
		{{"outgoing", g, base}, {"incoming", g, with(func(c *sim.Config) { c.Model = sim.Incoming })}},
		// The Store's Result cache would serve a Workers 3 twin of an
		// earlier Workers 2 request, so this one also moves θ.
		{{"workers 2", g, base}, {"workers 3", g, with(func(c *sim.Config) { c.Workers, c.Theta = 3, 0.15 })}},
	}
	reqs := append([]memoRequest(nil), sweep...)
	for _, p := range pairs {
		reqs = append(reqs, p[0], p[1])
	}

	// The references: one fresh Store per simulation. A simulation never
	// computes one round key twice, so nothing is served here.
	ref := map[string][]byte{}
	for _, r := range reqs {
		res, _ := simOn(t, fresh(t), r)
		ref[r.name] = strippedBytes(t, res)
	}

	for _, hash := range []string{"maphash", "one bucket"} {
		if hash == "one bucket" {
			defer sim.SetRoundHash(func([]byte) uint64 { return 0 })()
		}
		shared := fresh(t)
		sweepHits := 0
		for k, r := range reqs {
			res, run := simOn(t, shared, r)
			if !bytes.Equal(strippedBytes(t, res), ref[r.name]) {
				t.Errorf("%s: %s: Result through the shared Store differs from a fresh Store's", hash, r.name)
			}
			if k < len(sweep) {
				sweepHits += run.SharedRounds
			}
		}
		if sweepHits == 0 {
			t.Errorf("%s: fig8's θ sweep shared no round", hash)
		}
		t.Logf("%s: fig8's θ sweep shared %d rounds", hash, sweepHits)
		for _, p := range pairs {
			s := fresh(t)
			simOn(t, s, p[0])
			res, run := simOn(t, s, p[1])
			if run.SharedRounds != 0 {
				t.Errorf("%s: %s was served %d rounds of %s", hash, p[1].name, run.SharedRounds, p[0].name)
			}
			if !bytes.Equal(strippedBytes(t, res), ref[p[1].name]) {
				t.Errorf("%s: %s after %s differs from a fresh Store's", hash, p[1].name, p[0].name)
			}
		}
		// The control: a pair that differs in θ alone shares at least the
		// pristine pass, so the zeros above are not vacuous.
		s := fresh(t)
		simOn(t, s, pairs[0][0])
		if _, run := simOn(t, s, memoRequest{"θ=0.10", g, with(func(c *sim.Config) { c.Theta = 0.10 })}); run.SharedRounds == 0 {
			t.Errorf("%s: a θ pair shared no round", hash)
		}
	}
}

func fresh(t *testing.T) *experiments.Store {
	t.Helper()
	s, err := experiments.NewStore("", 4)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func simOn(t *testing.T, s *experiments.Store, r memoRequest) (*sim.Result, experiments.SimRun) {
	t.Helper()
	res, run, err := s.Sim(r.g, r.cfg)
	if err != nil {
		t.Fatalf("%s: %v", r.name, err)
	}
	return res, run
}

// strippedBytes is res's WriteResult encoding without its stats, which
// carry wall-clock timings and engine counters a served round zeroes.
func strippedBytes(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	cp := *res
	cp.PristineStats = nil
	cp.Rounds = append([]sim.Round(nil), res.Rounds...)
	for i := range cp.Rounds {
		cp.Rounds[i].Stats = nil
	}
	var buf bytes.Buffer
	if err := sim.WriteResult(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
