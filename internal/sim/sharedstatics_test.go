package sim

import (
	"fmt"
	"sync"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// TestSharedStaticsResultInvariant: serving statics from a graph-level
// shared store — cold, pre-warmed by an earlier simulation, across
// worker counts, or under a budget too small to publish everything — is
// a pure memoization: every Result is bit-identical to the private
// per-worker-cache engine. This is the invariant that lets
// Config.Fingerprint exclude SharedStatics.
func TestSharedStaticsResultInvariant(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)

	for _, model := range []UtilityModel{Outgoing, Incoming} {
		base := Config{
			Model:           model,
			Theta:           0.05,
			EarlyAdopters:   adopters,
			StubsBreakTies:  true,
			Workers:         1,
			RecordUtilities: true,
			RecordStats:     true,
		}
		ref := MustNew(g, base).Run()

		store := routing.NewSharedStaticCache(0)
		cfg := base
		cfg.SharedStatics = store
		cold := MustNew(g, cfg).Run()
		requireBitIdentical(t, model.String()+"/cold store", ref, cold)
		// Every destination that was not class-replayed ran the BFS in
		// the pristine pass and published its static; a replayed leaf
		// publishes one only if a later round makes it a filler.
		fetched := g.N() - int(cold.PristineStats.ClassReplays)
		if cold.PristineStats.StaticMisses != int64(fetched) || store.Entries() < fetched || store.Entries() > g.N() {
			t.Errorf("%s: pristine pass missed %d and the store published %d of %d destinations, want %d and at least %d",
				model, cold.PristineStats.StaticMisses, store.Entries(), g.N(), fetched, fetched)
		}

		// A second simulation on the now-warm store must hit on every
		// destination of every round and still reproduce the bits.
		warm := MustNew(g, cfg).Run()
		requireBitIdentical(t, model.String()+"/warm store", ref, warm)
		assertCacheActivity(t, model.String()+"/warm store", warm, func(hits, misses int64) bool {
			return misses == 0 && hits > 0
		})

		// Worker counts partition destinations differently but read the
		// same shared snapshots. Compare at equal pool size — recorded
		// utilities are only bit-stable per worker count (the per-worker
		// merge order differs in final ulps across pool sizes).
		base4 := base
		base4.Workers = 4
		ref4 := MustNew(g, base4).Run()
		cfg4 := cfg
		cfg4.Workers = 4
		requireBitIdentical(t, model.String()+"/warm store workers=4", ref4, MustNew(g, cfg4).Run())

		// A different trajectory on the same warm store is still exactly
		// the trajectory the private-cache engine computes.
		theta2 := base
		theta2.Theta = 0.15
		ref2 := MustNew(g, theta2).Run()
		shared2 := theta2
		shared2.SharedStatics = store
		requireBitIdentical(t, model.String()+"/warm store theta=0.15", ref2, MustNew(g, shared2).Run())

		// A budget too small for full coverage publishes a prefix and
		// recomputes the rest — same bits either way.
		tiny := routing.NewSharedStaticCache(40_000)
		cfgTiny := base
		cfgTiny.SharedStatics = tiny
		got := MustNew(g, cfgTiny).Run()
		requireBitIdentical(t, model.String()+"/tiny store", ref, got)
		if !tiny.Full() || tiny.Entries() == 0 {
			t.Errorf("%s: tiny store did not exercise partial admission (entries=%d full=%v)",
				model, tiny.Entries(), tiny.Full())
		}
	}
}

// TestSharedStaticsBindErrors: a store is bound to one (graph,
// tiebreaker) pair; New must refuse a simulation that would read
// another graph's (or another tiebreaker's) snapshots.
func TestSharedStaticsBindErrors(t *testing.T) {
	g1 := topogen.MustGenerate(topogen.Default(120, 1))
	g2 := topogen.MustGenerate(topogen.Default(120, 2))
	store := routing.NewSharedStaticCache(0)

	if _, err := New(g1, Config{Model: Outgoing, SharedStatics: store}); err != nil {
		t.Fatalf("first bind failed: %v", err)
	}
	if _, err := New(g2, Config{Model: Outgoing, SharedStatics: store}); err == nil {
		t.Error("binding a second graph to the store did not fail")
	}
	if _, err := New(g1, Config{Model: Outgoing, SharedStatics: store,
		Tiebreaker: routing.LowestIndex{}}); err == nil {
		t.Error("binding a second tiebreaker to the store did not fail")
	}
	if _, err := New(g1, Config{Model: Incoming, Theta: 0.3, SharedStatics: store}); err != nil {
		t.Errorf("rebinding the same (graph, tiebreaker) failed: %v", err)
	}
}

// TestSharedStaticsConcurrentSims: the intended use is many
// simulations on one graph, possibly at the same time (the experiment
// harness runs a θ sweep concurrently). Racing simulations must both
// populate and read the store safely and reproduce the private-cache
// bits. Run under -race in CI.
func TestSharedStaticsConcurrentSims(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(250, 11))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	thetas := []float64{0.02, 0.05, 0.1, 0.2}

	store := routing.NewSharedStaticCache(0)
	results := make([]*Result, len(thetas))
	var wg sync.WaitGroup
	for i, th := range thetas {
		wg.Add(1)
		go func(i int, th float64) {
			defer wg.Done()
			cfg := Config{
				Model:           Incoming,
				Theta:           th,
				EarlyAdopters:   adopters,
				StubsBreakTies:  true,
				Workers:         2,
				RecordUtilities: true,
				SharedStatics:   store,
			}
			results[i] = MustNew(g, cfg).Run()
		}(i, th)
	}
	wg.Wait()

	for i, th := range thetas {
		cfg := Config{
			Model:           Incoming,
			Theta:           th,
			EarlyAdopters:   adopters,
			StubsBreakTies:  true,
			Workers:         2,
			RecordUtilities: true,
		}
		ref := MustNew(g, cfg).Run()
		requireBitIdentical(t, fmt.Sprintf("concurrent theta=%g", th), ref, results[i])
	}
}
