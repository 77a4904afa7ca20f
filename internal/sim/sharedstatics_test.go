package sim

import (
	"bytes"
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
// a pure memoization: every Result is bit-identical to the engine on a
// store of its own. This is the invariant that lets Config.Fingerprint
// exclude SharedStatics.
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
		// destination of every round and still reproduce the bits. The
		// round memo would serve it every round without a lookup, so it
		// runs with the memo off here; served, it must still match.
		warm := withoutRoundMemo(MustNew(g, cfg)).Run()
		requireBitIdentical(t, model.String()+"/warm store", ref, warm)
		served := MustNew(g, cfg)
		requireBitIdentical(t, model.String()+"/round memo", ref, served.Run())
		if got, want := served.SharedRounds(), len(ref.Rounds)+1; got != want {
			t.Errorf("%s: the round memo served %d of %d round computations", model, got, want)
		}
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
		// the trajectory the engine computes on its own store.
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

// withoutRoundMemo is the test hook that keeps s from consulting its
// handle's round memo, so that a test can watch the engine's own tiers
// serve a simulation the memo could serve whole.
func withoutRoundMemo(s *Sim) *Sim {
	s.memo = nil
	return s
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
// populate and read the store safely — its statics, its sidecars and
// its round memo, where the sweep's pristine pass and first round race
// on one key — and reproduce the bits of an engine on its own store.
// Run under -race in CI.
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

// weightVariants returns one graph instance per CP traffic fraction in
// xs, all of one topology: separate generations from the same topogen
// parameters, reweighted by SetCPTrafficFraction.
func weightVariants(n int, seed int64, xs ...float64) []*asgraph.Graph {
	gs := make([]*asgraph.Graph, len(xs))
	for i, x := range xs {
		gs[i] = topogen.MustGenerate(topogen.Default(n, seed))
		gs[i].SetCPTrafficFraction(x)
	}
	return gs
}

// resultBytes is res serialized without its per-round stats (wall times
// and cache counters are instrumentation, not outcome).
func resultBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	c := *res
	c.PristineStats = nil
	c.Rounds = append([]Round(nil), res.Rounds...)
	for i := range c.Rounds {
		c.Rounds[i].Stats = nil
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, &c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedStaticsWeightVariants: statics depend on the topology and
// the tiebreaker, never on traffic weights, so two handles over one
// statics core serve the x=0.10 and x=0.33 variants of a graph — the
// second variant's pristine pass runs no BFS at all — while each handle
// keeps its own pristine sidecars, which sum traffic weights. Every
// Result is byte-identical to a run without any shared store; one
// sidecar set for both handles would replay x=0.10 contributions into
// the x=0.33 game and fail here.
func TestSharedStaticsWeightVariants(t *testing.T) {
	gs := weightVariants(300, 7, 0.10, 0.33)
	adopters := append(gs[0].Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(gs[0], 3, asgraph.ISP)...)

	for _, model := range []UtilityModel{Outgoing, Incoming} {
		first := routing.NewSharedStaticCache(0)
		handles := []*routing.SharedStaticCache{first, first.Share()}
		var refs [][]byte
		for i, g := range gs {
			base := Config{
				Model:           model,
				Theta:           0.05,
				EarlyAdopters:   adopters,
				StubsBreakTies:  true,
				Workers:         1,
				RecordUtilities: true,
				RecordStats:     true,
			}
			ref := resultBytes(t, MustNew(g, base).Run())
			refs = append(refs, ref)
			cfg := base
			cfg.SharedStatics = handles[i]
			got := MustNew(g, cfg).Run()
			label := fmt.Sprintf("%s/x=%g", model, []float64{0.10, 0.33}[i])
			if !bytes.Equal(resultBytes(t, got), ref) {
				t.Errorf("%s: Result differs from the run without a shared store", label)
			}
			if ps := got.PristineStats; i == 1 && (ps.StaticMisses != 0 || ps.StaticHits == 0) {
				t.Errorf("%s: pristine pass hit %d and missed %d statics, want only hits on the first variant's core",
					label, ps.StaticHits, ps.StaticMisses)
			}
		}
		if bytes.Equal(refs[0], refs[1]) {
			t.Fatalf("%s: the two weight variants play identical games; the test cannot tell their sidecars apart", model)
		}
	}
}

// TestSharedStaticsWeightBindErrors: a handle accepts any graph of its
// core's topology and tiebreaker, but only one weight vector; another
// topology, another tiebreaker or other weights on one handle fail New.
func TestSharedStaticsWeightBindErrors(t *testing.T) {
	gs := weightVariants(120, 1, 0.10, 0.33, 0.10)
	other := topogen.MustGenerate(topogen.Default(120, 2))
	store := routing.NewSharedStaticCache(0)
	variant := store.Share()

	if _, err := New(gs[0], Config{Model: Outgoing, SharedStatics: store}); err != nil {
		t.Fatalf("first bind failed: %v", err)
	}
	if _, err := New(gs[2], Config{Model: Incoming, SharedStatics: store}); err != nil {
		t.Errorf("binding another instance with equal weights failed: %v", err)
	}
	if _, err := New(gs[1], Config{Model: Outgoing, SharedStatics: store}); err == nil {
		t.Error("binding a second weight vector to one handle did not fail")
	}
	if _, err := New(gs[1], Config{Model: Outgoing, SharedStatics: variant}); err != nil {
		t.Errorf("binding a weight variant to its own handle failed: %v", err)
	}
	if _, err := New(gs[0], Config{Model: Outgoing, SharedStatics: variant}); err == nil {
		t.Error("binding the first weight vector to the variant's handle did not fail")
	}
	if _, err := New(other, Config{Model: Outgoing, SharedStatics: variant}); err == nil {
		t.Error("binding a different topology to a shared core did not fail")
	}
	if _, err := New(other, Config{Model: Outgoing, SharedStatics: store.Share()}); err == nil {
		t.Error("binding a different topology to a fresh handle on the core did not fail")
	}
	if _, err := New(gs[1], Config{Model: Outgoing, SharedStatics: variant,
		Tiebreaker: routing.LowestIndex{}}); err == nil {
		t.Error("binding a second tiebreaker to a shared core did not fail")
	}
}

// TestSharedStaticsWeightVariantsConcurrent: two weight variants race on
// one statics core — both populate it and read each other's statics —
// and each still reproduces the bits of an engine on its own store. Run
// under -race in CI.
func TestSharedStaticsWeightVariantsConcurrent(t *testing.T) {
	xs := []float64{0.10, 0.33}
	gs := weightVariants(250, 11, xs...)
	adopters := append(gs[0].Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(gs[0], 3, asgraph.ISP)...)
	cfg := func(model UtilityModel) Config {
		return Config{
			Model:           model,
			Theta:           0.05,
			EarlyAdopters:   adopters,
			StubsBreakTies:  true,
			Workers:         2,
			RecordUtilities: true,
		}
	}

	for _, model := range []UtilityModel{Outgoing, Incoming} {
		first := routing.NewSharedStaticCache(0)
		handles := []*routing.SharedStaticCache{first, first.Share()}
		results := make([]*Result, len(gs))
		var wg sync.WaitGroup
		for i := range gs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c := cfg(model)
				c.SharedStatics = handles[i]
				results[i] = MustNew(gs[i], c).Run()
			}(i)
		}
		wg.Wait()
		for i, g := range gs {
			ref := MustNew(g, cfg(model)).Run()
			requireBitIdentical(t, fmt.Sprintf("%s/concurrent x=%g", model, xs[i]), ref, results[i])
		}
	}
}

// TestUndecodableSidecarsFallBack: a stored sidecar that fails
// DecodeSidecar is dropped, and its destination falls to processDest,
// which records a good one in its place. Before the run, payloads that
// cannot decode — another destination's, a truncated one, garbage — are
// planted for every destination through the engine's bound
// SharedStatics handle. The pristine pass, where every destination is
// insecure and untouchable, must replay none of them and re-record every
// one, and the Result must be bit-identical to the plain engine's.
func TestUndecodableSidecarsFallBack(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	n := g.N()
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		base := Config{Model: model, Theta: 0.05, EarlyAdopters: adopters, StubsBreakTies: true,
			Workers: 1, RecordUtilities: true, RecordStats: true}
		ref := MustNew(g, base).Run()

		store := routing.NewSharedStaticCache(0)
		cfg := base
		cfg.SharedStatics = store
		s := MustNew(g, cfg) // binds store
		kind := uint8(model)
		for d := int32(0); d < int32(n); d++ {
			var bad []byte
			switch d % 3 {
			case 0:
				bad = routing.AppendSidecar(nil, (d+1)%int32(n), n, kind, nil)
			case 1:
				good := routing.AppendSidecar(nil, d, n, kind, []routing.SidecarEntry{{Node: 0, Bits: 1}})
				bad = good[:len(good)-1]
			default:
				bad = []byte{0xff, 0, 0, 0, 0, 0}
			}
			if !store.SidecarPut(kind, d, bad) {
				t.Fatalf("%s: planting a payload for %d was rejected", model, d)
			}
		}
		got := s.Run()
		requireBitIdentical(t, model.String()+"/undecodable sidecars", ref, got)
		ps := got.PristineStats
		if ps.PristineReplays != 0 || ps.PristineRecords != int64(n) || ref.PristineStats.PristineRecords != int64(n) {
			t.Errorf("%s: pristine pass replayed %d and re-recorded %d sidecars (plain engine recorded %d), want 0 and %d",
				model, ps.PristineReplays, ps.PristineRecords, ref.PristineStats.PristineRecords, n)
		}
		for d := int32(0); d < int32(n); d++ {
			if _, ok := routing.DecodeSidecar(store.SidecarGet(kind, d), d, n, kind, nil); !ok {
				t.Fatalf("%s: the sidecar of %d still fails to decode after the run", model, d)
			}
		}
	}
}
