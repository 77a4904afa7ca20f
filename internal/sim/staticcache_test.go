package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// utilsBitIdentical compares float slices bit for bit (NaN == NaN, so
// the NaN markers on non-ISP entries compare equal).
func utilsBitIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireBitIdentical fails unless two Results agree on every decision
// and every recorded utility bit — the strongest equality the engine
// promises (per-round Stats are instrumentation and excluded).
func requireBitIdentical(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(decisionsOf(ref), decisionsOf(got)) {
		t.Errorf("%s: decisions differ", label)
		return
	}
	if !utilsBitIdentical(ref.PristineUtil, got.PristineUtil) {
		t.Errorf("%s: pristine utilities differ", label)
	}
	for r := range ref.Rounds {
		if !utilsBitIdentical(ref.Rounds[r].UtilBase, got.Rounds[r].UtilBase) {
			t.Errorf("%s: round %d base utilities differ", label, r)
		}
		if !utilsBitIdentical(ref.Rounds[r].UtilProj, got.Rounds[r].UtilProj) {
			t.Errorf("%s: round %d projected utilities differ", label, r)
		}
	}
}

// TestStaticCacheResultInvariant: the static cache is a pure
// memoization — any budget (default, starved to 1 byte, or one small
// enough to force constant recomputation), here that of a caller-owned
// store beside default-budget records, produces bit-identical Results,
// including every recorded utility. This is the invariant that lets
// Config.Fingerprint exclude CacheBytes and SharedStatics.
func TestStaticCacheResultInvariant(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)

	// ~10 KB per snapshot at N=300: a 40 KB budget caches a handful of
	// destinations and recomputes the rest every round.
	const tinyBudget = 40_000

	for _, model := range []UtilityModel{Outgoing, Incoming} {
		for _, projectStubs := range []bool{false, true} {
			base := Config{
				Model:               model,
				Theta:               0.05,
				EarlyAdopters:       adopters,
				StubsBreakTies:      true,
				ProjectStubUpgrades: projectStubs,
				Workers:             1,
				RecordUtilities:     true,
				RecordStats:         true,
			}
			label := func(budget int64) string {
				return model.String() + "/projectstubs=" + map[bool]string{false: "off", true: "on"}[projectStubs] +
					"/budget=" + map[int64]string{0: "default", 1: "starved", tinyBudget: "tiny"}[budget]
			}

			cfgRef := base // budget 0: engine default, fully cached
			ref := MustNew(g, cfgRef).Run()
			assertCacheActivity(t, label(0), ref, func(hits, misses int64) bool { return hits > 0 })

			for _, budget := range []int64{1, tinyBudget} {
				cfg := base
				cfg.SharedStatics = routing.NewSharedStaticCache(budget)
				got := MustNew(g, cfg).Run()
				requireBitIdentical(t, label(budget), ref, got)
				if budget == 1 {
					assertCacheActivity(t, label(budget), got, func(hits, misses int64) bool {
						return hits == 0 && misses > 0
					})
				} else {
					// The tiny budget must actually force recomputation —
					// otherwise this subtest silently stops testing evictions.
					assertCacheActivity(t, label(budget), got, func(hits, misses int64) bool {
						return misses > hits && misses > 0
					})
				}
			}
		}
	}
}

// assertCacheActivity checks a predicate over the total static-cache
// hit/miss counters across all recorded rounds.
func assertCacheActivity(t *testing.T, label string, res *Result, ok func(hits, misses int64) bool) {
	t.Helper()
	var hits, misses int64
	for _, rd := range res.Rounds {
		if rd.Stats != nil {
			hits += rd.Stats.StaticHits
			misses += rd.Stats.StaticMisses
		}
	}
	if !ok(hits, misses) {
		t.Errorf("%s: unexpected static-cache activity: %d hits, %d misses", label, hits, misses)
	}
}

// TestStaticCacheSharedAcrossRuns: repeated Run calls on one Sim share
// the engine's store — the second run's rounds serve statics entirely
// from snapshots filled by the first.
func TestStaticCacheSharedAcrossRuns(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(200, 3))
	g.SetCPTrafficFraction(0.10)
	cfg := Config{
		Model:          Outgoing,
		Theta:          0.05,
		EarlyAdopters:  append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...),
		StubsBreakTies: true,
		Workers:        1,
		RecordStats:    true,
	}
	s := MustNew(g, cfg)
	first := s.Run()
	second := s.Run()
	requireBitIdentical(t, "second run", first, second)
	for r, rd := range second.Rounds {
		if rd.Stats.StaticMisses != 0 {
			t.Fatalf("second run round %d: %d static misses, want everything served from the first run's cache",
				r, rd.Stats.StaticMisses)
		}
		// Every destination is served warm: a cached static snapshot, a
		// clean dynamic-cache replay (which needs no static at all), a
		// pristine-contribution sidecar replay recorded by the first run,
		// or a sibling leaf's class memo.
		served := rd.Stats.StaticHits + int64(rd.Stats.CleanDests) + rd.Stats.PristineReplays + rd.Stats.ClassReplays
		if served != int64(g.N()) {
			t.Fatalf("second run round %d: %d static hits + %d clean + %d replayed + %d class-replayed = %d served, want %d",
				r, rd.Stats.StaticHits, rd.Stats.CleanDests, rd.Stats.PristineReplays, rd.Stats.ClassReplays, served, g.N())
		}
	}
}

// TestSidecarRecordsCountStoredOnly: a resident store too small to
// admit any sidecar, and no disk store, keeps none — so no round may
// report a recorded one (each round recomputes and re-offers them
// instead) and none can be replayed.
func TestSidecarRecordsCountStoredOnly(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg := Config{
			Model:          model,
			Theta:          0.05,
			EarlyAdopters:  append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...),
			StubsBreakTies: true,
			SharedStatics:  routing.NewSharedStaticCache(1),
			Workers:        2,
			RecordStats:    true,
		}
		res := MustNew(g, cfg).Run()
		passes := []*RoundStats{res.PristineStats}
		for _, rd := range res.Rounds {
			passes = append(passes, rd.Stats)
		}
		for p, st := range passes {
			if st.PristineRecords != 0 || st.PristineReplays != 0 {
				t.Errorf("%s pass %d: %d sidecars recorded, %d replayed, with nowhere to keep one",
					model, p, st.PristineRecords, st.PristineReplays)
			}
		}
	}
}

// TestPackedStaticsFollowReads: once the resident static tier has gone
// packed, it keeps a static only where a later pass reads it. Under a
// store budget that forces the packed phase from the first admission
// (a caller-owned store, beside default-budget records), the
// pristine pass keeps just that first static per worker — every
// destination's sidecar serves it from then on, and none is starved —
// and round 1 looks up exactly its record holders' statics, missing all
// but those few. The unpacked phase, where everything fits, still
// admits every static it computes. Either way the Result is the plain
// engine's, bit for bit.
func TestPackedStaticsFollowReads(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(1000, 42))
	g.SetCPTrafficFraction(0.10)
	n := int64(g.N())
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		base := Config{
			Model:           model,
			Theta:           0.05,
			EarlyAdopters:   append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 5, asgraph.ISP)...),
			StubsBreakTies:  true,
			Workers:         2,
			RecordUtilities: true,
			RecordStats:     true,
		}
		plain := base
		plain.CacheBytes = 1
		ref := MustNew(g, plain).Run()

		packed := base
		packed.SharedStatics = routing.NewSharedStaticCache(2_000_000)
		got := MustNew(g, packed).Run()
		requireBitIdentical(t, model.String()+"/packed", ref, got)
		ps := got.PristineStats
		if ps.StaticPackedEntries == 0 || len(got.Rounds) == 0 {
			t.Fatalf("%s: the budget did not force the packed phase (%d packed) or the game had no round", model, ps.StaticPackedEntries)
		}
		if ps.StaticCacheEntries > base.Workers {
			t.Errorf("%s: pristine pass left %d statics resident, want at most %d (one per worker)",
				model, ps.StaticCacheEntries, base.Workers)
		}
		if ps.PristineRecords != n {
			t.Errorf("%s: pristine pass recorded %d sidecars, want all %d", model, ps.PristineRecords, n)
		}
		r1 := got.Rounds[0].Stats
		if r1.StaticHits+r1.StaticMisses != int64(r1.DirtyDests) || r1.StaticHits > int64(ps.StaticCacheEntries) {
			t.Errorf("%s: round 1 static %d/%d hit over %d dirty destinations, want every record holder looked up and at most the %d pristine residents hit",
				model, r1.StaticHits, r1.StaticHits+r1.StaticMisses, r1.DirtyDests, ps.StaticCacheEntries)
		}

		def := MustNew(g, base).Run()
		requireBitIdentical(t, model.String()+"/default", ref, def)
		ps = def.PristineStats
		if ps.StaticPackedEntries != 0 {
			t.Fatalf("%s: the default budget went packed at N=%d", model, n)
		}
		if int64(ps.StaticCacheEntries) != ps.StaticMisses {
			t.Errorf("%s: unpacked pristine pass kept %d of the %d statics it computed, want all",
				model, ps.StaticCacheEntries, ps.StaticMisses)
		}
	}
}

// TestPlainEngineCounters pins the plain-engine contract of a 1-byte
// cache budget, which no static, sidecar or record fits: over a whole
// game of sbgpsim's default N=1,000 setup, in both models, the pristine
// pass and every round report no static hit, no pristine replay, no
// clean destination and no record, and the Result is bit-identical to
// the default budget's.
func TestPlainEngineCounters(t *testing.T) {
	g, cfg := cliGame()
	cfg.RecordUtilities = true
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg.Model = model
		plain := cfg
		plain.CacheBytes = 1
		got := MustNew(g, plain).Run()
		requireBitIdentical(t, model.String(), MustNew(g, cfg).Run(), got)
		passes := []*RoundStats{got.PristineStats}
		for _, rd := range got.Rounds {
			passes = append(passes, rd.Stats)
		}
		for p, st := range passes {
			if st.StaticHits != 0 || st.PristineReplays != 0 || st.CleanDests != 0 || st.DynCacheEntries != 0 {
				t.Errorf("%s pass %d: %d static hits, %d pristine replays, %d clean, %d records; want none",
					model, p, st.StaticHits, st.PristineReplays, st.CleanDests, st.DynCacheEntries)
			}
		}
	}
}

// TestStaticCacheFingerprintExcluded: CacheBytes must not enter the
// config fingerprint (any budget yields the same Result), while
// trajectory-shaping fields must.
func TestStaticCacheFingerprintExcluded(t *testing.T) {
	base := Config{Model: Incoming, Theta: 0.1, EarlyAdopters: []int32{1, 2}}
	for _, budget := range []int64{1, 1 << 20, 1 << 40} {
		c := base
		c.CacheBytes = budget
		if c.Fingerprint() != base.Fingerprint() {
			t.Errorf("CacheBytes=%d changed the fingerprint", budget)
		}
	}
	c := base
	c.Theta = 0.2
	if c.Fingerprint() == base.Fingerprint() {
		t.Error("Theta change did not change the fingerprint")
	}
}

// TestStaticBatchHintsCostNoBits: the serving plan's build marks, from
// which buildStatic cuts a worker's static batches, are only hints. A
// plan that marks no build (every build width 1), one that marks every
// stripe destination (every unneeded lane wasted) and the plan as made
// all produce bit-identical Results, under the default cache budget
// and under one that forces rebuilds every round.
func TestStaticBatchHintsCostNoBits(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(400, 11))
	adopters := append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		for _, budget := range []int64{0, 40_000} {
			cfg := Config{Model: model, Theta: 0.05, EarlyAdopters: adopters, StubsBreakTies: true,
				Workers: 2, RecordUtilities: true, CacheBytes: budget}
			run := func(mark func(*destPlan)) (*Result, *Sim) {
				s := MustNew(g, cfg)
				for _, wk := range s.local.pool {
					if mark != nil {
						wk.onPlan = func(plans []destPlan) {
							for k := range plans {
								mark(&plans[k])
							}
						}
					}
				}
				return s.Run(), s
			}
			label := fmt.Sprintf("%s/budget=%d", model, budget)
			ref, s := run(func(p *destPlan) { p.build = false })
			for _, wk := range s.local.pool {
				if wk.batch != nil {
					t.Errorf("%s: a plan with no builds built a batch", label)
				}
			}
			got, s := run(nil)
			requireBitIdentical(t, label+"/planned", ref, got)
			batched := false
			for _, wk := range s.local.pool {
				batched = batched || (wk.batch != nil && len(wk.batch.Dests()) > 1)
			}
			if !batched {
				t.Errorf("%s: no worker built a batch", label)
			}
			all, _ := run(func(p *destPlan) { p.build = true })
			requireBitIdentical(t, label+"/all-build", ref, all)
		}
	}
}

// TestPlanBuildsRecordHoldersStatics: under a budget that admits
// records but rejects statics, a record holder's static is rebuilt every
// round, so the plan must mark it build like any other destination's —
// otherwise buildStatic meets it unplanned and builds it alone, at
// width 1. Every plan entry holding a record and no resident or stored
// static is marked build.
func TestPlanBuildsRecordHoldersStatics(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(400, 11))
	adopters := append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg := Config{Model: model, Theta: 0.05, EarlyAdopters: adopters, StubsBreakTies: true,
			Workers: 2, CacheBytes: 40_000}
		s := MustNew(g, cfg)
		// Per worker: the hooks run concurrently.
		starvedBy, unmarkedBy := make([]int, len(s.local.pool)), make([]int, len(s.local.pool))
		for w, wk := range s.local.pool {
			wk.onPlan = func(plans []destPlan) {
				for k := range plans {
					d := wk.shard + int32(k)*wk.stride
					if p := &plans[k]; p.rec != nil && !wk.statics.Has(d) && !wk.disk.Has(d) {
						starvedBy[w]++
						if !p.build {
							unmarkedBy[w]++
						}
					}
				}
			}
		}
		s.Run()
		var starved, unmarked int
		for w := range starvedBy {
			starved, unmarked = starved+starvedBy[w], unmarked+unmarkedBy[w]
		}
		if starved == 0 {
			t.Fatalf("%s: no record holder went without its static: the budget does not starve the store", model)
		}
		if unmarked != 0 {
			t.Errorf("%s: %d of %d plan entries of record holders without a static not marked build", model, unmarked, starved)
		}
	}
}
