package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// assertDynActivity checks a predicate over the per-round dynamic-cache
// counters summed across all recorded rounds.
func assertDynActivity(t *testing.T, label string, res *Result, ok func(clean, dirty, evictions int64) bool) {
	t.Helper()
	var clean, dirty, evictions int64
	for _, rd := range res.Rounds {
		if rd.Stats != nil {
			clean += int64(rd.Stats.CleanDests)
			dirty += int64(rd.Stats.DirtyDests)
			evictions += rd.Stats.DynCacheEvictions
		}
	}
	if !ok(clean, dirty, evictions) {
		t.Errorf("%s: unexpected dynamic-cache activity: %d clean, %d dirty, %d evictions",
			label, clean, dirty, evictions)
	}
}

// TestDynCacheResultInvariant: the cross-round dynamic cache is a pure
// memoization — at the default budget, at 1 byte (which holds no
// record), or strangled to a budget that forces evictions, the Result is
// bit-identical to the non-incremental engine, including every recorded
// utility. The statics are held apart in a default-budget store of the
// caller's own, so only the records' budget moves. Beside the N=300
// ladder, sbgpsim's default N=1,000 game over two shards runs with
// records on and off. This is the invariant that lets
// Config.Fingerprint exclude CacheBytes.
func TestDynCacheResultInvariant(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)

	// A record's floor is its fixed overhead; its tree diff and entries
	// add tens to hundreds of bytes on top. Eviction therefore triggers
	// only when the last-admitted record's refresh outgrows a slack
	// smaller than its growth — a budget of k·floor+8 for the right k.
	// The right k depends on the graph and model, so the test walks a
	// ladder of them and demands the eviction path fired somewhere; every
	// rung must stay bit-identical regardless.
	floor := int64(dynRecordMinimum)

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
				return fmt.Sprintf("%s/projectstubs=%v/dyn=%d", model, projectStubs, budget)
			}

			ref := MustNew(g, recordsOff(base)).Run() // the non-incremental engine
			assertDynActivity(t, label(1), ref, func(clean, dirty, ev int64) bool {
				return clean == 0 && dirty == 0 && ev == 0
			})

			cfg := base // budget 0: engine default
			got := MustNew(g, cfg).Run()
			requireBitIdentical(t, label(0), ref, got)
			// Only engagement is asserted: a record replays clean only in
			// a base-only round, and a game's one base-only round is the
			// pristine pass, which admits none — every record a game
			// holds is dirty. Clean replay is pinned on a repeated
			// base-only round by TestDynCacheRepeatedRoundReplay.
			assertDynActivity(t, label(0), got, func(clean, dirty, ev int64) bool {
				return dirty > 0
			})

			var evTotal int64
			for k := int64(1); k <= 16; k++ {
				budget := k*floor + 8
				cfg = base
				cfg.CacheBytes = budget
				cfg.SharedStatics = routing.NewSharedStaticCache(0)
				got = MustNew(g, cfg).Run()
				requireBitIdentical(t, label(budget), ref, got)
				assertDynActivity(t, label(budget), got, func(clean, dirty, ev int64) bool {
					evTotal += ev
					return true
				})
			}
			// Some rung must actually force evictions — otherwise this
			// subtest silently stops covering the eviction path.
			if evTotal == 0 {
				t.Errorf("%s/projectstubs=%v: no evictions anywhere on the budget ladder",
					model, projectStubs)
			}
		}
	}

	cg, cli := cliGame()
	cli.RecordUtilities = true
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cli.Model = model
		requireBitIdentical(t, "cli/"+model.String(), MustNew(cg, recordsOff(cli)).Run(), MustNew(cg, cli).Run())
	}
}

// recordsOff returns cfg with a cache budget of 1 byte, which holds no
// dynamic record, beside a default-budget static store of the caller's
// own: the records-off, statics-on engine.
func recordsOff(cfg Config) Config {
	cfg.CacheBytes = 1
	cfg.SharedStatics = routing.NewSharedStaticCache(0)
	return cfg
}

// cliGame is sbgpsim's default game at -n 1000 -workers 2: the seed-42
// topology at x=0.10, the content providers and top five ISPs as early
// adopters, θ=0.05, stubs breaking ties and the seed-42 hash tiebreaker.
func cliGame() (*asgraph.Graph, Config) {
	g := topogen.MustGenerate(topogen.Default(1000, 42))
	g.SetCPTrafficFraction(0.10)
	return g, Config{
		Theta:          0.05,
		EarlyAdopters:  append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 5, asgraph.ISP)...),
		StubsBreakTies: true,
		Tiebreaker:     routing.HashTiebreaker{Seed: 42},
		Workers:        2,
		RecordStats:    true,
	}
}

// TestDynCacheRecordsCompact: a record holds its tree as a diff against
// the static's winner tree, not as Parent and Secure arrays, so across a
// whole N=2,000 game in either model the average record stays below the
// 5·N bytes those arrays alone would take.
func TestDynCacheRecordsCompact(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(2000, 42))
	g.SetCPTrafficFraction(0.10)
	n := int64(g.N())
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg := Config{
			Model:          model,
			Theta:          0.05,
			EarlyAdopters:  append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 5, asgraph.ISP)...),
			StubsBreakTies: true,
			Workers:        2,
			RecordStats:    true,
		}
		res := MustNew(g, cfg).Run()
		recorded := false
		for r, rd := range res.Rounds {
			if e := int64(rd.Stats.DynCacheEntries); e > 0 {
				recorded = true
				if per := rd.Stats.DynCacheBytes / e; per >= 5*n {
					t.Errorf("%s round %d: %d records average %d bytes, want < 5·N = %d", model, r, e, per, 5*n)
				}
			}
		}
		if !recorded {
			t.Errorf("%s: no round held a record", model)
		}
	}
}

// TestDynCacheAccounting unit-tests the cache's byte accounting and
// eviction policy directly: admission reserves the record floor, resize
// re-accounts grown entries, a resize past the budget evicts and
// permanently blocks the destination, and the counters track all of it.
func TestDynCacheAccounting(t *testing.T) {
	floor := int64(dynRecordMinimum)
	c := newDynCache(floor + 10*dynEntryBytes)

	rec := c.admit(3)
	if rec == nil {
		t.Fatal("admit within budget returned nil")
	}
	if c.bytes != floor || len(c.entries) != 1 {
		t.Fatalf("after admit: %d bytes, %d entries, want %d bytes, 1 entry",
			c.bytes, len(c.entries), floor)
	}
	if c.get(3) != rec {
		t.Fatal("get did not return the admitted record")
	}
	if c.admit(4) != nil {
		t.Error("second admit should not fit the remaining budget")
	}

	// Grow within budget: 10 entries fill it exactly.
	rec.base = make([]contribEntry, 10)
	if c.resize(rec) {
		t.Fatal("resize within budget evicted")
	}
	if want := floor + 10*dynEntryBytes; c.bytes != want {
		t.Fatalf("after resize: %d bytes, want %d", c.bytes, want)
	}

	// One more entry breaks the budget: evict and block.
	rec.base = append(rec.base, contribEntry{})
	if !c.resize(rec) {
		t.Fatal("resize past budget did not evict")
	}
	if c.bytes != 0 || len(c.entries) != 0 || c.evictions != 1 {
		t.Fatalf("after eviction: %d bytes, %d entries, %d evictions, want 0/0/1",
			c.bytes, len(c.entries), c.evictions)
	}
	if c.get(3) != nil {
		t.Error("evicted record still retrievable")
	}
	if c.admit(3) != nil {
		t.Error("evicted destination was re-admitted")
	}

	// Other destinations still fit; purge clears records but keeps the
	// lifetime eviction count and the block list.
	if c.admit(5) == nil {
		t.Fatal("fresh destination refused after eviction freed the budget")
	}
	c.purge()
	if c.bytes != 0 || len(c.entries) != 0 {
		t.Fatalf("after purge: %d bytes, %d entries", c.bytes, len(c.entries))
	}
	if c.evictions != 1 {
		t.Errorf("purge reset the lifetime eviction count: %d", c.evictions)
	}
	if c.admit(3) != nil {
		t.Error("purge unblocked an evicted destination")
	}
}

// TestDynCacheQuickDifferential property-tests bit-identity over random
// graphs: for arbitrary model / tie-break / projection / worker-count
// combinations, the caches at the default budget and under a budget
// tiny enough to evict must reproduce the plain engine's (a 1-byte
// budget, which holds nothing) Result bit for bit — decisions,
// oscillation verdicts, and every recorded utility.
func TestDynCacheQuickDifferential(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 6+rng.Intn(20), 0.14, 0.1, 0.25)
		var adopters []int32
		for i := int32(0); i < int32(g.N()); i++ {
			if rng.Float64() < 0.3 {
				adopters = append(adopters, i)
			}
		}
		cfg := Config{
			Model:               []UtilityModel{Outgoing, Incoming}[rng.Intn(2)],
			Theta:               []float64{0, 0.05, 0.2}[rng.Intn(3)],
			EarlyAdopters:       adopters,
			StubsBreakTies:      rng.Intn(2) == 0,
			ProjectStubUpgrades: rng.Intn(2) == 0,
			Workers:             1 + rng.Intn(3),
			Tiebreaker:          routing.HashTiebreaker{Seed: uint64(seed)},
			MaxRounds:           60,
			RecordUtilities:     true,
		}
		cfgOff := cfg
		cfgOff.CacheBytes = 1
		ref := MustNew(g, cfgOff).Run()
		for _, budget := range []int64{0, 2048} {
			c := cfg
			c.CacheBytes = budget
			got := MustNew(g, c).Run()
			if !reflect.DeepEqual(decisionsOf(ref), decisionsOf(got)) {
				t.Logf("seed %d budget %d: decisions diverge", seed, budget)
				return false
			}
			if got.Oscillated != ref.Oscillated || got.CycleStart != ref.CycleStart || got.CycleLen != ref.CycleLen {
				t.Logf("seed %d budget %d: oscillation verdict diverges", seed, budget)
				return false
			}
			if !utilsBitIdentical(ref.PristineUtil, got.PristineUtil) {
				t.Logf("seed %d budget %d: pristine utilities diverge", seed, budget)
				return false
			}
			for r := range ref.Rounds {
				if !utilsBitIdentical(ref.Rounds[r].UtilBase, got.Rounds[r].UtilBase) ||
					!utilsBitIdentical(ref.Rounds[r].UtilProj, got.Rounds[r].UtilProj) {
					t.Logf("seed %d budget %d: round %d utilities diverge", seed, budget, r)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDynCacheRepeatedRoundReplay: re-evaluating the same state reuses
// every record. A repeated base-only round is served entirely by
// replays — from its record, or from its sidecar where it holds none —
// with no resolution work at all. A repeated projected round resolves
// no base tree either, but recomputes its projections against the
// records' trees: exactly the projection work of the first, and the
// first's floats bit for bit.
func TestDynCacheRepeatedRoundReplay(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(250, 11))
	g.SetCPTrafficFraction(0.10)
	cfg := Config{
		Model:          Incoming,
		Theta:          0.05,
		StubsBreakTies: true,
		Workers:        2,
		RecordStats:    true,
	}
	s := MustNew(g, cfg)
	secure := make([]bool, g.N())
	for _, a := range append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 5, asgraph.ISP)...) {
		secure[a] = true
	}
	round := func(projected bool) (uBase, uProj []float64, stats *RoundStats) {
		t.Helper()
		b, p, stats, err := s.RoundUtilities(secure, projected)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), b...), append([]float64(nil), p...), stats
	}

	base1, _, _ := round(false)
	base2, _, stats := round(false)
	if !utilsBitIdentical(base1, base2) {
		t.Error("replayed base-only round diverges from the computed one")
	}
	// Recorded (secure) destinations replay clean; insecure ones hold no
	// record and replay their sidecar.
	if served := int64(stats.CleanDests) + stats.PristineReplays; served != int64(g.N()) || stats.DirtyDests != 0 {
		t.Errorf("second base-only round: %d clean + %d replayed, %d dirty, want all %d served and none dirty",
			stats.CleanDests, stats.PristineReplays, stats.DirtyDests, g.N())
	}
	if stats.CleanDests == 0 || stats.PristineReplays == 0 {
		t.Errorf("second base-only round: %d clean, %d replayed, want both tiers exercised",
			stats.CleanDests, stats.PristineReplays)
	}
	if stats.BaseResolutions != 0 || stats.ProjResolutions != 0 {
		t.Errorf("second base-only round resolved %d base, %d projected trees, want none",
			stats.BaseResolutions, stats.ProjResolutions)
	}

	pBase1, pProj1, stats1 := round(true)
	pBase2, pProj2, stats2 := round(true)
	if !utilsBitIdentical(pBase1, pBase2) || !utilsBitIdentical(pProj1, pProj2) {
		t.Error("repeated projected round diverges from the first")
	}
	if !utilsBitIdentical(base1, pBase2) {
		t.Error("projected round's base utilities diverge from the base-only round's")
	}
	if stats2.BaseResolutions != 0 {
		t.Errorf("repeated projected round resolved %d base trees, want none", stats2.BaseResolutions)
	}
	// Every record is dirty in a candidate round: its projections rerun.
	if stats2.CleanDests != 0 || stats2.DirtyDests == 0 {
		t.Errorf("repeated projected round: %d clean, %d dirty, want every record dirty",
			stats2.CleanDests, stats2.DirtyDests)
	}
	if stats2.ProjResolutions == 0 || stats2.ProjResolutions != stats1.ProjResolutions ||
		stats2.ProjUnchanged != stats1.ProjUnchanged {
		t.Errorf("repeated projected round: %d projected (%d unchanged), first round %d (%d), want equal and nonzero",
			stats2.ProjResolutions, stats2.ProjUnchanged, stats1.ProjResolutions, stats1.ProjUnchanged)
	}
}

// TestDynRecordsKeepProjectionWork: a record serves its destination's
// base tree and base contributions and nothing else, so with records on
// or off every round runs the same projections — the same C.4 skips,
// the same predictor verdicts, the same change propagations over the
// same nodes — across Model × StubsBreakTies × ProjectStubUpgrades at
// N=600 on one and three workers, and in sbgpsim's default N=1,000
// game on two workers by default, with projected stub upgrades and with
// stubs that do not break ties.
func TestDynRecordsKeepProjectionWork(t *testing.T) {
	projWork := func(st *RoundStats) [8]int64 {
		return [8]int64{st.ProjResolutions, st.ProjUnchanged,
			st.SkipZeroUtil, st.SkipInsecureDest, st.SkipDestFlip, st.SkipTurnOff, st.SkipTurnOn,
			st.NodesRecomputed}
	}
	compare := func(label string, g *asgraph.Graph, cfg Config) {
		on := MustNew(g, cfg).Run()
		off := MustNew(g, recordsOff(cfg)).Run()
		if len(on.Rounds) != len(off.Rounds) {
			t.Fatalf("%s: %d rounds with records, %d without", label, len(on.Rounds), len(off.Rounds))
		}
		recorded := false
		for r := range on.Rounds {
			a, b := on.Rounds[r].Stats, off.Rounds[r].Stats
			recorded = recorded || a.DynCacheEntries > 0
			if b.DynCacheEntries != 0 {
				t.Errorf("%s round %d: %d records at a 1-byte budget", label, r, b.DynCacheEntries)
			}
			if projWork(a) != projWork(b) {
				t.Errorf("%s round %d: projection counters %v with records, %v without", label, r, projWork(a), projWork(b))
			}
		}
		if !recorded {
			t.Errorf("%s: no round held a record", label)
		}
	}

	g := topogen.MustGenerate(topogen.Default(600, 42))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 5, asgraph.ISP)...)
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		for _, breaks := range []bool{true, false} {
			for _, projectStubs := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					compare(fmt.Sprintf("%s/breaks=%v/projectstubs=%v/workers=%d", model, breaks, projectStubs, workers), g, Config{
						Model:               model,
						Theta:               0.05,
						EarlyAdopters:       adopters,
						StubsBreakTies:      breaks,
						ProjectStubUpgrades: projectStubs,
						Workers:             workers,
						RecordStats:         true,
					})
				}
			}
		}
	}

	cg, cli := cliGame()
	policies := []struct {
		flag                 string
		breaks, projectStubs bool
	}{{"", true, false}, {"/project-stubs", true, true}, {"/stubs-break-ties=false", false, false}}
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		for _, p := range policies {
			cfg := cli
			cfg.Model, cfg.StubsBreakTies, cfg.ProjectStubUpgrades = model, p.breaks, p.projectStubs
			compare("cli/"+model.String()+p.flag, cg, cfg)
		}
	}
}

// TestDynCacheFingerprintExcluded: a caller-owned static store, which
// with CacheBytes decides every tier's budget, and the observability
// toggles must not enter the config fingerprint.
func TestDynCacheFingerprintExcluded(t *testing.T) {
	base := Config{Model: Incoming, Theta: 0.1, EarlyAdopters: []int32{1, 2}}
	c := base
	c.CacheBytes, c.SharedStatics = 1, routing.NewSharedStaticCache(0)
	if c.Fingerprint() != base.Fingerprint() {
		t.Error("a records-off, statics-on budget changed the fingerprint")
	}
	c = base
	c.RecordStats, c.RecordUtilities = true, true
	if c.Fingerprint() != base.Fingerprint() {
		t.Error("RecordStats or RecordUtilities changed the fingerprint")
	}
}

// TestRecordStatsDecisions: per-round stats are observability only —
// decisions are identical with them off and on — and they carry the
// heap the round allocated: the pristine pass allocates the engine's
// stores, so its AllocBytes cannot read 0.
func TestRecordStatsDecisions(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 5))
	g.SetCPTrafficFraction(0.10)
	base := Config{
		Model:          Outgoing,
		Theta:          0.05,
		EarlyAdopters:  append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...),
		StubsBreakTies: true,
		Workers:        1,
	}
	ref := MustNew(g, base).Run()

	cfg := base
	cfg.RecordStats = true
	statsOn := MustNew(g, cfg).Run()
	if !reflect.DeepEqual(decisionsOf(ref), decisionsOf(statsOn)) {
		t.Error("RecordStats changed decisions")
	}
	for r, rd := range statsOn.Rounds {
		if rd.Stats == nil {
			t.Fatalf("round %d: RecordStats set but no stats recorded", r)
		}
	}
	if statsOn.PristineStats.AllocBytes == 0 {
		t.Error("pristine pass recorded AllocBytes 0")
	}
}

// TestSyncDynPurgesOnBreaksOnlyChange: a tie-break flag that changes
// without its secure flag cannot be advanced across as a flip, so
// syncDyn purges every record and the round resolves afresh. No Run
// produces such a state, but a RoundState from the dist wire can. Drive
// ComputeRound from a state to one that differs only in tie-break flags
// and require a fresh engine's partials bit for bit: in a base-only
// round, where every record would otherwise replay clean, and in a
// candidate round.
func TestSyncDynPurgesOnBreaksOnlyChange(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	n := g.N()
	type partial struct{ base, delta []float64 }
	compute := func(e *ShardEngine, st RoundState, cands []int32) (out []partial, clean int) {
		for _, p := range e.ComputeRound(st, cands) {
			out = append(out, partial{append([]float64(nil), p.UBase...), append([]float64(nil), p.UDelta...)})
			clean += p.Stats.CleanDests
		}
		return out, clean
	}
	rng := rand.New(rand.NewSource(11))
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg := Config{Model: model, StubsBreakTies: true}
		st := randomSimplexState(rng, g, 0.5, true)
		before := RoundState{Secure: st.secure, Breaks: st.breaks}
		after := RoundState{Secure: st.secure, Breaks: make([]bool, n)} // no secure node breaks ties
		for _, cands := range [][]int32{nil, g.ISPs()} {
			label := fmt.Sprintf("%s/candidates=%d", model, len(cands))
			newEngine := func() *ShardEngine {
				e, err := NewShardEngine(g, cfg, []int{0, 1}, 2)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			want, _ := compute(newEngine(), after, cands)
			if stale, _ := compute(newEngine(), before, cands); reflect.DeepEqual(stale, want) {
				t.Fatalf("%s: the tie-break change moves no utility: the purge goes untested", label)
			}
			e := newEngine()
			compute(e, before, cands)
			got, clean := compute(e, after, cands)
			if clean != 0 {
				t.Errorf("%s: %d destinations replayed clean across a tie-break change", label, clean)
			}
			for s := range want {
				for i := range want[s].base {
					if math.Float64bits(got[s].base[i]) != math.Float64bits(want[s].base[i]) ||
						math.Float64bits(got[s].delta[i]) != math.Float64bits(want[s].delta[i]) {
						t.Fatalf("%s: shard %d node %d: (%v, %v) after the change, a fresh engine gives (%v, %v)",
							label, s, i, got[s].base[i], got[s].delta[i], want[s].base[i], want[s].delta[i])
					}
				}
			}
		}
	}
}

// TestReusedSimMatchesFresh: a Sim reused across Runs and RoundUtilities
// probes holds its records across state jumps far larger than a round's
// flip set — a second Run's pristine pass, and probes between the game's
// final state and others, each flip more than N/3 nodes — and advances
// them by change propagation across the whole jump. A base-only probe
// of an unchanged state then serves every record holder by replaying
// its recorded base through processDest. Every result must be
// bit-identical to a fresh Sim's, at the default budget and at one that
// holds only a few records.
func TestReusedSimMatchesFresh(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(400, 9))
	g.SetCPTrafficFraction(0.10)
	n := g.N()
	adopters := append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 5, asgraph.ISP)...)
	held := func(s *Sim) (records int) {
		for _, wk := range s.local.pool {
			records += len(wk.dyn.entries)
		}
		return records
	}
	flips := func(a, b []bool) (k int) {
		for i := range a {
			if a[i] != b[i] {
				k++
			}
		}
		return k
	}
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		for _, budget := range []int64{0, 2048} {
			label := fmt.Sprintf("%s/budget=%d", model, budget)
			cfg := Config{Model: model, Theta: 0.05, EarlyAdopters: adopters, StubsBreakTies: true,
				Workers: 2, RecordUtilities: true, RecordStats: true, CacheBytes: budget}
			fresh := MustNew(g, cfg).Run()
			final := fresh.FinalSecure
			pristine := make([]bool, n)
			if k := flips(final, pristine); k <= n/3 {
				t.Fatalf("%s: the game ends %d flips from the pristine state, want a jump of more than N/3 = %d", label, k, n/3)
			}

			s := MustNew(g, cfg)
			requireBitIdentical(t, label+"/run 1", fresh, s.Run())
			if held(s) == 0 {
				t.Fatalf("%s: no record held after the first Run", label)
			}
			requireBitIdentical(t, label+"/run 2", fresh, s.Run())

			half := randomSimplexState(rand.New(rand.NewSource(3)), g, 0.5, true).secure
			probes := []struct {
				name      string
				secure    []bool
				projected bool
			}{
				{"pristine", pristine, false},
				{"final", final, false}, // a jump of more than N/3 with records held
				{"final again", final, false},
				{"half", half, true},
				{"final projected", final, true},
			}
			for _, p := range probes {
				before := held(s)
				base, proj, stats, err := s.RoundUtilities(p.secure, p.projected)
				if err != nil {
					t.Fatal(err)
				}
				base, proj = append([]float64(nil), base...), append([]float64(nil), proj...)
				wantBase, wantProj, _, err := MustNew(g, cfg).RoundUtilities(p.secure, p.projected)
				if err != nil {
					t.Fatal(err)
				}
				if !utilsBitIdentical(base, wantBase) || !utilsBitIdentical(proj, wantProj) {
					t.Errorf("%s/%s: reused Sim's utilities differ from a fresh Sim's", label, p.name)
				}
				// No flip since the last probe: every record that was
				// held is clean, served by its replay on processDest.
				if p.name == "final again" && (before == 0 || stats.CleanDests != before) {
					t.Errorf("%s/%s: %d clean of %d records held, want all", label, p.name, stats.CleanDests, before)
				}
			}
		}
	}
}
