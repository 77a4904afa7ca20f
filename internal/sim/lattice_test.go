package sim

import (
	"fmt"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// tierVariant is one point of the static-serving lattice: the cache
// budget, the disk store's state, and whether the resident store is a
// caller-owned one (Config.SharedStatics, here of the same budget) or
// the one the engine builds for itself.
type tierVariant struct {
	budget int64
	store  string // "none", "cold" (fresh directory) or "warm" (populated, reopened)
	shared bool
}

// TestTierLatticeResultInvariant: every tier of the serving ladder — the
// resident static store in its snapshot, repacked and full phases,
// engine-owned and caller-owned, the disk store cold and reopened warm,
// the sidecar replay that rides on them, and the dynamic records — is a
// pure performance layer, and so is the sibling-leaf class rung in front
// of them. The reference is the plain Appendix C engine: a 1-byte cache
// budget, which no entry of any tier fits, no store, no shared statics,
// and — through the package's test hook, since the class rung is a
// property of the graph and has no setting — no leaf classes, so every
// destination takes BFS → ResolveInto → accumulate with no record, no
// sidecar, no blob and no sibling's memo. Every lattice point runs with
// the classes on, the scratch accumulators checked all-zero after every
// filler, and must reproduce the reference Result bit for bit (compared
// at equal shard count — float merges are only bit-stable per shard
// count) and leave Config.Fingerprint unchanged: the invariant that lets
// Fingerprint exclude all three settings.
func TestTierLatticeResultInvariant(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 13))
	g.SetCPTrafficFraction(0.10)
	n := int64(g.N())
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)

	// ~10 KB per unpacked snapshot at N=300: the tiny budget overflows
	// the static store at once, repacks, and fills; each shard's share
	// of it holds a few dozen records and evicts.
	const tiny = 40_000
	budgets := []int64{0, tiny, 1}

	// The full product at workers=3 under every model and policy…
	var full []tierVariant
	for _, budget := range budgets {
		for _, store := range []string{"none", "cold", "warm"} {
			for _, shared := range []bool{false, true} {
				full = append(full, tierVariant{budget, store, shared})
			}
		}
	}
	// …and at the other worker counts a walk that visits each value of
	// each axis.
	walk := []tierVariant{
		{0, "none", false},
		{tiny, "cold", false},
		{1, "warm", false},
		{tiny, "warm", true},
		{1, "cold", true},
	}

	defer routing.CloseSharedDiskStores()
	classReplays := int64(0)
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		for _, policy := range []struct{ sbt, psu bool }{{true, false}, {false, false}, {true, true}, {false, true}} {
			sbt, psu := policy.sbt, policy.psu
			for _, workers := range []int{1, 3, 5} {
				variants := walk
				if workers == 3 && !psu {
					variants = full
				}
				base := Config{
					Model:               model,
					Theta:               0.05,
					EarlyAdopters:       adopters,
					StubsBreakTies:      sbt,
					ProjectStubUpgrades: psu,
					Workers:             workers,
					RecordUtilities:     true,
					RecordStats:         true,
				}
				plain := base
				plain.CacheBytes = 1
				ref := withoutLeafClasses(MustNew(g, plain)).Run()
				if ref.PristineStats.ClassReplays != 0 {
					t.Fatal("the plain reference ran with leaf classes on")
				}

				// The warm store: populated by a default-budget run
				// (itself checked), then reopened before every use.
				warmRoot := t.TempDir()
				populate := base
				populate.StaticStoreDir = warmRoot
				corner := fmt.Sprintf("model=%s/sbt=%v/psu=%v/workers=%d", model, sbt, psu, workers)
				requireBitIdentical(t, corner+"/populate", ref, MustNew(g, populate).Run())

				for _, v := range variants {
					cfg := base
					cfg.CacheBytes = v.budget
					if v.shared {
						cfg.SharedStatics = routing.NewSharedStaticCache(v.budget)
					}
					switch v.store {
					case "cold":
						cfg.StaticStoreDir = t.TempDir()
					case "warm":
						routing.CloseSharedDiskStores()
						cfg.StaticStoreDir = warmRoot
					}
					label := fmt.Sprintf("%s/budget=%d/store=%s/shared=%v", corner, v.budget, v.store, v.shared)
					got := MustNew(g, cfg).Run()
					requireBitIdentical(t, label, ref, got)
					classReplays += got.PristineStats.ClassReplays
					for _, rd := range got.Rounds {
						classReplays += rd.Stats.ClassReplays
					}
					if plain.Fingerprint() != cfg.Fingerprint() {
						t.Errorf("%s: a tier setting changed the fingerprint", label)
					}
					// The tiny budget must actually exercise the
					// packed phase: caches overflow, repack, and report
					// blob residency in the round stats. (Not on a warm
					// store, whose replayed sidecars may fill the budget
					// before any static is fetched.)
					if v.budget == tiny && v.store != "warm" {
						var packedEntries int64
						for _, rd := range got.Rounds {
							packedEntries += rd.Stats.StaticPackedEntries
						}
						if packedEntries == 0 {
							t.Errorf("%s: tiny budget never repacked", label)
						}
					}
					if model == Outgoing && sbt && !psu && workers == 3 && v == (tierVariant{0, "warm", false}) {
						checkRestartWarm(t, got, n)
					}
				}
			}
		}
	}
	if classReplays == 0 {
		t.Error("no lattice point replayed a leaf class: the rung went unexercised")
	}
}

// withoutLeafClasses is the test hook that turns the sibling-leaf class
// rung off on s's in-process engine: the tier has no Config field, so
// nothing outside this package's tests can reach a classes-off engine.
func withoutLeafClasses(s *Sim) *Sim {
	for _, wk := range s.local.pool {
		wk.classes = nil
	}
	return s
}

// checkRestartWarm is the warm sweep accounting: with the disk tier
// holding a blob and a sidecar for every destination, a restarted
// pristine pass is pure sidecar replay — every destination replays
// recorded bits, nothing resolves, nothing misses, and the sidecar reads
// surface in the disk-tier counters.
func checkRestartWarm(t *testing.T, got *Result, n int64) {
	t.Helper()
	ps := got.PristineStats
	if ps == nil {
		t.Fatal("restart-warm: no pristine stats recorded")
	}
	if ps.PristineReplays != n {
		t.Errorf("restart-warm: %d pristine replays, want %d", ps.PristineReplays, n)
	}
	if ps.BaseResolutions != 0 {
		t.Errorf("restart-warm: %d resolutions in a fully replayed pass", ps.BaseResolutions)
	}
	if ps.StaticMisses != 0 {
		t.Errorf("restart-warm: %d static misses", ps.StaticMisses)
	}
	if ps.StaticDiskHits != n {
		t.Errorf("restart-warm: %d disk hits, want %d", ps.StaticDiskHits, n)
	}
	if ps.StaticDiskWrites != 0 {
		t.Errorf("restart-warm: %d disk writes on a warm store", ps.StaticDiskWrites)
	}
	// Every later round balances the same way: each destination is
	// served by a cache or disk hit, a clean replay, a pristine replay
	// or a sibling's class memo — never recomputed from scratch. (A
	// sidecar replay served from disk ticks both PristineReplays and
	// StaticDiskHits, so the sum can exceed n; a cold recompute would
	// show up as a miss.)
	for r, rd := range got.Rounds {
		st := rd.Stats
		if st == nil {
			t.Fatalf("round %d: no stats", r)
		}
		if st.StaticMisses != 0 {
			t.Errorf("round %d: %d static misses on a warm store", r, st.StaticMisses)
		}
		served := st.StaticHits + st.StaticDiskHits + int64(st.CleanDests) + st.PristineReplays + st.ClassReplays
		if served < n {
			t.Errorf("round %d: %d destinations served, want >= %d", r, served, n)
		}
	}
}
