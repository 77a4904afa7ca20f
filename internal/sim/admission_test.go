package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// admissionGolden pins the Result bytes (WriteResult with every Stats
// stripped, utilities recorded) of the cold N=400 game below, per
// (model, StubsBreakTies, ProjectStubUpgrades), as the engine produced
// them before dynamic-cache admission became demand-driven. Neither the
// admission rule nor the tiers it defers to may move a bit.
var admissionGolden = map[string]string{
	"outgoing/sbt=true/psu=false":  "58f8f844e484f65d5656da545d03d6de6184f606f9cbc8ed54ea397eb9bfb9a4",
	"outgoing/sbt=true/psu=true":   "40cf10b66e65a8da4fc61a192eecab44c2b19476ccda4ffb43cb77d7f1ebe4fa",
	"outgoing/sbt=false/psu=false": "521903e2a9db17e75136341a3d8d7be844f23b8a9965dd88744554c7d66e4df5",
	"outgoing/sbt=false/psu=true":  "14683381c797e54106189f2df6e8b6132cc41e910c2a90c7a09b12557a89207b",
	"incoming/sbt=true/psu=false":  "c570a46f1129cc62f5d17f9440d67768d53b2af2c3b57d7e8158a16ecfd8b719",
	"incoming/sbt=true/psu=true":   "9a23ba15e023208885d0454466bb792f05e519bc8c5fa6cce816e4823930dc04",
	"incoming/sbt=false/psu=false": "9fa0506741651706375e7e169a9d8bf333369ec2b0e29b600267e7c0ce9164c0",
	"incoming/sbt=false/psu=true":  "bf4cc349b02880c8e6a903ed70c87a4e88c323fc0956cc4702ffdcd127b80457",
}

// resultDigest hashes res as WriteResult serializes it, minus the
// per-round instrumentation.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	bare := *res
	bare.PristineStats = nil
	bare.Rounds = append([]Round(nil), res.Rounds...)
	for i := range bare.Rounds {
		bare.Rounds[i].Stats = nil
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, &bare); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// wantsRecord is the admission rule restated over plain state: a
// destination needs a tree this round iff it is secure or some
// candidate's projection that survives the zero-utility test can flip
// it. A candidate's own flip never survives under Outgoing (the
// destination routes to itself, not over a customer edge), so there an
// insecure candidate destination wants none.
func wantsRecord(g *asgraph.Graph, cfg *Config, st *deployState, d int32) bool {
	candidate := func(i int32) bool {
		return g.IsISP(i) && (!st.secure[i] || cfg.Model == Incoming)
	}
	if st.secure[d] || (candidate(d) && cfg.Model == Incoming) {
		return true
	}
	if cfg.ProjectStubUpgrades && g.IsStub(d) {
		for _, p := range g.Providers(d) {
			if candidate(p) && !st.secure[p] {
				return true
			}
		}
	}
	return false
}

// checkAdmissionTrajectory replays res's deployment states next to its
// per-round stats, restating the serving ladder over plain state: a
// recorded destination keeps its record; a record-less one the rule does
// not want replays its sidecar, when sidecars fit the store; of the
// rest, a leaf whose class (shard, provider, flags) already has a filler
// this round is class-replayed and admits nothing, and every wanted
// destination left is admitted. Each round must report exactly those
// sidecar replays, class replays and records. It reports whether a round
// after the first admitted anything.
func checkAdmissionTrajectory(t *testing.T, label string, g *asgraph.Graph, cfg *Config, res *Result, sidecars bool) (grewMidGame bool) {
	t.Helper()
	n := g.N()
	sbt := cfg.StubsBreakTies
	st := newDeployState(n)
	for _, a := range cfg.EarlyAdopters {
		st.set(g, a, sbt)
		if g.IsISP(a) {
			for _, c := range g.Customers(a) {
				if g.IsStub(c) {
					st.set(g, c, sbt)
				}
			}
		}
	}
	total := cfg.Shards(n)
	leafProv := leafProviders(g)
	classProv := make([][]int32, total)
	for s := range classProv {
		classProv[s] = newLeafClasses(leafProv, s, total).prov
	}
	type classKey struct {
		shard, prov int32
		secure      bool
	}
	recorded := make([]bool, n)
	records := 0
	for r, rd := range res.Rounds {
		var replays, classReplays int64
		before := records
		filled := map[classKey]bool{}
		for d := int32(0); d < int32(n); d++ {
			shard := d % int32(total)
			key := classKey{shard, classProv[shard][d], st.secure[d]}
			switch want := wantsRecord(g, cfg, st, d); {
			case recorded[d]:
			case !want && sidecars:
				replays++
				continue
			case key.prov >= 0 && filled[key]:
				classReplays++
				continue
			case want:
				recorded[d] = true
				records++
			}
			filled[key] = true
		}
		if rd.Stats.PristineReplays != replays {
			t.Errorf("%s round %d: %d sidecar replays, want the %d insecure untouchable record-less destinations",
				label, r, rd.Stats.PristineReplays, replays)
		}
		if rd.Stats.ClassReplays != classReplays {
			t.Errorf("%s round %d: %d class replays, want the %d wanted leaves behind a filler",
				label, r, rd.Stats.ClassReplays, classReplays)
		}
		if rd.Stats.DynCacheEntries != records {
			t.Errorf("%s round %d: %d records, want %d (secure or touchable so far, not class-replayed)",
				label, r, rd.Stats.DynCacheEntries, records)
		}
		if r > 0 && records > before {
			grewMidGame = true
		}
		for _, i := range rd.Deployed {
			st.set(g, i, sbt)
		}
		for _, i := range rd.Disabled {
			st.unset(i)
		}
		for _, i := range rd.NewSimplexStubs {
			st.set(g, i, sbt)
		}
	}
	return grewMidGame
}

// TestDynAdmissionDemandDriven: a cold game across Model ×
// StubsBreakTies × ProjectStubUpgrades × a default or a starved static
// store (a caller-owned one of 1 byte, which holds no static and no
// sidecar, beside default-budget records). Every Result equals the
// golden. The pristine pass admits no record, and the recorded set is
// exactly the destinations that were secure or touchable in some round
// so far — so one that turns secure mid-game is admitted that round. A
// leaf behind a filler of its class is class-replayed instead and holds
// no record. With the default store every round replays exactly the
// insecure untouchable destinations from their sidecars; with the
// starved one none, and they are recomputed, never recorded.
func TestDynAdmissionDemandDriven(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(400, 21))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)

	grewMidGame := false
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		for _, sbt := range []bool{true, false} {
			for _, psu := range []bool{false, true} {
				key := fmt.Sprintf("%s/sbt=%v/psu=%v", model, sbt, psu)
				for _, sidecars := range []bool{true, false} {
					cfg := Config{
						Model:               model,
						Theta:               0.05,
						EarlyAdopters:       adopters,
						StubsBreakTies:      sbt,
						ProjectStubUpgrades: psu,
						Workers:             2,
						RecordUtilities:     true,
						RecordStats:         true,
					}
					if !sidecars {
						cfg.SharedStatics = routing.NewSharedStaticCache(1)
					}
					label := fmt.Sprintf("%s/sidecars=%v", key, sidecars)
					res := MustNew(g, cfg).Run()
					if got := resultDigest(t, res); got != admissionGolden[key] {
						t.Errorf("%s: result digest %s, golden %s", label, got, admissionGolden[key])
						continue
					}
					if got := res.PristineStats.DynCacheEntries; got != 0 {
						t.Errorf("%s: pristine pass admitted %d records, want none", label, got)
					}
					if checkAdmissionTrajectory(t, label, g, &cfg, res, sidecars) {
						grewMidGame = true
					}
				}
			}
		}
	}
	if !grewMidGame {
		t.Error("no game admitted a record after round 0: the turns-secure-mid-game path went unexercised")
	}
}

// TestLazyIndexConcurrent: the dependents index is now built in the
// middle of a candidate loop, on whatever static the destination
// resolved against. Run under -race: games sharing one small graph-level
// store (immutable unpacked snapshots next to packed blobs decoded into
// worker scratch — a lazy build must only ever land on the latter) race
// a Workers=5 game on a store of its engine's own, under the incoming
// model, where most destinations propagate often enough to build the
// index.
func TestLazyIndexConcurrent(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 17))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	base := Config{
		Model:           Incoming,
		Theta:           0.05,
		EarlyAdopters:   adopters,
		StubsBreakTies:  true,
		RecordUtilities: true,
		RecordStats:     true,
	}
	cfg2, cfg5 := base, base
	cfg2.Workers, cfg5.Workers = 2, 5
	ref2, ref5 := MustNew(g, cfg2).Run(), MustNew(g, cfg5).Run()
	var props int64
	for _, rd := range ref5.Rounds {
		props += rd.Stats.ProjResolutions
	}
	if props < int64(indexAfterPropagations+1)*int64(g.N()) {
		t.Fatalf("only %d propagations over %d destinations: the lazy index is not being built", props, g.N())
	}

	// Room for about half the unpacked set: the store repacks mid-game.
	store := routing.NewSharedStaticCache(1_500_000)
	shared := cfg2
	shared.SharedStatics = store
	got := make([]*Result, 3)
	var wg sync.WaitGroup
	for i, cfg := range []Config{shared, shared, cfg5} {
		wg.Add(1)
		go func(i int, cfg Config) {
			defer wg.Done()
			got[i] = MustNew(g, cfg).Run()
		}(i, cfg)
	}
	wg.Wait()
	requireBitIdentical(t, "shared store, first sim", ref2, got[0])
	requireBitIdentical(t, "shared store, second sim", ref2, got[1])
	requireBitIdentical(t, "workers=5", ref5, got[2])
	if !store.Repacked() || store.Entries() == 0 {
		t.Errorf("store did not mix snapshots and blobs (repacked %v, %d entries)", store.Repacked(), store.Entries())
	}
}

// TestSidecarMissTakesNormalPath: a record-less insecure destination no
// candidate can flip is served by its sidecar; when that sidecar is
// missing, the normal path serves it and records the sidecar exactly
// once — for a sibling leaf as its class's filler, and for a non-leaf.
// After the pristine pass fills a caller-owned store with a sidecar for
// every destination, two are dropped: the next base-only round must be
// bit-identical to the plain engine and record exactly those two, and
// the round after replays them, recording nothing.
func TestSidecarMissTakesNormalPath(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 13))
	g.SetCPTrafficFraction(0.10)
	n := g.N()
	mid := make([]bool, n)
	for _, a := range append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...) {
		mid[a] = true
	}
	leafProv := leafProviders(g)
	siblings := make([]int, n)
	for _, p := range leafProv {
		if p >= 0 {
			siblings[p]++
		}
	}
	leaf, other := int32(-1), int32(-1)
	for d := int32(0); d < int32(n); d++ {
		switch {
		case mid[d]:
		case leaf < 0 && leafProv[d] >= 0 && siblings[leafProv[d]] >= 2:
			leaf = d
		case other < 0 && leafProv[d] < 0:
			other = d
		}
	}
	if leaf < 0 || other < 0 {
		t.Fatalf("no insecure sibling leaf (%d) or insecure non-leaf (%d)", leaf, other)
	}
	insecure := int64(0)
	for _, sec := range mid {
		if !sec {
			insecure++
		}
	}

	for _, model := range []UtilityModel{Outgoing, Incoming} {
		cfg := Config{Model: model, Workers: 1, RecordStats: true}
		plainCfg := cfg
		plainCfg.CacheBytes = 1
		want, _, _, err := withoutLeafClasses(MustNew(g, plainCfg)).RoundUtilities(mid, false)
		if err != nil {
			t.Fatal(err)
		}

		store := routing.NewSharedStaticCache(0)
		cfg.SharedStatics = store
		s := MustNew(g, cfg)
		if s.local.pool[0].classes.prov[leaf] < 0 {
			t.Fatalf("%s: leaf %d is not on the class rung", model, leaf)
		}
		round := func(label string, secure []bool) ([]float64, *RoundStats) {
			t.Helper()
			u, _, st, err := s.RoundUtilities(secure, false)
			if err != nil {
				t.Fatalf("%s %s: %v", model, label, err)
			}
			return u, st
		}
		if _, st := round("pristine", make([]bool, n)); st.PristineRecords+st.ClassReplays == 0 {
			t.Fatalf("%s pristine pass: recorded no sidecars", model)
		}
		kind := uint8(model)
		for _, d := range []int32{leaf, other} {
			if store.SidecarGet(kind, d) == nil {
				t.Fatalf("%s: destination %d has no sidecar after the pristine pass", model, d)
			}
			store.SidecarDrop(kind, d)
		}

		got, st := round("first", mid)
		if !utilsBitIdentical(want, got) {
			t.Errorf("%s: base utilities with two sidecars missing differ from the plain engine", model)
		}
		if st.PristineRecords != 2 || st.PristineReplays != insecure-2 {
			t.Errorf("%s first round: %d recorded, %d replayed; want 2 and %d",
				model, st.PristineRecords, st.PristineReplays, insecure-2)
		}
		for _, d := range []int32{leaf, other} {
			if store.SidecarGet(kind, d) == nil {
				t.Errorf("%s: destination %d's sidecar was not re-recorded", model, d)
			}
		}

		got, st = round("second", mid)
		if !utilsBitIdentical(want, got) {
			t.Errorf("%s: replayed round differs from the plain engine", model)
		}
		if st.PristineRecords != 0 || st.PristineReplays != insecure {
			t.Errorf("%s second round: %d recorded, %d replayed; want 0 and %d",
				model, st.PristineRecords, st.PristineReplays, insecure)
		}
	}
}
