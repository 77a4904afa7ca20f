package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// TestRoundCountersPinned pins the engine's work counters: a digest of
// every RoundStats field of the pristine pass and of every round, with
// the timing and heap fields left out (they vary run to run), for
// sbgpsim's default game at N=600 in both models, with and without
// projected stub upgrades, a cold then warm disk-store run, and a
// one-worker run whose caller-owned static store is small enough to
// pack (so the packed residency rule, rejected sidecars included,
// decides what stays resident). A refactor of the serving ladder that
// claims to change no counter must leave every digest as it is; a
// change that moves a counter on purpose updates the constant and says
// why. A starved budget with two workers is left out: its admissions
// race between them.
func TestRoundCountersPinned(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(600, 42))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 5, asgraph.ISP)...)
	want := map[string]string{
		"outgoing":               "b0265de375106fd1",
		"outgoing/project-stubs": "b4014d8b2dd15396",
		"outgoing/store-cold":    "e6fdab286130c547",
		"outgoing/store-warm":    "95156b33e093316c",
		"outgoing/repacked":      "1043cee464c76b89",
		"incoming":               "e778a0f7cbe197cd",
		"incoming/project-stubs": "90f81894871a9a89",
		"incoming/store-cold":    "b41ee47c913b34a1",
		"incoming/store-warm":    "e3f6323ec41e4626",
		"incoming/repacked":      "20c91f160cea596e",
	}
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		base := Config{Model: model, Theta: 0.05, EarlyAdopters: adopters, StubsBreakTies: true,
			Workers: 2, RecordStats: true}
		check := func(label string, cfg Config) {
			label = model.String() + label
			if got := countersDigest(MustNew(g, cfg).Run()); got != want[label] {
				t.Errorf("%s: counters digest %s, want %s", label, got, want[label])
			}
		}
		check("", base)
		psu := base
		psu.ProjectStubUpgrades = true
		check("/project-stubs", psu)
		store := base
		store.StaticStoreDir = t.TempDir()
		check("/store-cold", store)
		check("/store-warm", store)
		packed := base
		packed.Workers, packed.SharedStatics = 1, routing.NewSharedStaticCache(300_000)
		check("/repacked", packed)
	}
}

// countersDigest hashes every RoundStats field of res but Wall,
// ShardWallMax, ShardWallMin, StragglerRatio and AllocBytes.
func countersDigest(res *Result) string {
	h := sha256.New()
	write := func(st *RoundStats) {
		c := *st
		c.Wall, c.ShardWallMax, c.ShardWallMin, c.StragglerRatio, c.AllocBytes = 0, 0, 0, 0, 0
		fmt.Fprintf(h, "%+v\n", c)
	}
	write(res.PristineStats)
	for i := range res.Rounds {
		write(res.Rounds[i].Stats)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
