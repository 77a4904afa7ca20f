package sim

import (
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// Round benchmarks measure one call of the per-round utility engine
// (computeRound) in isolation: base utilities for every ISP plus, for
// the candidate benchmarks, a projected utility per candidate that
// survives the C.4 skip rules. They run on the paper-calibrated
// synthetic topology at two sizes, from the post-seeding state (early
// adopters plus their simplex stubs) that round 1 of a real run sees.
//
//	go test ./internal/sim -bench 'Round' -benchmem

func benchSim(b *testing.B, n int, model UtilityModel) (*Sim, *deployState) {
	b.Helper()
	g := topogen.MustGenerate(topogen.Default(n, 42))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 5, asgraph.ISP)...)
	cfg := Config{
		Model:          model,
		Theta:          0.05,
		EarlyAdopters:  adopters,
		StubsBreakTies: true,
		// The dynamic cache would turn every iteration after the first
		// into a pure replay of an unchanged state; disable it so the
		// Round series keeps measuring the cold per-round engine. These
		// are micro-benchmarks for profiling one layer; the benchmark of
		// record is sbgpbench (benchmarks/).
		DynamicCacheBytes: -1,
	}
	s := MustNew(g, cfg)
	st := newDeployState(g.N())
	for _, a := range adopters {
		st.set(g, a, cfg.StubsBreakTies)
	}
	for _, a := range adopters {
		if g.IsISP(a) {
			for _, c := range g.Customers(a) {
				if g.IsStub(c) {
					st.set(g, c, cfg.StubsBreakTies)
				}
			}
		}
	}
	return s, st
}

func benchComputeRound(b *testing.B, n int, model UtilityModel, projected bool) {
	b.Helper()
	s, st := benchSim(b, n, model)
	var candidates []bool
	if projected {
		candidates = s.candidates(st)
	}
	// One warm-up round so the measurement is the steady state a
	// multi-round run reaches after round 1: worker buffers sized and
	// the static cache filled (round 1's cold BFS cost is a one-off,
	// amortized over the tens of rounds of a real run).
	s.computeRound(st, candidates)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.computeRound(st, candidates)
	}
}

// Base-only rounds: one resolution per destination, no projections
// (what Utilities and the pristine-state pass cost).
func BenchmarkRoundBaseOnly1000(b *testing.B) { benchComputeRound(b, 1000, Outgoing, false) }
func BenchmarkRoundBaseOnly2500(b *testing.B) { benchComputeRound(b, 2500, Outgoing, false) }

// Outgoing rounds: candidates are the insecure ISPs.
func BenchmarkRoundOutgoing1000(b *testing.B) { benchComputeRound(b, 1000, Outgoing, true) }
func BenchmarkRoundOutgoing2500(b *testing.B) { benchComputeRound(b, 2500, Outgoing, true) }

// Incoming rounds: every ISP is a candidate (secure ISPs may turn off),
// the costliest per-round workload.
func BenchmarkRoundIncoming1000(b *testing.B) { benchComputeRound(b, 1000, Incoming, true) }
func BenchmarkRoundIncoming2500(b *testing.B) { benchComputeRound(b, 2500, Incoming, true) }

// Run benchmarks measure a complete multi-round simulation — pristine
// sweep, candidate rounds until convergence — which is what the
// cross-round dynamic cache accelerates and what the Round series,
// restarted from the same state every iteration, cannot observe. Each
// iteration builds a fresh Sim (engine setup and cache warm-up are part
// of what a caller pays per run); only topology generation sits outside
// the loop.
//
// The headline benchmarks run in the configuration the experiment
// harness uses: a graph-level shared static store (Config.SharedStatics)
// serving every Sim on the graph, warmed here by the warm-up run just
// as a sweep's first simulation warms it for the rest. The Cold
// variants pass no store — every iteration's engine builds its own and
// pays the full per-Sim static cold start — and the DynOff variants
// disable the dynamic cache, so the three series separate the two
// contributions.
//
//	go test ./internal/sim -bench 'Run' -benchmem
func benchRun(b *testing.B, n int, model UtilityModel, dynBudget int64, sharedStatics, seeded bool) {
	b.Helper()
	g := topogen.MustGenerate(topogen.Default(n, 42))
	g.SetCPTrafficFraction(0.10)
	cfg := Config{
		Model:             model,
		Theta:             0.05,
		StubsBreakTies:    true,
		DynamicCacheBytes: dynBudget,
	}
	if sharedStatics {
		cfg.SharedStatics = routing.NewSharedStaticCache(0)
	}
	if seeded {
		cfg.EarlyAdopters = append(g.Nodes(asgraph.ContentProvider),
			asgraph.TopByDegree(g, 5, asgraph.ISP)...)
	}
	// One warm-up run keeps process-global one-offs (lazy runtime and
	// allocator growth) out of the first timed iteration — and, for the
	// shared-statics series, populates the store.
	MustNew(g, cfg).Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustNew(g, cfg).Run()
	}
}

func BenchmarkRunOutgoing1000(b *testing.B) { benchRun(b, 1000, Outgoing, 0, true, true) }
func BenchmarkRunOutgoing2500(b *testing.B) { benchRun(b, 2500, Outgoing, 0, true, true) }
func BenchmarkRunIncoming1000(b *testing.B) { benchRun(b, 1000, Incoming, 0, true, true) }
func BenchmarkRunIncoming2500(b *testing.B) { benchRun(b, 2500, Incoming, 0, true, true) }

// Cold variants: no caller-owned static store — the standalone-caller cost,
// and the configuration sbgpbench's game workloads (benchmarks/) run.
func BenchmarkRunOutgoing2500Cold(b *testing.B) { benchRun(b, 2500, Outgoing, 0, false, true) }
func BenchmarkRunIncoming2500Cold(b *testing.B) { benchRun(b, 2500, Incoming, 0, false, true) }

// DynOff variants run the headline workloads with the dynamic cache
// disabled — the in-tree control for what that cache buys.
func BenchmarkRunOutgoing2500DynOff(b *testing.B) { benchRun(b, 2500, Outgoing, -1, true, true) }
func BenchmarkRunIncoming2500DynOff(b *testing.B) { benchRun(b, 2500, Incoming, -1, true, true) }

// BenchmarkRunBaseOnly10000 is the paper-scale smoke: with no early
// adopters nothing ever deploys, so the run is the pristine base sweep
// plus one decision round over an all-insecure graph at N=10000.
// Skipped under -short; CI's bench smoke runs it once.
func BenchmarkRunBaseOnly10000(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale run skipped in short mode")
	}
	benchRun(b, 10000, Outgoing, 0, false, false)
}

// BenchmarkRunOutgoing10000Cold is the full paper-preset game — seeded,
// every round until convergence, no static store — at N=10000: what
// sbgpbench's game-outgoing-10000-cold plays, where BaseOnly10000 above
// stops after the pristine sweep. Secure destinations, dynamic records
// and the packed static cache are all live in it. Skipped under -short;
// CI's bench smoke runs it once.
func BenchmarkRunOutgoing10000Cold(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale run skipped in short mode")
	}
	benchRun(b, 10000, Outgoing, 0, false, true)
}

// BenchmarkRunBaseOnlyPaper is the full paper-scale measurement: the
// pristine base sweep plus one decision round over an all-insecure
// graph at the paper's N=36,964 (its Cyclops AS-graph snapshot). No
// warm-up run — at this size a single extra run costs minutes, and the
// number of record is the cold full sweep. Skipped under -short.
func BenchmarkRunBaseOnlyPaper(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale run skipped in short mode")
	}
	const paperN = 36964
	g := topogen.MustGenerate(topogen.Default(paperN, 42))
	g.SetCPTrafficFraction(0.10)
	cfg := Config{Model: Outgoing, Theta: 0.05, StubsBreakTies: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustNew(g, cfg).Run()
	}
}

// DiskWarm variants rerun the BaseOnly workloads against a populated
// persistent static store (Config.StaticStoreDir): what any repeat
// invocation — a rerun CLI, a resumed experiment batch, a second
// process on the machine — pays once the statics are on disk. The
// untimed populate run plays the role of that earlier invocation, and
// CloseSharedDiskStores between populate and measurement makes every
// timed iteration open (and read) the store the way a fresh process
// would. Compare against the same-size cold benchmark above for the
// disk tier's headline speedup.
func benchRunDiskWarm(b *testing.B, n int) {
	b.Helper()
	g := topogen.MustGenerate(topogen.Default(n, 42))
	g.SetCPTrafficFraction(0.10)
	cfg := Config{
		Model:          Outgoing,
		Theta:          0.05,
		StubsBreakTies: true,
		StaticStoreDir: b.TempDir(),
	}
	MustNew(g, cfg).Run() // populate the store (the "first run, ever")
	routing.CloseSharedDiskStores()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustNew(g, cfg).Run()
	}
	b.StopTimer()
	routing.CloseSharedDiskStores()
}

func BenchmarkRunBaseOnly10000DiskWarm(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale run skipped in short mode")
	}
	benchRunDiskWarm(b, 10000)
}

func BenchmarkRunBaseOnlyPaperDiskWarm(b *testing.B) {
	if testing.Short() {
		b.Skip("paper-scale run skipped in short mode")
	}
	benchRunDiskWarm(b, 36964)
}
