package main

import (
	"encoding/json"
	"fmt"
)

// The benchmark's definition: workloads and metrics. BENCHMARK.json at
// the repository root is generated from these tables
// (-print-benchmark-json) and a test keeps the two in step.

// runSeconds is how long the timed section of one run measures by
// default; the driver passes it back as --seconds.
const runSeconds = 15

// instanceSeed is the default topology and tiebreak seed of every
// workload: the repository's canonical synthetic graph (EXPERIMENTS.md,
// bench_test.go and cmd/sbgpsim all default to 42).
const instanceSeed = 42

type workloadKind int

const (
	kindGame workloadKind = iota
	kindSuite
)

type workloadSpec struct {
	Name string
	Why  string // one line, ends up in BENCHMARK.json
	Kind workloadKind
	N    int
	// Incoming selects the incoming-utility model; games only.
	Incoming bool
	// Store runs the game against a static store that set-up populated.
	Store bool
	// Dist adds the internal/dist runs to the traced run.
	Dist bool
	// MinOps is the fewest timed operations a run takes, whatever
	// --seconds says: 5 game samples, 2 cold+warm suite pairs.
	MinOps int
	// Procs is how many child processes share the timed section, one
	// after another. A process runs a few percent fast or slow as a whole
	// (address-space layout, hash seeds), which repeats inside it cannot
	// average out; separate processes can.
	Procs int
}

var workloads = []workloadSpec{
	{
		Name: "game-incoming-2500", Kind: kindGame, N: 2500, Incoming: true, Dist: true, MinOps: 5, Procs: 3,
		Why: "every ISP is a candidate every round, so projection (flip effects, apply/revert, dyn records) does the work; static BFS is a small share, disk none",
	},
	{
		Name: "game-outgoing-10000-cold", Kind: kindGame, N: 10000, MinOps: 5, Procs: 3,
		Why: "cold static path: 10,000 three-stage BFSs dominate, the 1 GiB static budget overflows into pack/repack; projections are rare, so a projection change must not move it",
	},
	{
		Name: "game-outgoing-10000-diskwarm", Kind: kindGame, N: 10000, Store: true, MinOps: 5, Procs: 3,
		Why: "same game and Result as -cold with zero BFS: mmap reads, trusted decode, streaming resolve and sidecar replay do the static work; set-up pays the write path",
	},
	{
		Name: "suite-1200", Kind: kindSuite, N: 1200, MinOps: 2, Procs: 2,
		Why: "all 25 experiments as cmd/experiments -run all runs them, cold then forced warm: store dedup, graph/sim/static disk caches, report rendering and the metrics scans gate the wall",
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only
}

// endToEnd metrics are measured with RecordStats off and no spans. Every
// workload reports every one of them (the driver's contract), so the
// names are generic: on game-* "wall_s" is the ISSUE's game_wall_s, on
// suite-1200 it is suite_cold_wall_s and "warm_wall_s" is
// suite_warm_wall_s. failed_ops_share travels as the result line's
// failed/attempted pair.
//
// The bounds are wider than the 10 % ISSUE 11 asked for because a bound
// has to hold on every workload through the sandbox's slow spells: over
// two sets of ten runs the quartile range of a timing was 3-6 % of its
// median in a quiet set and up to 12 % (suite-1200) in a disturbed one,
// whose median also sat 10 % above the quiet set's (README, noise
// floor). -compare prints the spread it saw next to every verdict.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.20},
	{"cpu_s", "s", "lower", 0.20},
	{"warm_wall_s", "s", "lower", 0.25},
	{"dest_rounds_per_s", "1/s", "higher", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// experimentIDs are the 25 ids RunBatch runs, in registry order; the
// smoke test fails if the registry drifts from this list.
var experimentIDs = []string{
	"table1", "table2", "table3", "table4",
	"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
	"sec73", "ext-attack", "ext-perlink", "ext-bootstrap", "ext-jitter",
}

// perLayer metrics all come from the traced run. A metric that does not
// apply to a workload (dist.* off game-incoming-2500, experiments.* off
// suite-1200, ...) reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	lo := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricSpec { return metricSpec{Name: name, Unit: unit, Better: "higher"} }
	m := []metricSpec{
		lo("trace_overhead_ratio", "ratio"),

		lo("topogen.generate_ms", "ms"),
		lo("asgraph.write_ms", "ms"),
		lo("asgraph.read_ms", "ms"),
		lo("asgraph.fingerprint_ms", "ms"),

		lo("routing.static_bfs_us", "us"),
		lo("routing.prepare_dest_us", "us"),
		lo("routing.pack_us", "us"),
		lo("routing.packed_bytes_per_dest", "B"),
		lo("routing.decode_us", "us"),
		lo("routing.stream_resolve_us", "us"),
		lo("routing.resolve_us", "us"),
		lo("routing.apply_flips_us", "us"),
		lo("routing.apply_flips_touched", "count"),
		lo("routing.flip_effects_us", "us"),
		lo("routing.flip_changes_ratio", "ratio"),
		lo("routing.disk_open_ms", "ms"),
		lo("routing.disk_put_us", "us"),
		lo("routing.disk_lookup_us", "us"),
		lo("routing.disk_bytes_per_dest", "B"),

		lo("sim.new_ms", "ms"),
		lo("sim.pristine_wall_ms", "ms"),
		lo("sim.rounds", "count"),
		lo("sim.round_wall_ms_p50", "ms"),
		lo("sim.round_wall_ms_p90", "ms"),
		lo("sim.round_base_only_ms", "ms"),
		lo("sim.round_projected_ms", "ms"),
		lo("sim.static_misses", "count"),
		hi("sim.static_hit_ratio", "ratio"),
		hi("sim.disk_hits", "count"),
		lo("sim.disk_bytes_read", "B"),
		lo("sim.disk_writes", "count"),
		hi("sim.pristine_replays", "count"),
		hi("sim.stream_resolves", "count"),
		hi("sim.clean_dest_ratio", "ratio"),
		lo("sim.proj_resolutions", "count"),
		hi("sim.proj_skip_ratio", "ratio"),
		hi("sim.proj_unchanged_ratio", "ratio"),
		hi("sim.nodes_reused_ratio", "ratio"),
		lo("sim.straggler_ratio_p50", "ratio"),
		hi("sim.parallel_efficiency", "ratio"),
		lo("sim.workers1_wall_s", "s"),
		hi("sim.speedup_2w", "ratio"),
		lo("sim.alloc_mb_per_game", "MB"),
		lo("sim.gc_cycles_per_game", "count"),
		lo("sim.static_cache_mb", "MB"),
		lo("sim.dyn_cache_mb", "MB"),
		lo("sim.result_write_ms", "ms"),
		lo("sim.result_read_ms", "ms"),
		lo("sim.result_bytes", "B"),
		lo("sim.unattributed_share", "ratio"),
	}
	for _, c := range attributionComponents {
		m = append(m, lo("attr."+c+"_share", "ratio"))
	}
	m = append(m,
		lo("dist.setup_ms", "ms"),
		lo("dist.game_wall_s", "s"),
		lo("dist.overhead_ratio", "ratio"),
		lo("dist.wire_bytes_setup", "B"),
		lo("dist.wire_bytes_per_round", "B"),
		hi("dist.result_identical", "bool"),

		lo("experiments.sims_requested", "count"),
		lo("experiments.sims_executed", "count"),
		hi("experiments.sim_dedup_ratio", "ratio"),
		lo("experiments.cache_mb_on_disk", "MB"),
		lo("experiments.resume_wall_ms", "ms"),
		lo("experiments.critical_path_share", "ratio"),
	)
	for _, id := range experimentIDs {
		m = append(m, lo("experiments.wall_ms."+id, "ms"))
	}
	m = append(m,
		lo("metrics.scan_turnoff_ms", "ms"),
		lo("metrics.secure_paths_ms", "ms"),
		lo("metrics.tiebreak_dist_ms", "ms"),
	)
	return m
}

// benchmarkDoc is BENCHMARK.json: exactly the keys the driver's contract
// fixes.
type benchmarkDoc struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []docWorkload `json:"workloads"`
	EndToEnd   []docEndToEnd `json:"end_to_end"`
	PerLayer   []docLayer    `json:"per_layer"`
}

type docWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type docEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type docLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	doc := benchmarkDoc{
		Command:    []string{"bash", "benchmarks/run.sh"},
		Paths:      []string{"benchmarks"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, docWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, docEndToEnd{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, docLayer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("rendering BENCHMARK.json: %w", err)
	}
	return append(out, '\n'), nil
}
