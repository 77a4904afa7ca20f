// Command sbgpbench is the repository's benchmark of record: four
// workloads — three full deployment games and the whole experiment
// suite — measured end to end (wall, CPU, memory, set-up) with tracing
// off, plus a separate traced run per workload that times every layer's
// public functions from here. It verifies what it measures: every
// operation's result digest must repeat, and at the default instance
// must match benchmarks/golden.json. See benchmarks/README.md.
//
//	go -C benchmarks run ./cmd/sbgpbench -workload all -seed 42
//	bash benchmarks/run.sh --workload suite-1200 --seed 7 --seconds 15 --trace 0
//	sbgpbench -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sbgp/internal/dist"
)

func main() {
	// A fork-exec'd dist worker or a phase child serves and exits here.
	dist.MaybeRunWorker()
	maybeRunChild()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload     string
	seed         int64
	instanceSeed int64
	seconds      float64
	trace        string
	n, repeats   int
	outDir       string
	goldenPath   string
	jsonPath     string
	updateGolden bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbgpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	fs.StringVar(&opt.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&opt.seed, "seed", 42, "run seed: picks the destination sample the per-layer probes visit (the game instance is fixed, see -instance-seed)")
	fs.Int64Var(&opt.instanceSeed, "instance-seed", instanceSeed, "topology and tiebreak seed of the workload instance; golden digests exist for the default only")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "how long each workload's timed section measures (never fewer than its minimum operations)")
	fs.StringVar(&opt.trace, "trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
	fs.IntVar(&opt.n, "n", 0, "override every workload's graph size (smoke tests; no golden check)")
	fs.IntVar(&opt.repeats, "repeats", 0, "fix the timed operation count, overriding -seconds (smoke tests)")
	fs.StringVar(&opt.outDir, "out", defaultPath("out"), "directory for traces and per-run temporary stores")
	fs.StringVar(&opt.goldenPath, "golden", defaultPath("golden.json"), "golden digests file")
	fs.StringVar(&opt.jsonPath, "json", "", "append this run's results to a result-set file for -compare")
	fs.BoolVar(&opt.updateGolden, "update-golden", false, "record this run's digests as golden for this GOARCH")
	compare := fs.Bool("compare", false, "compare two result-set files: sbgpbench -compare A.json B.json")
	printSpec := fs.Bool("print-benchmark-json", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		data, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintln(stderr, "sbgpbench:", err)
			return 1
		}
		stdout.Write(data)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "sbgpbench: -compare takes two result-set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if opt.trace != "0" && opt.trace != "1" && opt.trace != "both" {
		fmt.Fprintf(stderr, "sbgpbench: -trace %q (want 0, 1 or both)\n", opt.trace)
		return 2
	}
	selected := workloads
	if opt.workload != "all" {
		w, ok := findWorkload(opt.workload)
		if !ok {
			fmt.Fprintf(stderr, "sbgpbench: unknown workload %q\n", opt.workload)
			return 2
		}
		selected = []workloadSpec{w}
	}
	pinProcs()
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "sbgpbench:", err)
		return 1
	}
	golden, err := loadGolden(opt.goldenPath)
	if err != nil {
		fmt.Fprintln(stderr, "sbgpbench:", err)
		return 1
	}

	var results []workloadResult
	for _, w := range selected {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintln(stderr, "sbgpbench:", err)
			return 1
		}
		res.checkGolden(golden, opt)
		res.print(stdout)
		results = append(results, res)
	}
	crossCheck(results, stdout)

	failed := 0
	for _, r := range results {
		failed += r.Failed
	}
	if opt.updateGolden && failed == 0 {
		if err := saveGolden(opt.goldenPath, golden, results, opt); err != nil {
			fmt.Fprintln(stderr, "sbgpbench:", err)
			return 1
		}
	}
	if opt.jsonPath != "" {
		if err := appendResults(opt.jsonPath, results); err != nil {
			fmt.Fprintln(stderr, "sbgpbench:", err)
			return 1
		}
	}
	if len(results) == 1 && opt.trace != "both" {
		// The driver's contract: one JSON object as the last line.
		stdout.Write(results[0].resultLine(opt.trace))
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "sbgpbench: %d failed operations\n", failed)
		return 1
	}
	return 0
}

// defaultPath resolves a benchmark file from either place the command
// is run from: the repository root (run.sh) or benchmarks/ (go -C).
func defaultPath(name string) string {
	if _, err := os.Stat(filepath.Join("benchmarks", "go.mod")); err == nil {
		return filepath.Join("benchmarks", name)
	}
	return name
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples are the per-operation values behind a median.
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one workload's run produced; -json
// stores it and -compare reads it back.
type workloadResult struct {
	Workload     string                 `json:"workload"`
	N            int                    `json:"n"`
	InstanceSeed int64                  `json:"instance_seed"`
	Seed         int64                  `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Rounds       int                    `json:"rounds"`
	Digest       string                 `json:"result_digest"`
	Golden       string                 `json:"golden"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	Failures     []string               `json:"failures,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer     map[string]float64     `json:"per_layer,omitempty"`
	Attribution  []attrRow              `json:"attribution,omitempty"`
	Notes        []string               `json:"notes,omitempty"`
}

func (r *workloadResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// absorb folds a child phase's verdicts into the workload's, and holds
// the phase to the digest the earlier phases produced.
func (r *workloadResult) absorb(phase string, c childResult) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Failures = append(r.Failures, c.Failures...)
	r.Notes = append(r.Notes, c.Notes...)
	if c.Rounds > 0 {
		r.Rounds = c.Rounds
	}
	switch {
	case c.Digest == "":
	case r.Digest == "":
		r.Digest = c.Digest
	case r.Digest != c.Digest:
		r.fail("%s phase: result_digest %s differs from %s", phase, c.Digest, r.Digest)
	}
}

// Set-up is repeated for at least setupMinReps repeats and setupMinTime,
// and setup_s is the median: a few milliseconds timed once at process
// start would measure the cold start of this process, not the set-up.
const (
	setupMinReps = 15
	setupMinTime = 500 * time.Millisecond
)

// measureSetup times what every phase does before it can start: generate
// the instance graph and derive the game configuration from it.
func measureSetup(w workloadSpec, n int, seed int64) (float64, error) {
	var samples []float64
	for start := time.Now(); len(samples) < setupMinReps || time.Since(start) < setupMinTime; {
		t0 := time.Now()
		g, err := buildGraph(n, seed)
		if err != nil {
			return 0, err
		}
		if _, err := gameConfig(g, w, seed, ""); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(t0).Seconds())
	}
	return median(samples), nil
}

// splitTimed divides the timed section among the workload's child
// processes: each gets an equal share of the seconds and of the minimum
// (or fixed) operation count, and none is started for no operations.
func splitTimed(sp childSpec, procs int) []childSpec {
	total := sp.MinOps
	if sp.Repeats > 0 {
		total = sp.Repeats
	}
	procs = max(1, min(procs, total))
	out := make([]childSpec, procs)
	for i := range out {
		c := sp
		c.Phase = "timed"
		c.Seconds = sp.Seconds / float64(procs)
		share := total / procs
		if i < total%procs {
			share++
		}
		if sp.Repeats > 0 {
			c.Repeats = share
		} else {
			c.MinOps = share
		}
		out[i] = c
	}
	return out
}

// runWorkload runs one workload: set-up here, each phase in a child.
func runWorkload(w workloadSpec, opt options) (workloadResult, error) {
	n := w.N
	if opt.n > 0 {
		n = opt.n
	}
	res := workloadResult{
		Workload: w.Name, N: n, InstanceSeed: opt.instanceSeed,
		Seed: opt.seed, Seconds: opt.seconds,
	}
	tmp, err := filepath.Abs(filepath.Join(opt.outDir, fmt.Sprintf("tmp-%s-%d", w.Name, os.Getpid())))
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return res, err
	}
	defer os.RemoveAll(tmp)

	sp := childSpec{
		Workload: w.Name, N: n, InstanceSeed: opt.instanceSeed, Seed: opt.seed,
		Seconds: opt.seconds, MinOps: w.MinOps, Repeats: opt.repeats, TmpDir: tmp,
	}
	setupS, err := measureSetup(w, n, opt.instanceSeed)
	if err != nil {
		return res, err
	}
	if w.Store {
		sp.StoreDir = filepath.Join(tmp, "store")
		sp.Phase = "populate"
		pop, wall, err := runChild(sp)
		if err != nil {
			return res, err
		}
		res.absorb("populate", pop)
		setupS += wall.Seconds()
	}

	if opt.trace != "1" {
		var timed childResult
		for _, c := range splitTimed(sp, w.Procs) {
			part, _, err := runChild(c)
			if err != nil {
				return res, err
			}
			res.absorb("timed", part)
			timed.Ops = append(timed.Ops, part.Ops...)
			timed.WarmWallS = append(timed.WarmWallS, part.WarmWallS...)
			timed.PeakRSSMB = max(timed.PeakRSSMB, part.PeakRSSMB)
		}
		res.EndToEnd = endToEndMetrics(w, setupS, timed)
	}
	if opt.trace != "0" {
		sp.Phase = "traced"
		traced, _, err := runChild(sp)
		if err != nil {
			return res, err
		}
		res.absorb("traced", traced)
		res.PerLayer = traced.Metrics
		res.Attribution = traced.Attribution
		if err := writeTrace(filepath.Join(opt.outDir, w.Name+".trace.json"), w.Name, traced.Spans); err != nil {
			return res, err
		}
	}
	return res, nil
}

// endToEndMetrics reduces the timed phase's samples to the metrics
// BENCHMARK.json bounds. Timings are medians over the run's operations.
func endToEndMetrics(w workloadSpec, setupS float64, c childResult) map[string]metricValue {
	var wall, cpu, rate []float64
	for _, op := range c.Ops {
		wall = append(wall, op.WallS)
		cpu = append(cpu, op.CPUS)
		rate = append(rate, ratio(float64(op.DestRounds), op.WallS))
	}
	// A game leaves nothing behind for a re-run to find (the diskwarm
	// game is itself the re-run), so its warm wall is its wall; the
	// suite's is the forced re-run on the caches the cold batch left.
	warm := wall
	if w.Kind == kindSuite {
		warm = c.WarmWallS
	}
	med := func(unit string, samples []float64) metricValue {
		return metricValue{Value: median(samples), Unit: unit, Samples: samples}
	}
	return map[string]metricValue{
		"setup_s":           {Value: setupS, Unit: "s"},
		"wall_s":            med("s", wall),
		"cpu_s":             med("s", cpu),
		"warm_wall_s":       med("s", warm),
		"dest_rounds_per_s": med("1/s", rate),
		"peak_rss_mb":       {Value: c.PeakRSSMB, Unit: "MB"},
	}
}

// resultLine is the driver's last line: the end-to-end metrics of an
// untraced run, or every per-layer metric (0 where one does not apply
// to the workload) of a traced one.
func (r *workloadResult) resultLine(trace string) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace == "0" {
		for _, m := range endToEnd {
			metrics[m.Name] = value{r.EndToEnd[m.Name].Value, m.Unit}
		}
	} else {
		for _, m := range perLayer {
			metrics[m.Name] = value{r.PerLayer[m.Name], m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, max(r.Attempted, 1), r.Failed, metrics})
	if err != nil {
		// Only a NaN or Inf metric can get here; say so instead of
		// printing a result.
		return []byte(fmt.Sprintf("sbgpbench: result line: %v\n", err))
	}
	return append(line, '\n')
}

// print writes the workload's report: one `name value unit` line per
// metric, then the attribution table.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "\n## %s  N=%d instance-seed=%d seed=%d", r.Workload, r.N, r.InstanceSeed, r.Seed)
	if r.Rounds > 0 {
		fmt.Fprintf(w, " rounds=%d", r.Rounds)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "result_digest %s  # golden: %s\n", r.Digest, r.Golden)
	if r.EndToEnd != nil {
		fmt.Fprintln(w, "# end to end (untraced run; timings are medians over n operations)")
		for _, m := range endToEnd {
			v := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "%s %.6g %s", m.Name, v.Value, m.Unit)
			if s := summarize(v.Samples); s.N > 0 {
				fmt.Fprintf(w, "  # n=%d min=%.6g q1=%.6g q3=%.6g max=%.6g", s.N, s.Min, s.Q1, s.Q3, s.Max)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "failed_ops_share %.6g ratio  # %d of %d operations\n", ratio(float64(r.Failed), float64(r.Attempted)), r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "# FAILED: %s\n", f)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(w, "# note: %s\n", note)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Fprintln(w, "# per layer (traced run)")
	for _, m := range perLayer {
		if v, ok := r.PerLayer[m.Name]; ok {
			fmt.Fprintf(w, "%s %.6g %s\n", m.Name, v, m.Unit)
		}
	}
	if len(r.Attribution) == 0 {
		return
	}
	fmt.Fprintln(w, "# attribution — COMPUTED: per-op probe time x exact RoundStats count / game CPU; cache effects ignored")
	fmt.Fprintf(w, "# %-16s %12s %12s %10s %8s\n", "component", "count", "per_op_us", "cpu_s", "share")
	for _, row := range r.Attribution {
		fmt.Fprintf(w, "# %-16s %12d %12.3f %10.4f %8.4f\n", row.Component, row.Count, row.PerOpUS, row.CPUS, row.Share)
	}
	fmt.Fprintf(w, "# %-16s %12s %12s %10s %8.4f\n", "unattributed", "", "", "", r.PerLayer["sim.unattributed_share"])
}

// crossCheck holds the two N=10,000 games to one digest when a run
// played both: the disk tier must not change a single Result bit.
func crossCheck(results []workloadResult, w io.Writer) {
	var cold, warm *workloadResult
	for i := range results {
		switch results[i].Workload {
		case "game-outgoing-10000-cold":
			cold = &results[i]
		case "game-outgoing-10000-diskwarm":
			warm = &results[i]
		}
	}
	if cold == nil || warm == nil {
		return
	}
	if cold.Digest == warm.Digest {
		fmt.Fprintf(w, "\n# -cold and -diskwarm result_digest agree: %s\n", cold.Digest)
		return
	}
	warm.Attempted++
	warm.fail("result_digest %s differs from game-outgoing-10000-cold's %s", warm.Digest, cold.Digest)
	fmt.Fprintf(w, "\n# FAILED: -cold and -diskwarm result_digest differ: %s vs %s\n", cold.Digest, warm.Digest)
}

// Golden digests, keyed by GOARCH then workload: float summation is
// fixed by the shard count, but not across instruction sets (FMA).
type goldenFile map[string]map[string]string

func loadGolden(path string) (goldenFile, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return goldenFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// goldenApplies reports why the golden check cannot run, or "".
func goldenApplies(r *workloadResult, opt options) string {
	w, _ := findWorkload(r.Workload)
	switch {
	case opt.instanceSeed != instanceSeed:
		return fmt.Sprintf("n/a (instance seed %d; self-consistency checks only)", opt.instanceSeed)
	case r.N != w.N:
		return fmt.Sprintf("n/a (N=%d; self-consistency checks only)", r.N)
	}
	return ""
}

// checkGolden compares the workload's digest with the committed one: a
// change meant to speed the simulator up must leave every simulated
// statistic identical.
func (r *workloadResult) checkGolden(g goldenFile, opt options) {
	if why := goldenApplies(r, opt); why != "" {
		r.Golden = why
		return
	}
	want, ok := g[runtime.GOARCH][r.Workload]
	switch {
	case !ok:
		r.Golden = fmt.Sprintf("n/a (no %s entry; self-consistency checks only)", runtime.GOARCH)
	case opt.updateGolden:
		r.Golden = "updating"
	case want == r.Digest:
		r.Golden = "match"
	default:
		r.Golden = "MISMATCH"
		r.Attempted++
		r.fail("result_digest %s differs from golden %s", r.Digest, want)
	}
}

func saveGolden(path string, g goldenFile, results []workloadResult, opt options) error {
	if g[runtime.GOARCH] == nil {
		g[runtime.GOARCH] = map[string]string{}
	}
	for i := range results {
		if goldenApplies(&results[i], opt) == "" && results[i].Digest != "" {
			g[runtime.GOARCH][results[i].Workload] = results[i].Digest
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// resultSet is the file -json appends to and -compare reads.
type resultSet struct {
	Runs []workloadResult `json:"runs"`
}

func loadResultSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

func appendResults(path string, results []workloadResult) error {
	set, err := loadResultSet(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	set.Runs = append(set.Runs, results...)
	data, err := json.MarshalIndent(&set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
