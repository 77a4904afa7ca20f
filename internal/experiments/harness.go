package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"time"
)

// The batch harness: runs many experiment ids concurrently against one
// shared Store, persists each finished experiment (text report, JSON
// report, status marker) under an output directory, and resumes an
// interrupted batch by skipping ids whose status marker proves they
// already completed with the same options.
//
// Layout under OutDir:
//
//	<id>.txt            the text report (what the runner printed)
//	<id>.json           machine-readable report (with -json)
//	status/<id>.json    completion marker keyed by options fingerprint
//	cache/graphs/*.txt  content-keyed generated graphs
//	cache/sims/*.json   content-keyed simulation results
//	cache/statics/      persistent packed static snapshots, one
//	                    statics-v1-<key> dir per (graph, tiebreaker)
//	                    (routing.StaticDiskStore; Options.StaticStoreDir)
//
// All files are written atomically (temp + rename), so after a crash
// every file present is complete and the next invocation resumes from
// exactly the work that finished.

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Options configures every experiment in the batch; Options.Out is
	// ignored (each experiment's report is captured and returned in its
	// RunStatus, and persisted when OutDir is set).
	Options
	// IDs selects which experiments run (nil = all, in registry order).
	IDs []string
	// Parallel bounds how many experiments run concurrently (0 = 4;
	// negative is an error); they start in IDs order. Simulations
	// remain globally gated by the store's worker budget, so raising
	// Parallel overlaps graph analysis and report rendering, never
	// oversubscribes simulation workers.
	Parallel int
	// OutDir is where reports, status markers, and the artifact cache
	// live ("" = run fully in memory: no persistence, no resume).
	OutDir string
	// JSON also emits <id>.json machine-readable reports.
	JSON bool
	// Force reruns every id even when a completed status marker
	// matches. The simulation cache still applies: forcing re-renders
	// reports without redoing finished simulations.
	Force bool
	// Progress, when set, is called as each experiment finishes (from
	// the finishing goroutine; callers needing ordering serialize
	// themselves).
	Progress func(RunStatus)
}

// RunStatus reports one experiment's outcome within a batch.
type RunStatus struct {
	ID   string
	Desc string
	// Report is the text report the experiment produced (loaded from
	// disk when Resumed).
	Report []byte
	// Err is the experiment's failure, if any (a failed experiment
	// never blocks the rest of the batch).
	Err error
	// Wall is this invocation's wall time for the experiment.
	Wall time.Duration
	// Resumed reports the experiment was skipped because a completed
	// status marker from a previous run matched.
	Resumed bool
	// Sims lists the simulation requests this run made (empty when
	// Resumed).
	Sims []SimRecord
	// SimExecs counts how many of those requests actually executed a
	// simulation (the rest were cache hits).
	SimExecs int
	// SharedRounds sums the executed simulations' SharedRounds: the
	// round computations the round memo served.
	SharedRounds int
}

// statusFile is the persisted per-experiment completion marker.
type statusFile struct {
	ID string `json:"id"`
	// OptionsFP guards the marker against option changes: a marker
	// written for one (N, seed, x) never satisfies another.
	OptionsFP string `json:"options_fp"`
	Completed bool   `json:"completed"`
	// JSON records whether the machine-readable report was emitted, so
	// a later -json invocation knows to re-render.
	JSON   bool    `json:"json"`
	WallMS float64 `json:"wall_ms"`
}

// RunBatch executes the selected experiments concurrently and returns
// one RunStatus per id, in the order requested. Individual experiment
// failures land in their RunStatus; the returned error covers only
// batch-level setup problems (bad options, unknown ids, unusable
// OutDir).
func RunBatch(b BatchOptions) ([]RunStatus, error) {
	opt := b.Options.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if b.Parallel < 0 {
		return nil, fmt.Errorf("experiments: Parallel must be non-negative, got %d", b.Parallel)
	}
	ids := b.IDs
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if Describe(id) == "" {
			return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
		}
	}

	cacheDir := ""
	if b.OutDir != "" {
		if err := os.MkdirAll(filepath.Join(b.OutDir, "status"), 0o755); err != nil {
			return nil, fmt.Errorf("experiments: creating output dir: %w", err)
		}
		cacheDir = filepath.Join(b.OutDir, "cache")
	}
	store, err := NewStore(cacheDir, opt.Workers)
	if err != nil {
		return nil, err
	}
	store.CacheBytes = opt.CacheBytes
	// Persistent disk tier for packed statics: defaults to a directory
	// inside the batch cache, so a rerun (or resumed crash) skips every
	// static BFS the previous run already paid. "off" opts out; an
	// explicit path works with or without an OutDir.
	switch {
	case opt.StaticStoreDir == "off":
		store.StaticStoreDir = ""
	case opt.StaticStoreDir == "" && cacheDir != "":
		store.StaticStoreDir = filepath.Join(cacheDir, "statics")
	default:
		store.StaticStoreDir = opt.StaticStoreDir
	}
	store.DistWorkers = opt.DistWorkers
	opt.store = store

	parallel := b.Parallel
	if parallel == 0 {
		parallel = 4
	}

	statuses := make([]RunStatus, len(ids))
	// Experiments start in the order requested, each as a slot frees:
	// which of them run side by side — and so the batch's memory peak —
	// then depends on their durations, not on goroutine scheduling.
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for i, id := range ids {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			defer func() { <-sem }()
			st := runExperiment(b, opt, id)
			statuses[i] = st
			if b.Progress != nil {
				b.Progress(st)
			}
		}(i, id)
	}
	wg.Wait()
	return statuses, nil
}

// runExperiment runs (or resumes) a single id against the shared store.
func runExperiment(b BatchOptions, opt Options, id string) (st RunStatus) {
	st = RunStatus{ID: id, Desc: Describe(id)}

	if b.OutDir != "" && !b.Force {
		if report, ok := tryResume(b, opt, id); ok {
			st.Report = report
			st.Resumed = true
			return st
		}
	}

	rec := &simRecorder{}
	runOpt := opt
	runOpt.rec = rec
	var buf syncBuffer
	runOpt.Out = &buf

	start := time.Now()
	st.Err = runProtected(id, runOpt)
	st.Wall = time.Since(start)
	st.Report = buf.Bytes()
	st.Sims = rec.snapshot()
	for _, s := range st.Sims {
		if !s.Cached {
			st.SimExecs++
		}
		st.SharedRounds += s.SharedRounds
	}
	if st.Err != nil || b.OutDir == "" {
		return st
	}

	if err := persistExperiment(b, opt, id, st); err != nil {
		st.Err = err
	}
	return st
}

// runProtected invokes the runner, converting panics (programming
// errors in a runner, cache-layer invariant violations) into errors so
// one broken experiment cannot take down the batch.
func runProtected(id string, opt Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: %s panicked: %v\n%s", id, r, debug.Stack())
		}
	}()
	return Run(id, opt)
}

// persistExperiment writes the report, optional JSON report, and the
// completion marker, in that order, so a status marker on disk implies
// the reports it describes exist.
func persistExperiment(b BatchOptions, opt Options, id string, st RunStatus) error {
	if err := writeFileAtomic(filepath.Join(b.OutDir, id+".txt"), st.Report); err != nil {
		return fmt.Errorf("experiments: persisting %s report: %w", id, err)
	}
	if b.JSON {
		rep := buildReport(id, opt, st.Report, st.Wall, st.Sims)
		data, err := renderReport(rep)
		if err != nil {
			return fmt.Errorf("experiments: rendering %s JSON report: %w", id, err)
		}
		if err := writeFileAtomic(filepath.Join(b.OutDir, id+".json"), data); err != nil {
			return fmt.Errorf("experiments: persisting %s JSON report: %w", id, err)
		}
	}
	marker := statusFile{
		ID:        id,
		OptionsFP: optionsFingerprint(opt),
		Completed: true,
		JSON:      b.JSON,
		WallMS:    float64(st.Wall) / float64(time.Millisecond),
	}
	data, err := json.MarshalIndent(&marker, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(statusPath(b.OutDir, id), append(data, '\n')); err != nil {
		return fmt.Errorf("experiments: persisting %s status: %w", id, err)
	}
	return nil
}

// tryResume reports whether id already completed under OutDir with the
// same options, returning the persisted report if so. Any
// inconsistency — missing or corrupt marker, options mismatch, missing
// report, JSON requested but not previously emitted — means "run it".
func tryResume(b BatchOptions, opt Options, id string) ([]byte, bool) {
	data, err := os.ReadFile(statusPath(b.OutDir, id))
	if err != nil {
		return nil, false
	}
	var marker statusFile
	if err := json.Unmarshal(data, &marker); err != nil {
		return nil, false
	}
	if !marker.Completed || marker.ID != id || marker.OptionsFP != optionsFingerprint(opt) {
		return nil, false
	}
	if b.JSON && !marker.JSON {
		return nil, false
	}
	report, err := os.ReadFile(filepath.Join(b.OutDir, id+".txt"))
	if err != nil {
		return nil, false
	}
	if b.JSON {
		if _, err := os.Stat(filepath.Join(b.OutDir, id+".json")); err != nil {
			return nil, false
		}
	}
	return report, true
}

func statusPath(outDir, id string) string {
	return filepath.Join(outDir, "status", id+".json")
}

// syncBuffer is a mutex-guarded byte buffer: runners write their
// reports sequentially, but the harness reads the buffer from its own
// goroutine after the runner returns, and the race detector rightly
// wants an ordering for that handoff.
type syncBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	return len(p), nil
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf
}
