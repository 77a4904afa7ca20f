package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sbgp/internal/routing"
)

// goldenOptions matches the options testdata/golden was generated
// with (the pre-refactor sequential harness at N=250, seed 5).
func goldenOptions() Options {
	return Options{N: 250, Seed: 5, X: 0.10}
}

func readGolden(t *testing.T, id string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", id+".txt"))
	if err != nil {
		t.Fatalf("missing golden for %s: %v", id, err)
	}
	return data
}

func statusByID(statuses []RunStatus) map[string]RunStatus {
	m := make(map[string]RunStatus, len(statuses))
	for _, st := range statuses {
		m[st.ID] = st
	}
	return m
}

// TestGoldenReports is the tentpole's byte-identity guarantee: the
// parallel, cached harness reproduces the pre-refactor sequential
// output exactly — on a cold cache, when re-rendering from a warm
// cache, and through direct Run calls.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	outDir := t.TempDir()

	cold, err := RunBatch(BatchOptions{Options: goldenOptions(), OutDir: outDir, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	coldBy := statusByID(cold)
	for _, id := range IDs() {
		st := coldBy[id]
		if st.Err != nil {
			t.Fatalf("%s failed: %v", id, st.Err)
		}
		if !bytes.Equal(st.Report, readGolden(t, id)) {
			t.Errorf("%s: cold-cache report differs from pre-refactor golden", id)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	// Force re-render over the warm cache: every simulation must come
	// from cache, and the reports must still match byte for byte.
	warm, err := RunBatch(BatchOptions{Options: goldenOptions(), OutDir: outDir, JSON: true, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range warm {
		if st.Err != nil {
			t.Fatalf("%s failed on forced rerun: %v", st.ID, st.Err)
		}
		if st.Resumed {
			t.Errorf("%s: Force run should re-render, not resume", st.ID)
		}
		if st.SimExecs != 0 {
			t.Errorf("%s: forced rerun executed %d sims, want 0 (all cached)", st.ID, st.SimExecs)
		}
		if !bytes.Equal(st.Report, readGolden(t, st.ID)) {
			t.Errorf("%s: cache-served report differs from golden", st.ID)
		}
	}

	// Plain rerun resumes everything without touching the runners.
	resumed, err := RunBatch(BatchOptions{Options: goldenOptions(), OutDir: outDir, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range resumed {
		if !st.Resumed {
			t.Errorf("%s: expected resume on identical rerun", st.ID)
		}
		if !bytes.Equal(st.Report, readGolden(t, st.ID)) {
			t.Errorf("%s: resumed report differs from golden", st.ID)
		}
	}
}

// TestGoldenReportsCacheInvariant: the resident cache tiers must be
// invisible in experiment output — a 1-byte budget, which holds no
// static, sidecar or record, and a strangled one (a few snapshots'
// worth, forcing most destinations to recompute every round) both
// reproduce every golden byte for byte.
func TestGoldenReportsCacheInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice more")
	}
	for _, budget := range []int64{1, 64 << 10} {
		opt := goldenOptions()
		opt.CacheBytes = budget
		checkGoldenBatch(t, fmt.Sprintf("budget %d", budget), opt)
	}
}

// TestGoldenReportsDynCacheInvariant: the cross-round dynamic records
// must be equally invisible next to the disk store. A 64 KB budget,
// which holds only part of a graph's statics, runs over a cold store,
// and a 1-byte budget then runs over the store it filled, where the
// disk serves the statics and sidecars and nothing stays resident.
// Every golden reproduces byte for byte.
func TestGoldenReportsDynCacheInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice more")
	}
	dir := t.TempDir()
	defer routing.CloseSharedDiskStores()
	for _, budget := range []int64{64 << 10, 1} {
		opt := goldenOptions()
		opt.CacheBytes, opt.StaticStoreDir = budget, dir
		checkGoldenBatch(t, fmt.Sprintf("budget %d over %s store", budget, map[int64]string{1: "a warm", 64 << 10: "a cold"}[budget]), opt)
	}
}

// checkGoldenBatch runs every experiment under opt and compares each
// report with its golden.
func checkGoldenBatch(t *testing.T, label string, opt Options) {
	t.Helper()
	statuses, err := RunBatch(BatchOptions{Options: opt})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses {
		if st.Err != nil {
			t.Fatalf("%s: %s failed: %v", label, st.ID, st.Err)
		}
		if !bytes.Equal(st.Report, readGolden(t, st.ID)) {
			t.Errorf("%s: %s report differs from golden", label, st.ID)
		}
	}
}

// TestDirectRunMatchesGolden checks the non-batch path (Run with a
// private store) against the same goldens for a sample of experiments.
func TestDirectRunMatchesGolden(t *testing.T) {
	for _, id := range []string{"fig3", "fig16", "table1"} {
		var buf bytes.Buffer
		opt := goldenOptions()
		opt.Out = &buf
		if err := Run(id, opt); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !bytes.Equal(buf.Bytes(), readGolden(t, id)) {
			t.Errorf("%s: direct Run output differs from golden", id)
		}
	}
}

func TestCrashResume(t *testing.T) {
	outDir := t.TempDir()
	opt := goldenOptions()
	partial := []string{"fig16", "fig17"}
	full := []string{"fig16", "fig17", "fig15", "table1"}

	// "Crash" after two experiments complete.
	first, err := RunBatch(BatchOptions{Options: opt, IDs: partial, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range first {
		if st.Err != nil || st.Resumed {
			t.Fatalf("%s: unexpected first-run state: err=%v resumed=%v", st.ID, st.Err, st.Resumed)
		}
	}

	// The restarted batch resumes the finished ids and runs the rest.
	second, err := RunBatch(BatchOptions{Options: opt, IDs: full, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	secondBy := statusByID(second)
	for _, id := range partial {
		if !secondBy[id].Resumed {
			t.Errorf("%s: completed before the crash but was rerun", id)
		}
	}
	for _, id := range []string{"fig15", "table1"} {
		if secondBy[id].Resumed {
			t.Errorf("%s: never ran but was resumed", id)
		}
		if secondBy[id].Err != nil {
			t.Errorf("%s: %v", id, secondBy[id].Err)
		}
	}

	// Losing the status markers but keeping the artifact cache must
	// re-render without re-simulating.
	if err := os.RemoveAll(filepath.Join(outDir, "status")); err != nil {
		t.Fatal(err)
	}
	third, err := RunBatch(BatchOptions{Options: opt, IDs: full, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range third {
		if st.Resumed {
			t.Errorf("%s: resumed without a status marker", st.ID)
		}
		if st.SimExecs != 0 {
			t.Errorf("%s: re-render executed %d sims, want 0", st.ID, st.SimExecs)
		}
	}

	// Different options must not resume from the old markers.
	opt2 := opt
	opt2.Seed = 6
	fourth, err := RunBatch(BatchOptions{Options: opt2, IDs: []string{"fig16"}, OutDir: outDir})
	if err != nil {
		t.Fatal(err)
	}
	if fourth[0].Resumed {
		t.Errorf("fig16: resumed across an options change")
	}
}

func TestRunBatchJSONReports(t *testing.T) {
	outDir := t.TempDir()
	statuses, err := RunBatch(BatchOptions{Options: goldenOptions(), IDs: []string{"fig3"}, OutDir: outDir, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	if statuses[0].Err != nil {
		t.Fatal(statuses[0].Err)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "fig3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("fig3.json does not parse: %v", err)
	}
	if rep.ID != "fig3" || rep.Desc == "" {
		t.Errorf("bad id/desc: %+v", rep)
	}
	if rep.Options.N != 250 || rep.Options.Seed != 5 || rep.Options.X != 0.10 {
		t.Errorf("bad options echo: %+v", rep.Options)
	}
	if len(rep.Header) == 0 || len(rep.Rows) == 0 {
		t.Errorf("JSON report has no parsed content: header=%d rows=%d", len(rep.Header), len(rep.Rows))
	}
	if len(rep.Sims) != 1 {
		t.Fatalf("fig3 should record exactly 1 sim, got %d", len(rep.Sims))
	}
	s := rep.Sims[0]
	if s.Key == "" || s.Graph == "" || s.Config == "" || s.Rounds == 0 {
		t.Errorf("incomplete sim record: %+v", s)
	}
	if len(s.RoundStats) != s.Rounds {
		t.Errorf("sim record has %d round stats for %d rounds", len(s.RoundStats), s.Rounds)
	}

	// A rerun that newly asks for JSON must not resume from a marker
	// that never emitted it.
	outDir2 := t.TempDir()
	if _, err := RunBatch(BatchOptions{Options: goldenOptions(), IDs: []string{"fig15"}, OutDir: outDir2}); err != nil {
		t.Fatal(err)
	}
	again, err := RunBatch(BatchOptions{Options: goldenOptions(), IDs: []string{"fig15"}, OutDir: outDir2, JSON: true})
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Resumed {
		t.Errorf("fig15: resumed a run that lacks the requested JSON report")
	}
	if _, err := os.Stat(filepath.Join(outDir2, "fig15.json")); err != nil {
		t.Errorf("fig15.json not written on the JSON rerun: %v", err)
	}
}

func TestRunBatchContinuesPastFailures(t *testing.T) {
	statuses, err := RunBatch(BatchOptions{Options: goldenOptions(), IDs: []string{"fig15", "fig16"}, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range statuses {
		if st.Err != nil {
			t.Fatalf("%s: %v", st.ID, st.Err)
		}
	}
	if _, err := RunBatch(BatchOptions{Options: goldenOptions(), IDs: []string{"nope"}}); err == nil {
		t.Errorf("unknown id accepted by RunBatch")
	}
}

// TestRunBatchStartsInOrder: experiments start in the order requested,
// so with one slot they finish in it too.
func TestRunBatchStartsInOrder(t *testing.T) {
	ids := []string{"fig16", "table1", "fig15", "fig3"}
	var finished []string
	_, err := RunBatch(BatchOptions{Options: goldenOptions(), IDs: ids, Parallel: 1,
		Progress: func(st RunStatus) { finished = append(finished, st.ID) }})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(finished, ids) {
		t.Errorf("experiments finished in order %v, want %v", finished, ids)
	}
}

func TestOptionsValidate(t *testing.T) {
	valid := goldenOptions()
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	bad := []Options{
		{N: -5, X: 0.1},
		{N: 3, X: 0.1},
		{N: 250, X: -0.2},
		{N: 250, X: 1.0},
		{N: 250, X: 1.5},
		{N: 250, X: 0.1, Workers: -1},
		{N: 250, X: 0.1, CacheBytes: -1},
		{N: 250, X: 0.1, DistWorkers: -1},
	}
	for _, opt := range bad {
		if err := opt.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", opt)
		}
		if err := Run("fig15", opt); err == nil {
			t.Errorf("Run accepted %+v", opt)
		}
	}
	if _, err := RunBatch(BatchOptions{Options: valid, IDs: []string{"fig15"}, Parallel: -3}); err == nil {
		t.Errorf("RunBatch accepted Parallel -3")
	}
}

// TestZeroValuesReachRunners is the regression test for the zero-value
// Options trap: -x 0 and -seed 0 used to be silently rewritten to the
// defaults (0.10 and 42) by withDefaults.
func TestZeroValuesReachRunners(t *testing.T) {
	opt := Options{N: 250, Seed: 0, X: 0}.withDefaults()
	if opt.Seed != 0 {
		t.Errorf("withDefaults rewrote Seed=0 to %d", opt.Seed)
	}
	if opt.X != 0 {
		t.Errorf("withDefaults rewrote X=0 to %v", opt.X)
	}

	var buf bytes.Buffer
	if err := Run("fig3", Options{N: 250, Seed: 0, X: 0, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	// fig3's header echoes x; x=0 must print as 0.0%, not the 10%
	// default.
	if !strings.Contains(buf.String(), "x=0.0%") {
		t.Errorf("fig3 did not run with x=0:\n%s", firstLine(buf.String()))
	}

	// And N=0 still means "the default substrate".
	if got := (Options{}).withDefaults().N; got != 1200 {
		t.Errorf("withDefaults N=0 -> %d, want 1200", got)
	}
	if DefaultOptions() != (Options{N: 1200, Seed: 42, X: 0.10}) {
		t.Errorf("DefaultOptions changed: %+v", DefaultOptions())
	}
}
