package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// Each phase of a workload runs in a child process of its own (this
// binary again), so peak_rss_mb is the high-water mark of a process that
// ran only that phase. The spec travels in an environment variable, not
// in flags, so a test binary can serve as its own child too.
const childEnv = "SBGPBENCH_CHILD"

type childSpec struct {
	Phase        string  `json:"phase"` // "populate" | "timed" | "traced"
	Workload     string  `json:"workload"`
	N            int     `json:"n"`
	InstanceSeed int64   `json:"instance_seed"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	MinOps       int     `json:"min_ops"`
	// Repeats, when positive, fixes the operation count and overrides
	// Seconds and MinOps (the smoke test's single repeat).
	Repeats  int    `json:"repeats"`
	StoreDir string `json:"store_dir"`
	TmpDir   string `json:"tmp_dir"`
}

// done reports whether the timed loop has measured enough after ops
// operations.
func (sp childSpec) done(ops int, start time.Time) bool {
	if sp.Repeats > 0 {
		return ops >= sp.Repeats
	}
	return ops >= sp.MinOps && time.Since(start).Seconds() >= sp.Seconds
}

// opSample is one timed operation: a game, or a cold batch.
type opSample struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	DestRounds int64   `json:"dest_rounds"`
}

type childResult struct {
	Ops []opSample `json:"ops,omitempty"`
	// WarmWallS are the suite's forced re-run walls, one per cold batch.
	WarmWallS []float64 `json:"warm_wall_s,omitempty"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	// Digest is the result_digest every operation of the phase agreed on
	// (games), or the hash of the 25 report texts (suite).
	Digest    string   `json:"digest"`
	Rounds    int      `json:"rounds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Traced phase only.
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Attribution []attrRow          `json:"attribution,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// sameDigest records the phase's first digest and reports whether d
// matches it.
func (r *childResult) sameDigest(d string) bool {
	if r.Digest == "" {
		r.Digest = d
	}
	return r.Digest == d
}

// maybeRunChild serves a phase and exits when this process was started
// as a child; otherwise it returns.
func maybeRunChild() {
	raw := os.Getenv(childEnv)
	if raw == "" {
		return
	}
	os.Unsetenv(childEnv) // dist workers forked from here are not phases
	var sp childSpec
	if err := json.Unmarshal([]byte(raw), &sp); err != nil {
		fmt.Fprintln(os.Stderr, "sbgpbench child: bad spec:", err)
		os.Exit(2)
	}
	pinProcs()
	res, err := runPhase(sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbgpbench child:", err)
		os.Exit(1)
	}
	res.PeakRSSMB = peakRSSMB()
	if err := json.NewEncoder(os.Stdout).Encode(&res); err != nil {
		fmt.Fprintln(os.Stderr, "sbgpbench child:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runPhase(sp childSpec) (childResult, error) {
	w, ok := findWorkload(sp.Workload)
	if !ok {
		return childResult{}, fmt.Errorf("unknown workload %q", sp.Workload)
	}
	switch {
	case sp.Phase == "populate":
		return populateStore(sp, w)
	case sp.Phase == "timed" && w.Kind == kindGame:
		return timedGames(sp, w)
	case sp.Phase == "timed" && w.Kind == kindSuite:
		return timedSuite(sp, w)
	case sp.Phase == "traced" && w.Kind == kindGame:
		return tracedGame(sp, w)
	case sp.Phase == "traced" && w.Kind == kindSuite:
		return tracedSuite(sp, w)
	}
	return childResult{}, fmt.Errorf("unknown phase %q", sp.Phase)
}

// runChild starts this binary as a child serving sp, waits for it and
// returns its result and the child process's wall time.
func runChild(sp childSpec) (childResult, time.Duration, error) {
	var res childResult
	self, err := os.Executable()
	if err != nil {
		return res, 0, fmt.Errorf("locating own binary: %w", err)
	}
	raw, err := json.Marshal(&sp)
	if err != nil {
		return res, 0, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	t0 := time.Now()
	err = cmd.Run() // Run waits for the child to end
	wall := time.Since(t0)
	if err != nil {
		return res, wall, fmt.Errorf("%s child of %s: %w", sp.Phase, sp.Workload, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return res, wall, fmt.Errorf("%s child of %s: reading result: %w", sp.Phase, sp.Workload, err)
	}
	return res, wall, nil
}
