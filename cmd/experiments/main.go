// Command experiments regenerates the paper's tables and figures over
// the synthetic substrate.
//
// Usage:
//
//	experiments -list
//	experiments -run fig3 [-n 2000] [-seed 42] [-x 0.1] [-out results/]
//	experiments -run all -out results/ -json
//
// With -out, completed experiments persist their reports plus a
// content-keyed artifact cache under the directory, so rerunning the
// same invocation resumes instead of recomputing: finished experiments
// are skipped outright, and interrupted ones reuse every simulation
// that already ran. -force reruns every experiment (still reusing
// cached simulations); -parallel bounds how many experiments run
// concurrently.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"sbgp/internal/dist"
	"sbgp/internal/experiments"
	"sbgp/internal/profiling"
)

func main() {
	// With -dist-workers, this binary fork-execs copies of itself as
	// stdio workers; a child serves here and exits.
	dist.MaybeRunWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs what they ask for and returns the exit code:
// reports and summaries go to stdout, errors to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiment ids and exit")
		runID    = fs.String("run", "", "experiment id to run, or 'all'")
		n        = fs.Int("n", 1200, "synthetic graph size")
		seed     = fs.Int64("seed", 42, "generator seed")
		x        = fs.Float64("x", 0.10, "CP traffic fraction")
		workers  = fs.Int("workers", 0, "simulation worker budget (0 = GOMAXPROCS)")
		distWork = fs.Int("dist-workers", 0, "run each simulation over this many local worker processes (0 = in-process)")
		parallel = fs.Int("parallel", 4, "experiments run concurrently")
		outDir   = fs.String("out", "", "directory for reports, resume state and the artifact cache (default stdout only)")
		jsonOut  = fs.Bool("json", false, "also write <id>.json machine-readable reports (requires -out)")
		force    = fs.Bool("force", false, "rerun experiments even when -out holds completed results")
		quiet    = fs.Bool("quiet", false, "suppress report bodies on stdout (summaries still print)")

		cacheBytes  = fs.Int64("cache-bytes", 0, "budget in bytes of each resident cache tier: statics, sidecars, the round memo and each simulation's dynamic records (0 = engine default; 1 = cache nothing)")
		staticStore = fs.String("static-store", "", "persistent packed-static disk tier directory (default <out>/cache/statics with -out; 'off' disables; bit-identical results)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		traceFile   = fs.String("trace", "", "write a runtime execution trace to this file (view with go tool trace)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	stop, err := profiling.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	defer stop()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-13s %s\n", id, experiments.Describe(id))
		}
		return 0
	}
	if *runID == "" {
		fmt.Fprintln(stderr, "experiments: -run <id>|all required (see -list)")
		return 2
	}
	if *jsonOut && *outDir == "" {
		fmt.Fprintln(stderr, "experiments: -json requires -out (JSON reports are written next to the text reports)")
		return 2
	}

	var ids []string
	if *runID != "all" {
		ids = []string{*runID}
	}

	// Flag values pass through verbatim: -x 0 and -seed 0 mean x=0 and
	// seed=0 (the flag defaults above supply the paper's base case, not
	// a post-hoc rewrite of zero values).
	var mu sync.Mutex
	batch := experiments.BatchOptions{
		Options:  experiments.Options{N: *n, Seed: *seed, X: *x, Workers: *workers, DistWorkers: *distWork, CacheBytes: *cacheBytes, StaticStoreDir: *staticStore},
		IDs:      ids,
		Parallel: *parallel,
		OutDir:   *outDir,
		JSON:     *jsonOut,
		Force:    *force,
		Progress: func(st experiments.RunStatus) {
			// Experiments finish concurrently; serialize so each
			// report prints as one uninterrupted block.
			mu.Lock()
			defer mu.Unlock()
			switch {
			case st.Err != nil:
				fmt.Fprintf(stdout, "=== %s: FAILED: %v ===\n\n", st.ID, st.Err)
			case st.Resumed:
				fmt.Fprintf(stdout, "=== %s: resumed (already complete in %s) ===\n\n", st.ID, *outDir)
			default:
				fmt.Fprintf(stdout, "=== %s: %s ===\n", st.ID, st.Desc)
				if !*quiet {
					stdout.Write(st.Report)
				}
				fmt.Fprintf(stdout, "=== %s done in %v (%d sims, %d executed, %d rounds shared) ===\n\n",
					st.ID, st.Wall.Round(time.Millisecond), len(st.Sims), st.SimExecs, st.SharedRounds)
			}
		},
	}

	start := time.Now()
	statuses, err := experiments.RunBatch(batch)
	if err != nil {
		// RunBatch's errors carry the experiments: prefix already.
		fmt.Fprintln(stderr, err)
		return 2
	}

	// A failed experiment never aborts the batch; it is reported above,
	// summarized here, and reflected in the exit code.
	failed := 0
	resumed := 0
	for _, st := range statuses {
		if st.Err != nil {
			failed++
		}
		if st.Resumed {
			resumed++
		}
	}
	fmt.Fprintf(stdout, "%d experiments: %d ok, %d resumed, %d failed in %v\n",
		len(statuses), len(statuses)-failed-resumed, resumed, failed, time.Since(start).Round(time.Millisecond))
	if failed > 0 {
		return 1
	}
	return 0
}
