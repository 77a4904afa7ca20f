package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"sbgp/internal/experiments"
	"sbgp/internal/metrics"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// batchRun is one experiments.RunBatch over all 25 ids.
type batchRun struct {
	wallS, cpuS float64
	statuses    []experiments.RunStatus
}

// runBatch runs the whole paper suite the way `cmd/experiments -run all
// -json -out dir` does, with the simulation worker budget and the
// experiment concurrency both pinned to 2.
func runBatch(sp childSpec, dir string, force bool) (batchRun, error) {
	opt := experiments.DefaultOptions()
	opt.N = sp.N
	opt.Seed = sp.InstanceSeed
	opt.Workers = 2
	cpu0 := cpuSeconds()
	t0 := time.Now()
	statuses, err := experiments.RunBatch(experiments.BatchOptions{
		Options:  opt,
		Parallel: 2,
		OutDir:   dir,
		JSON:     true,
		Force:    force,
	})
	return batchRun{
		wallS:    time.Since(t0).Seconds(),
		cpuS:     cpuSeconds() - cpu0,
		statuses: statuses,
	}, err
}

// reportsDigest hashes every experiment's id and report text in order.
func reportsDigest(statuses []experiments.RunStatus) string {
	h := sha256.New()
	for _, st := range statuses {
		fmt.Fprintf(h, "%s\x00%d\x00", st.ID, len(st.Report))
		h.Write(st.Report)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkBatch counts a batch's operations — one per experiment id — into
// out: an id fails when its RunStatus carries an error, and the batch
// loses one more when its report texts differ from the first batch's.
func checkBatch(out *childResult, label string, b batchRun, err error) bool {
	if err != nil {
		out.Attempted += len(experimentIDs)
		out.Failed += len(experimentIDs)
		out.Failures = append(out.Failures, fmt.Sprintf("%s: %v", label, err))
		return false
	}
	ok := true
	out.Attempted += len(b.statuses)
	for _, st := range b.statuses {
		if st.Err != nil {
			out.fail("%s: %s: %v", label, st.ID, st.Err)
			ok = false
		}
	}
	if d := reportsDigest(b.statuses); ok && !out.sameDigest(d) {
		out.fail("%s: report hash %s differs from the first batch's %s", label, d, out.Digest)
		ok = false
	}
	return ok
}

// suiteDestRounds sums the Appendix C work of the simulations a batch
// actually executed: per simulation, one pass per destination for the
// pristine baseline plus one per round, on that simulation's own graph.
func suiteDestRounds(statuses []experiments.RunStatus) int64 {
	var total int64
	for _, st := range statuses {
		for _, rec := range st.Sims {
			if rec.Cached || len(rec.RoundStats) == 0 {
				continue
			}
			total += int64(rec.RoundStats[0].Destinations) * int64(len(rec.RoundStats)+1)
		}
	}
	return total
}

// timedSuite is the untraced timed section of suite-1200: cold batch on
// a fresh OutDir, then a forced re-run on the caches it left, repeated.
func timedSuite(sp childSpec, _ workloadSpec) (childResult, error) {
	var out childResult
	start := time.Now()
	for i := 0; !sp.done(i, start); i++ {
		dir := filepath.Join(sp.TmpDir, fmt.Sprintf("suite-%d", i))
		settle()
		cold, err := runBatch(sp, dir, false)
		coldOK := checkBatch(&out, fmt.Sprintf("cold batch %d", i), cold, err)
		// The warm batch opens the disk tier as a new process would.
		routing.CloseSharedDiskStores()
		settle()
		warm, err := runBatch(sp, dir, true)
		warmOK := checkBatch(&out, fmt.Sprintf("warm batch %d", i), warm, err)
		routing.CloseSharedDiskStores()
		if err := os.RemoveAll(dir); err != nil {
			return out, err
		}
		if coldOK && warmOK {
			out.Ops = append(out.Ops, opSample{WallS: cold.wallS, CPUS: cold.cpuS, DestRounds: suiteDestRounds(cold.statuses)})
			out.WarmWallS = append(out.WarmWallS, warm.wallS)
		}
	}
	return out, nil
}

// dirMB is the size of every regular file under dir, in MB.
func dirMB(dir string) float64 {
	var total int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished entry only makes the total smaller
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return float64(total) / 1e6
}

// tracedSuite is suite-1200's traced run: one cold, one forced warm and
// one resumed batch under spans, the experiments.* counts the statuses
// carry, and the metrics.* scans timed on the N-node final state.
func tracedSuite(sp childSpec, w workloadSpec) (childResult, error) {
	out := childResult{Metrics: map[string]float64{}}
	tr := newTracer()
	m := out.Metrics
	dir := filepath.Join(sp.TmpDir, "suite-traced")
	defer os.RemoveAll(dir)

	settle()
	root := tr.begin(0, "experiments", "suite")
	s := tr.begin(root.id(), "experiments", "RunBatch.cold")
	cold, err := runBatch(sp, dir, false)
	s.end()
	if !checkBatch(&out, "cold batch", cold, err) {
		return out, nil
	}
	routing.CloseSharedDiskStores()
	m["experiments.cache_mb_on_disk"] = dirMB(filepath.Join(dir, "cache"))

	settle()
	s = tr.begin(root.id(), "experiments", "RunBatch.warm")
	warm, err := runBatch(sp, dir, true)
	s.end()
	checkBatch(&out, "warm batch", warm, err)
	routing.CloseSharedDiskStores()

	s = tr.begin(root.id(), "experiments", "RunBatch.resume")
	resume, err := runBatch(sp, dir, false)
	s.end()
	checkBatch(&out, "resumed batch", resume, err)
	routing.CloseSharedDiskStores()
	root.end()
	m["experiments.resume_wall_ms"] = resume.wallS * 1e3
	// The traced suite records spans only, so the ratio is span cost.
	m["trace_overhead_ratio"] = 1

	var requested, executed, slowest float64
	for _, st := range cold.statuses {
		requested += float64(len(st.Sims))
		executed += float64(st.SimExecs)
		ms := float64(st.Wall) / float64(time.Millisecond)
		m["experiments.wall_ms."+st.ID] = ms
		if ms > slowest {
			slowest = ms
		}
	}
	m["experiments.sims_requested"] = requested
	m["experiments.sims_executed"] = executed
	m["experiments.sim_dedup_ratio"] = ratio(requested-executed, requested)
	m["experiments.critical_path_share"] = ratio(slowest, cold.wallS*1e3)

	// metrics.* on the final state of the case-study game, which is what
	// sec73, fig9 and fig10 scan.
	g, err := buildGraph(sp.N, sp.InstanceSeed)
	if err != nil {
		return out, err
	}
	cfg, err := gameConfig(g, w, sp.InstanceSeed, "")
	if err != nil {
		return out, err
	}
	cfg.Model = sim.Incoming
	out.Attempted++
	run, err := playGame(nil, g, cfg)
	if err != nil {
		out.fail("case-study game: %v", err)
		return out, nil
	}
	final := run.res.FinalSecure
	probes := tr.begin(0, "metrics", "probes")
	s = tr.begin(probes.id(), "metrics", "ScanTurnOff")
	_, err = metrics.ScanTurnOff(g, final, cfg)
	s.end()
	if err != nil {
		out.fail("ScanTurnOff: %v", err)
	}
	m["metrics.scan_turnoff_ms"] = s.busyMS()
	s = tr.begin(probes.id(), "metrics", "ComputeSecurePaths")
	metrics.ComputeSecurePaths(g, final, true, cfg.Tiebreaker)
	s.end()
	m["metrics.secure_paths_ms"] = s.busyMS()
	s = tr.begin(probes.id(), "metrics", "ComputeTiebreakDist")
	metrics.ComputeTiebreakDist(g)
	s.end()
	m["metrics.tiebreak_dist_ms"] = s.busyMS()
	probes.end()

	probeGraphIO(tr, sp, m)
	if err := probeResultIO(tr, run.res, m); err != nil {
		out.fail("result I/O: %v", err)
	}
	out.Spans = tr.spans
	return out, nil
}
