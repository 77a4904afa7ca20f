package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
	"sbgp/internal/topogen"
)

// probeSample is how many destinations the per-function probes visit.
const probeSample = 1000

// candidatesPerDest is how many candidate ISPs the flip probes try per
// sampled destination.
const candidatesPerDest = 8

// sampleDests is a fixed-stride sample of probeSample destinations (all
// of them on a smaller graph); the run seed picks the stride's offset.
func sampleDests(n int, seed int64) []int32 {
	if n <= probeSample {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	stride := n / probeSample
	off := int(uint64(seed) % uint64(stride))
	out := make([]int32, probeSample)
	for i := range out {
		out[i] = int32(off + i*stride)
	}
	return out
}

// tracedGame is a game workload's traced run: one untraced and one
// RecordStats game for the overhead ratio and the exact RoundStats
// counts, a Workers=1 game, the per-function routing and disk probes on
// the final deployment state, and — on game-incoming-2500 — the dist
// runs. End-to-end metrics never come from here.
func tracedGame(sp childSpec, w workloadSpec) (childResult, error) {
	out := childResult{Metrics: map[string]float64{}}
	m := out.Metrics
	tr := newTracer()
	g, err := buildGraph(sp.N, sp.InstanceSeed)
	if err != nil {
		return out, err
	}
	cfg, err := gameConfig(g, w, sp.InstanceSeed, sp.StoreDir)
	if err != nil {
		return out, err
	}
	// Untraced reference game, with the allocator's counters read
	// around it.
	freshStart(w.Store)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, ok := out.playOp("untraced game", nil, g, cfg)
	runtime.ReadMemStats(&ms1)
	if !ok {
		return out, nil
	}
	m["sim.alloc_mb_per_game"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	m["sim.gc_cycles_per_game"] = float64(ms1.NumGC - ms0.NumGC)
	m["sim.parallel_efficiency"] = ratio(plain.cpuS, plain.wallS*2)
	out.Rounds = len(plain.res.Rounds)
	plainWall, plainCPU := plain.wallS, plain.cpuS
	plain = gameRun{}

	// Traced game: RecordStats on, spans around New and RunE.
	tcfg := cfg
	tcfg.RecordStats = true
	freshStart(w.Store)
	traced, ok := out.playOp("traced game", tr, g, tcfg)
	if !ok {
		return out, nil
	}
	m["trace_overhead_ratio"] = ratio(traced.wallS, plainWall)
	m["sim.new_ms"] = traced.newS * 1e3
	stats := gameStats(traced.res, m)
	final := traced.res.FinalSecure

	// One round of the engine on the final state, caches as the game
	// left them: base utilities only, then with every projection.
	s := tr.begin(0, "sim", "RoundUtilities.base")
	_, _, _, err = traced.sim.RoundUtilities(final, false)
	s.end()
	if err != nil {
		out.fail("RoundUtilities(base): %v", err)
	}
	m["sim.round_base_only_ms"] = s.busyMS()
	s = tr.begin(0, "sim", "RoundUtilities.projected")
	_, _, _, err = traced.sim.RoundUtilities(final, true)
	s.end()
	if err != nil {
		out.fail("RoundUtilities(projected): %v", err)
	}
	m["sim.round_projected_ms"] = s.busyMS()
	if err := probeResultIO(tr, traced.res, m); err != nil {
		out.fail("result I/O: %v", err)
	}
	traced.sim = nil

	// Plain single-threaded baseline of the same game. Its digest is not
	// compared: one shard sums the floats in a different order.
	c1 := cfg
	c1.Workers = 1
	freshStart(w.Store)
	out.Attempted++
	if w1, err := playGame(nil, g, c1); err != nil {
		out.fail("workers=1 game: %v", err)
	} else {
		m["sim.workers1_wall_s"] = w1.wallS
		m["sim.speedup_2w"] = ratio(w1.wallS, plainWall)
	}
	freshStart(w.Store)

	probeGraphIO(tr, sp, m)
	dests := sampleDests(g.N(), sp.Seed)
	blobs := probeRouting(tr, g, sp, dests, final, m)
	if err := probeDisk(tr, g, sp, w, dests, blobs, m); err != nil {
		out.fail("disk probes: %v", err)
	}
	if w.Dist {
		probeDist(tr, g, cfg, plainWall, &out)
	}
	out.Attribution = attribute(stats, m, plainCPU)
	for _, row := range out.Attribution {
		m["attr."+row.Component+"_share"] = row.Share
	}
	m["sim.unattributed_share"] = unattributed(out.Attribution)
	out.Spans = tr.spans
	return out, nil
}

// gameTotals are the exact RoundStats counts of one game, summed over
// the pristine pass and every round.
type gameTotals struct {
	staticMisses, staticHits, diskHits, diskWrites int64
	streamResolves, pristineReplays, baseRes       int64
	projRes, projUnchanged, skipped, pairs         int64
	dirtyCandDests, packedEntries                  int64
	diskBytes, packedHits                          int64
}

// gameStats folds a traced game's RoundStats into the sim.* metrics and
// returns the totals the attribution table multiplies by.
func gameStats(res *sim.Result, m map[string]float64) gameTotals {
	var t gameTotals
	var clean, dirty, reused, recomputed int64
	var staticBytes, dynBytes int64
	var roundMS, straggler []float64
	all := []*sim.RoundStats{res.PristineStats}
	for i := range res.Rounds {
		all = append(all, res.Rounds[i].Stats)
	}
	for i, st := range all {
		if st == nil {
			continue
		}
		t.staticMisses += st.StaticMisses
		t.staticHits += st.StaticHits
		t.diskHits += st.StaticDiskHits
		t.diskWrites += st.StaticDiskWrites
		t.diskBytes += st.StaticDiskBytesRead
		if st.StaticCacheEntries > 0 {
			// Hits are not split by entry form; assume they fall on packed
			// entries in proportion to the cache's packed share.
			t.packedHits += st.StaticHits * st.StaticPackedEntries / int64(st.StaticCacheEntries)
		}
		t.streamResolves += st.StreamResolves
		t.pristineReplays += st.PristineReplays
		t.baseRes += st.BaseResolutions
		t.projRes += st.ProjResolutions
		t.projUnchanged += st.ProjUnchanged
		t.skipped += st.Skipped()
		t.pairs += int64(st.Destinations) * int64(st.Candidates)
		clean += int64(st.CleanDests)
		dirty += int64(st.DirtyDests)
		if st.Candidates > 0 {
			t.dirtyCandDests += int64(st.Destinations - st.CleanDests)
		}
		reused += st.NodesReused
		recomputed += st.NodesRecomputed
		staticBytes = max(staticBytes, st.StaticCacheBytes)
		dynBytes = max(dynBytes, st.DynCacheBytes)
		t.packedEntries = max(t.packedEntries, st.StaticPackedEntries)
		straggler = append(straggler, st.StragglerRatio)
		if i > 0 {
			roundMS = append(roundMS, float64(st.Wall)/float64(time.Millisecond))
		}
	}
	if res.PristineStats != nil {
		m["sim.pristine_wall_ms"] = float64(res.PristineStats.Wall) / float64(time.Millisecond)
	}
	m["sim.rounds"] = float64(len(res.Rounds))
	m["sim.round_wall_ms_p50"] = median(roundMS)
	// Under ten rounds there is no sample beyond p90: this is the max.
	m["sim.round_wall_ms_p90"] = percentile(roundMS, 90)
	m["sim.static_misses"] = float64(t.staticMisses)
	m["sim.static_hit_ratio"] = ratio(float64(t.staticHits), float64(t.staticHits+t.staticMisses+t.diskHits))
	m["sim.disk_hits"] = float64(t.diskHits)
	m["sim.disk_bytes_read"] = float64(t.diskBytes)
	m["sim.disk_writes"] = float64(t.diskWrites)
	m["sim.pristine_replays"] = float64(t.pristineReplays)
	m["sim.stream_resolves"] = float64(t.streamResolves)
	m["sim.clean_dest_ratio"] = ratio(float64(clean), float64(clean+dirty))
	m["sim.proj_resolutions"] = float64(t.projRes)
	m["sim.proj_skip_ratio"] = ratio(float64(t.skipped), float64(t.pairs))
	m["sim.proj_unchanged_ratio"] = ratio(float64(t.projUnchanged), float64(t.pairs))
	m["sim.nodes_reused_ratio"] = ratio(float64(reused), float64(reused+recomputed))
	m["sim.straggler_ratio_p50"] = median(straggler)
	m["sim.static_cache_mb"] = float64(staticBytes) / 1e6
	m["sim.dyn_cache_mb"] = float64(dynBytes) / 1e6
	return t
}

// probeGraphIO times graph generation and the asgraph text format.
func probeGraphIO(tr *tracer, sp childSpec, m map[string]float64) {
	root := tr.begin(0, "topogen", "probes")
	defer root.end()
	s := tr.begin(root.id(), "topogen", "Generate")
	g, err := topogen.Generate(topogen.Default(sp.N, sp.InstanceSeed))
	s.end()
	if err != nil {
		return // buildGraph already generated this graph once
	}
	m["topogen.generate_ms"] = s.busyMS()
	var buf bytes.Buffer
	s = tr.begin(root.id(), "asgraph", "Write")
	err = asgraph.Write(&buf, g)
	s.end()
	if err != nil {
		return // a bytes.Buffer does not fail
	}
	m["asgraph.write_ms"] = s.busyMS()
	s = tr.begin(root.id(), "asgraph", "Read")
	_, err = asgraph.Read(bytes.NewReader(buf.Bytes()))
	s.end()
	if err == nil {
		m["asgraph.read_ms"] = s.busyMS()
	}
	s = tr.begin(root.id(), "asgraph", "Fingerprint")
	asgraph.Fingerprint(g)
	s.end()
	m["asgraph.fingerprint_ms"] = s.busyMS()
}

// probeResultIO times the Result wire format both ways, on the bytes an
// untraced game would write so that sim.result_bytes repeats exactly.
func probeResultIO(tr *tracer, res *sim.Result, m map[string]float64) error {
	defer stripStats(res)()
	var buf bytes.Buffer
	s := tr.begin(0, "sim", "WriteResult")
	err := sim.WriteResult(&buf, res)
	s.end()
	if err != nil {
		return err
	}
	m["sim.result_write_ms"] = s.busyMS()
	m["sim.result_bytes"] = float64(buf.Len())
	s = tr.begin(0, "sim", "ReadResult")
	_, err = sim.ReadResult(bytes.NewReader(buf.Bytes()))
	s.end()
	if err != nil {
		return err
	}
	m["sim.result_read_ms"] = s.busyMS()
	return nil
}

// probeRouting times routing's public per-destination functions over the
// destination sample, in the deployment state the game ended in. Each
// function gets one batch span; the per-call means are what the
// attribution table multiplies by the engine's exact counts. It returns
// each sampled destination's packed blob.
func probeRouting(tr *tracer, g *asgraph.Graph, sp childSpec, dests []int32, final []bool, m map[string]float64) [][]byte {
	n := g.N()
	tb := tiebreaker(sp.InstanceSeed)
	breaks := sim.DeriveBreaks(g, final, true)
	isps := g.ISPs()
	ws := routing.NewWorkspace(g)
	root := tr.begin(0, "routing", "probes")
	defer root.end()

	bfs := tr.batch(root.id(), "routing", "ComputeStatic")
	for _, d := range dests {
		bfs.time(func() { ws.ComputeStatic(d) })
	}
	bfs.end()
	m["routing.static_bfs_us"] = bfs.meanUS()

	prep := tr.batch(root.id(), "routing", "PrepareDest")
	pack := tr.batch(root.id(), "routing", "AppendPacked")
	resolve := tr.batch(root.id(), "routing", "ResolveInto")
	delta := tr.batch(root.id(), "routing", "PrepareDelta")
	effects := tr.batch(root.id(), "routing", "PrepareFlipEffects")
	predict := tr.batch(root.id(), "routing", "FlipChangesTree")
	apply := tr.batch(root.id(), "routing", "ApplyFlips+RevertFlips")

	var tree, proj routing.Tree
	tree.Clear(n)
	flipped := make([]bool, n)
	flipBreaks := make([]bool, n)
	blobs := make([][]byte, len(dests))
	var scratch []byte
	var packedBytes, touchedTotal, candidates, changes int64
	stride := max(1, len(isps)/candidatesPerDest)
	for k, d := range dests {
		var s *routing.Static
		prep.time(func() { s = ws.PrepareDest(d, tb) })
		pack.time(func() { scratch = routing.AppendPacked(scratch[:0], s, g) })
		blobs[k] = append([]byte(nil), scratch...)
		packedBytes += int64(len(scratch))
		resolve.time(func() { ws.ResolveInto(&tree, s, final, breaks, nil, nil, tb) })
		if len(isps) == 0 {
			continue
		}
		delta.time(func() { ws.PrepareDelta(s) })
		effects.time(func() { ws.PrepareFlipEffects(s, &tree, final, breaks, tb) })
		copied := false
		for j := 0; j < candidatesPerDest; j++ {
			c := isps[(k+j*stride)%len(isps)]
			if c == d || s.Pos(c) < 0 {
				continue
			}
			candidates++
			var moves bool
			predict.time(func() { moves = ws.FlipChangesTree(s, &tree, final, breaks, tb, c) })
			if !moves {
				continue
			}
			// As the engine does: propagate only the flips the predictor
			// could not prove harmless, on a copy of the base tree.
			changes++
			if !copied {
				proj.CopyFrom(&tree)
				copied = true
			}
			flipped[c], flipBreaks[c] = true, true
			apply.time(func() {
				_, touched := ws.ApplyFlips(&proj, s, final, breaks, flipped, flipBreaks, []int32{c}, tb)
				touchedTotal += int64(touched)
				ws.RevertFlips(&proj)
			})
			flipped[c] = false
		}
	}
	for _, b := range []*batch{prep, pack, resolve, delta, effects, predict, apply} {
		b.end()
	}
	m["routing.prepare_dest_us"] = prep.meanUS()
	m["routing.pack_us"] = pack.meanUS()
	m["routing.packed_bytes_per_dest"] = ratio(float64(packedBytes), float64(len(dests)))
	m["routing.resolve_us"] = resolve.meanUS()
	m["routing.flip_effects_us"] = effects.meanUS()
	m["routing.flip_changes_ratio"] = ratio(float64(changes), float64(candidates))
	m["routing.apply_flips_us"] = apply.meanUS()
	m["routing.apply_flips_touched"] = float64(touchedTotal)

	decode := tr.batch(root.id(), "routing", "DecodePackedTrusted")
	for _, blob := range blobs {
		decode.time(func() { _, _ = ws.DecodePackedTrusted(blob) }) // blobs this loop just packed
	}
	decode.end()
	m["routing.decode_us"] = decode.meanUS()

	sr := routing.NewStreamStatic(g)
	stream := tr.batch(root.id(), "routing", "StreamStatic.Resolve")
	for _, blob := range blobs {
		stream.time(func() { _ = sr.Resolve(blob, final, breaks, tb) })
	}
	stream.end()
	m["routing.stream_resolve_us"] = stream.meanUS()
	return blobs
}

// probeDisk times the disk tier: puts into a fresh store, reopening a
// populated one, and lookups. On the diskwarm workload the reopen is of
// the game's own store — all N destinations, not the sample.
func probeDisk(tr *tracer, g *asgraph.Graph, sp childSpec, w workloadSpec, dests []int32, blobs [][]byte, m map[string]float64) error {
	tb := tiebreaker(sp.InstanceSeed)
	root := tr.begin(0, "routing", "disk-probes")
	defer root.end()

	dir := filepath.Join(sp.TmpDir, "probe-store")
	st, err := routing.OpenStaticDiskStore(dir, g, tb)
	if err != nil {
		return err
	}
	put := tr.batch(root.id(), "routing", "StaticDiskStore.Put")
	for k, d := range dests {
		put.time(func() { st.Put(d, blobs[k]) })
	}
	put.end()
	m["routing.disk_put_us"] = put.meanUS()
	m["routing.disk_bytes_per_dest"] = ratio(float64(st.BytesOnDisk()), float64(len(dests)))
	if err := st.Close(); err != nil {
		return err
	}

	openDir := dir
	if w.Store {
		openDir = sp.StoreDir
	}
	s := tr.begin(root.id(), "routing", "OpenStaticDiskStore")
	st, err = routing.OpenStaticDiskStore(openDir, g, tb)
	s.end()
	if err != nil {
		return err
	}
	m["routing.disk_open_ms"] = s.busyMS()
	lookup := tr.batch(root.id(), "routing", "StaticDiskStore.Lookup")
	missing := 0
	for _, d := range dests {
		lookup.time(func() {
			if st.Lookup(d) == nil {
				missing++
			}
		})
	}
	lookup.end()
	m["routing.disk_lookup_us"] = lookup.meanUS()
	if err := st.Close(); err != nil {
		return err
	}
	if missing > 0 {
		return fmt.Errorf("%d of %d sampled destinations missing from the store at %s", missing, len(dests), openDir)
	}
	return nil
}
