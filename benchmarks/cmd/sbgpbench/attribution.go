package main

// The attribution table is computed, not measured: each row is a per-call
// probe time multiplied by the exact count of such calls a traced game's
// RoundStats report, over the game's CPU time. Probes run warm, one
// function at a time, on a sample of destinations; the engine interleaves
// them on cold caches — so the shares are a first answer and a target
// list for in-engine timers, not a profile.

// attributionComponents name the rows, in print order.
var attributionComponents = []string{
	"static_bfs", "pack", "disk_decode", "cache_decode", "stream_resolve", "resolve", "flip_effects", "apply_flips",
}

type attrRow struct {
	Component string  `json:"component"`
	Count     int64   `json:"count"`
	PerOpUS   float64 `json:"per_op_us"`
	CPUS      float64 `json:"cpu_s"`
	Share     float64 `json:"share"`
}

func attribute(t gameTotals, m map[string]float64, gameCPU float64) []attrRow {
	perOp := map[string]struct {
		count int64
		us    float64
	}{
		// A static miss runs PrepareDest's three-stage BFS.
		"static_bfs": {t.staticMisses, m["routing.prepare_dest_us"]},
		// Packing: every write-through to the disk tier, or — without a
		// store — every freshly computed static a budget overflow
		// repacked (blobs admitted from disk arrive packed).
		"pack": {max(t.diskWrites, min(t.packedEntries, t.staticMisses)), m["routing.pack_us"]},
		// Blob reads from the disk tier: a lookup and a trusted decode
		// each. StaticDiskHits also counts the far cheaper sidecar reads,
		// so the blob count is estimated from the bytes read.
		"disk_decode": {min(t.diskHits, blobsRead(t, m)), m["routing.disk_lookup_us"] + m["routing.decode_us"]},
		// Estimate: cache hits that landed on packed entries and were not
		// served by the streaming resolver decode a blob.
		"cache_decode":   {max(0, t.packedHits-t.streamResolves), m["routing.decode_us"]},
		"stream_resolve": {t.streamResolves, m["routing.stream_resolve_us"]},
		"resolve":        {t.baseRes - t.streamResolves, m["routing.resolve_us"]},
		// Upper bound: every recomputed destination of a candidate round
		// may prepare the predictor; those with no surviving candidate
		// do not.
		"flip_effects": {t.dirtyCandDests, m["routing.flip_effects_us"]},
		"apply_flips":  {t.projRes, m["routing.apply_flips_us"]},
	}
	rows := make([]attrRow, 0, len(attributionComponents))
	for _, name := range attributionComponents {
		p := perOp[name]
		cpu := float64(p.count) * p.us / 1e6
		rows = append(rows, attrRow{
			Component: name, Count: p.count, PerOpUS: p.us,
			CPUS: cpu, Share: ratio(cpu, gameCPU),
		})
	}
	return rows
}

// blobsRead estimates how many packed blobs the disk tier served from
// the bytes it read and the mean blob size the probes measured.
func blobsRead(t gameTotals, m map[string]float64) int64 {
	per := m["routing.packed_bytes_per_dest"]
	if per == 0 {
		return 0
	}
	return int64(float64(t.diskBytes)/per + 0.5)
}

// unattributed is the share of game CPU no row claims.
func unattributed(rows []attrRow) float64 {
	rest := 1.0
	for _, r := range rows {
		rest -= r.Share
	}
	return rest
}
