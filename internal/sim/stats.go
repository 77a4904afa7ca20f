package sim

import (
	"fmt"
	"reflect"
	"time"
)

// RoundStats instruments one round of the utility engine. It is
// recorded on Round (and returned by Sim.RoundUtilities) when
// Config.RecordStats is set.
//
// Per round the engine serves every destination once. A destination
// that runs the candidate loop counts, for every (destination,
// candidate) pair, exactly one of: a skip by the zero-utility test or
// one of the Appendix C.4 rules, a move-predictor proof that the
// projection changes no parent (FlipChangesTree false), or one
// projected resolution:
//
//	for each such pair: Skip*, predicted-unchanged, or ProjResolutions.
//
// A predicted-unchanged pair increments only ProjUnchanged, which also
// counts the resolved projections that moved no parent; so
// ProjResolutions + Skipped() falls short of the pair count by exactly
// the predicted-unchanged pairs. Destinations that never reach the loop
// count no pairs at all: those replayed from a sidecar
// (PristineReplays) or a sibling's class memo (ClassReplays).
//
// Projected resolutions are incremental (routing.ApplyFlips): only
// nodes whose decision inputs can have changed are re-decided
// (NodesRecomputed); every other node's base-tree decision is provably
// unchanged and reused (NodesReused).
type RoundStats struct {
	// Wall is the wall-clock time of the round's utility computation.
	Wall time.Duration
	// Destinations is the number of destinations processed (= N).
	Destinations int
	// Candidates is the number of candidate ISPs evaluated this round.
	Candidates int
	// StaticHits and StaticMisses count static-cache lookups this round:
	// hits served a destination's state-independent routing information
	// (Observation C.1) from a prior round's snapshot, misses ran the
	// three-stage BFS. Hits stay zero when the budget holds no static
	// (Config.CacheBytes 1).
	StaticHits   int64
	StaticMisses int64
	// StaticCacheBytes and StaticCacheEntries snapshot the resident
	// store's accounted size (statics plus sidecars) and static
	// population at round end, summed over the engines of a distributed
	// run.
	StaticCacheBytes   int64
	StaticCacheEntries int
	// BaseResolutions counts base-state routing tree resolutions (one
	// per destination).
	BaseResolutions int64
	// ProjResolutions counts projected resolutions actually performed
	// after the C.4 skip rules.
	ProjResolutions int64
	// ProjUnchanged counts projected resolutions whose tree routed
	// identically to the base tree (only Secure flags differed), letting
	// the engine skip the traffic accumulation pass: the utility delta
	// is exactly zero.
	ProjUnchanged int64
	// SkipZeroUtil counts pairs skipped because the candidate's utility
	// contribution for the destination is identically zero in every
	// deployment state (outgoing: best-route class is not customer;
	// incoming: no potential provider-route child), so the delta is
	// exactly 0 without resolving.
	SkipZeroUtil int64
	// SkipInsecureDest counts pairs skipped because an insecure
	// destination stays insecure (C.4 rule 1).
	SkipInsecureDest int64
	// SkipDestFlip counts pairs skipped because the destination itself
	// flips but provably no tree change follows.
	SkipDestFlip int64
	// SkipTurnOff counts pairs skipped because the candidate would turn
	// off without holding a fully-secure path (C.4 rule 2).
	SkipTurnOff int64
	// SkipTurnOn counts pairs skipped because the candidate would turn
	// on with no secure next hop on offer (C.4 rule 3).
	SkipTurnOn int64
	// NodesReused and NodesRecomputed count node decisions reused from
	// the base tree versus re-decided by change propagation, across all
	// projected resolutions.
	NodesReused     int64
	NodesRecomputed int64
	// DirtyDests and CleanDests split the *recorded* destinations by
	// cross-round dynamic-cache outcome. Clean destinations occur only in
	// base-only rounds: the realized flips moved no parent of the
	// record's tree, so its memoized base contributions were replayed
	// (or, for a leaf class's filler, re-accumulated) against the
	// advanced tree. Only a base-only round that finds records counts
	// any: a reused Sim's (RoundUtilities, a second Run), or an outgoing
	// round with no insecure ISP left. Every other
	// recorded destination is dirty and computed against its record's
	// tree — in a candidate round that is every record, since
	// projections are always recomputed — and, when a parent moved or
	// the record was admitted this round, its base contributions are
	// re-recorded too. Clean + dirty counts recorded destinations only,
	// so it is below Destinations whenever some hold no record: insecure
	// destinations no candidate can flip are never admitted
	// (PristineReplays serve them once their sidecar is recorded), nor
	// are class-replayed leaves (ClassReplays), nor is anything once the
	// budget is spent. Both stay zero when the budget holds no record
	// (Config.CacheBytes 1).
	DirtyDests int
	CleanDests int
	// DynCacheBytes and DynCacheEntries snapshot the dynamic cache's
	// accounted size and population across all workers at round end;
	// DynCacheEvictions is the lifetime count of records dropped
	// because a refresh outgrew the budget (a snapshot too — the
	// pristine pass's evictions are not lost between rounds).
	DynCacheBytes     int64
	DynCacheEntries   int
	DynCacheEvictions int64
	// StaticDiskHits counts destinations served by the persistent disk
	// tier (Config.StaticStoreDir): a stored packed blob was read,
	// CRC-checked and decoded instead of running the three-stage BFS
	// (disk hits are counted instead of — not on top of — StaticMisses).
	// StaticDiskBytesRead is the blob bytes those hits decoded, and
	// StaticDiskWrites counts freshly computed statics written through
	// to the store this round. All three stay zero without a store.
	StaticDiskHits      int64
	StaticDiskBytesRead int64
	StaticDiskWrites    int64
	// PristineReplays counts destinations served by replaying a recorded
	// pristine-contribution sidecar (no resolution, no tree), and
	// PristineRecords the sidecars recorded this round — only those some
	// tier kept (a full static budget rejects them). Sidecar disk
	// reads and writes are included in the StaticDisk* counters above.
	PristineReplays int64
	PristineRecords int64
	// StreamResolves is always 0: the engine no longer has a streaming-
	// resolve rung. The field stays so that result JSON keeps its shape
	// and readers of it keep compiling.
	StreamResolves int64
	// ClassReplays counts leaf destinations — single-homed peerless
	// stubs — served from the memo a sibling of the same provider and
	// deployment flags left this round (leafclass.go): no static, no
	// resolution, no projection, no record. Counted instead of — not on
	// top of — every other serving tier.
	ClassReplays int64 `json:",omitempty"`
	// StaticPackedEntries/StaticPackedBytes count the store entries held
	// in packed form and the blob bytes they occupy (a subset of
	// StaticCacheEntries/StaticCacheBytes; see routing/packed.go). Both
	// stay zero until a store overflows its budget and packs its later
	// admissions, or admits a disk blob.
	StaticPackedEntries int64
	StaticPackedBytes   int64
	// ShardWallMax and ShardWallMin are the slowest and fastest logical
	// shard's compute wall time this round, measured where the shard ran
	// (on the worker process, in distributed mode — network and merge
	// time are excluded, so the pair isolates shard imbalance).
	ShardWallMax time.Duration
	ShardWallMin time.Duration
	// StragglerRatio is ShardWallMax divided by the mean shard wall
	// time: 1.0 is a perfectly balanced round, and the round's critical
	// path is roughly StragglerRatio× the ideal parallel time.
	StragglerRatio float64
	// ShardsReassigned and WorkersLost count distributed-executor
	// robustness events this round: shards moved to a surviving worker
	// process because their owner died, and worker processes declared
	// dead. Always zero in-process.
	ShardsReassigned int
	WorkersLost      int
	// AllocBytes is the heap the whole process allocated during the
	// round: the runtime/metrics /gc/heap/allocs:bytes delta, a read
	// that does not stop the world and counts small objects a span at a
	// time. Concurrent simulations in one process count each other's
	// allocations, and in distributed mode it is the coordinator's alone.
	AllocBytes uint64
}

// Counters calls f with the name and value of every signed-integer
// field of st (the durations included), in declaration order, and
// stores back what f leaves in *v. It is the one enumeration of the
// counters: the round's reduce sums the shard partials through it and
// the dist wire carries them with it, so a field added to RoundStats
// reaches both with no other edit.
func (st *RoundStats) Counters(f func(name string, v *int64)) {
	sv := reflect.ValueOf(st).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if fv := sv.Field(i); fv.CanInt() {
			x := fv.Int()
			f(sv.Type().Field(i).Name, &x)
			fv.SetInt(x)
		}
	}
}

// add sums o's counters into st.
func (st *RoundStats) add(o *RoundStats) {
	var vs []int64
	o.Counters(func(_ string, v *int64) { vs = append(vs, *v) })
	st.Counters(func(_ string, v *int64) { *v += vs[0]; vs = vs[1:] })
}

// Skipped returns the total candidate resolutions avoided by the skip
// rules (zero-utility plus the C.4 family).
func (st *RoundStats) Skipped() int64 {
	return st.SkipZeroUtil + st.SkipInsecureDest + st.SkipDestFlip + st.SkipTurnOff + st.SkipTurnOn
}

// String renders a compact one-line digest. Its "proj A/B" reads
// ProjResolutions over ProjResolutions + Skipped(). The denominator
// excludes the pairs the move predictor proved unchanged without a
// resolution (counted only in "unchanged"), and the pairs of
// destinations that never reach the candidate loop (see RoundStats), so
// it is not the round's (destination, candidate) pair count.
func (st *RoundStats) String() string {
	pairs := st.ProjResolutions + st.Skipped()
	resolvedPct := 0.0
	if pairs > 0 {
		resolvedPct = 100 * float64(st.ProjResolutions) / float64(pairs)
	}
	reusedPct := 0.0
	if tot := st.NodesReused + st.NodesRecomputed; tot > 0 {
		reusedPct = 100 * float64(st.NodesReused) / float64(tot)
	}
	out := fmt.Sprintf(
		"%v, %d dests (%d clean, %d dirty), %d cands, static %d/%d hit (%d entries, %dB), dyn %d entries %dB (evict %d), proj %d/%d (%.2f%%; skips: zero-util %d, dest-insecure %d, dest-flip %d, turn-off %d, turn-on %d), unchanged %d, nodes-reused %.1f%%, shards %v/%v (straggler %.2fx), alloc %dB",
		st.Wall.Round(time.Microsecond), st.Destinations, st.CleanDests, st.DirtyDests, st.Candidates,
		st.StaticHits, st.StaticHits+st.StaticMisses, st.StaticCacheEntries, st.StaticCacheBytes,
		st.DynCacheEntries, st.DynCacheBytes, st.DynCacheEvictions,
		st.ProjResolutions, pairs, resolvedPct,
		st.SkipZeroUtil, st.SkipInsecureDest, st.SkipDestFlip, st.SkipTurnOff, st.SkipTurnOn,
		st.ProjUnchanged, reusedPct,
		st.ShardWallMin.Round(time.Microsecond), st.ShardWallMax.Round(time.Microsecond), st.StragglerRatio,
		st.AllocBytes)
	if st.StaticPackedEntries > 0 {
		out += fmt.Sprintf(", packed %d entries %dB", st.StaticPackedEntries, st.StaticPackedBytes)
	}
	if st.StaticDiskHits > 0 || st.StaticDiskWrites > 0 {
		out += fmt.Sprintf(", disk %d hit %dB read, %d writes",
			st.StaticDiskHits, st.StaticDiskBytesRead, st.StaticDiskWrites)
	}
	if st.PristineReplays > 0 || st.PristineRecords > 0 {
		out += fmt.Sprintf(", sidecar %d replayed (%d recorded)",
			st.PristineReplays, st.PristineRecords)
	}
	if st.ClassReplays > 0 {
		out += fmt.Sprintf(", class %d replayed", st.ClassReplays)
	}
	if st.WorkersLost > 0 || st.ShardsReassigned > 0 {
		out += fmt.Sprintf(", lost %d workers (%d shards reassigned)", st.WorkersLost, st.ShardsReassigned)
	}
	return out
}
