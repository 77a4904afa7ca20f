package sim

// The executor seam. A round's utility computation is a map/reduce over
// destinations (Appendix C): destinations are partitioned into S logical
// *shards* (shard s owns every destination d ≡ s mod S), each shard
// produces a partial utility vector pair, and the reduce folds the
// partials per index in fixed ascending shard order. Because float
// addition is not associative, that fold order — not the physical
// placement of shards — is what every simulation outcome depends on; an
// Executor may therefore run shards on pool goroutines (the default
// localExecutor) or on worker processes across machines (internal/dist)
// and produce bit-identical Results, as long as it returns one partial
// per shard and never pre-combines them.

// RoundState is the committed deployment state a round computes on: the
// secure bitmap plus the SecP tie-break flags. Executors must treat both
// slices as read-only and must not retain them across calls.
type RoundState struct {
	Secure []bool
	Breaks []bool
}

// ShardPartial is one logical shard's contribution to a round: the
// partial base-utility and projected-delta sums over the destinations
// the shard owns, plus its share of the round's instrumentation.
// UBase and UDelta have one entry per node and are owned by the
// executor — valid until its next ExecRound call.
type ShardPartial struct {
	Shard  int
	UBase  []float64
	UDelta []float64
	Stats  ShardStats
}

// ShardStats counts one shard's share of a round's resolution work.
// All fields are plain int64 counters so the struct round-trips through
// the dist wire format as a fixed-width block. WallNS is the shard's
// compute wall time in nanoseconds, measured where the work ran (on a
// worker process in distributed mode), so shard imbalance is visible
// even when network time hides it from the coordinator.
type ShardStats struct {
	WallNS              int64
	StaticHits          int64
	StaticMisses        int64
	StaticCacheBytes    int64
	StaticCacheEntries  int64
	BaseResolutions     int64
	ProjResolutions     int64
	ProjUnchanged       int64
	SkipZeroUtil        int64
	SkipInsecureDest    int64
	SkipDestFlip        int64
	SkipTurnOff         int64
	SkipTurnOn          int64
	NodesReused         int64
	NodesRecomputed     int64
	DirtyDests          int64
	CleanDests          int64
	DynCacheBytes       int64
	DynCacheEntries     int64
	DynCacheEvictions   int64
	StaticPackedBytes   int64
	StaticPackedEntries int64
	StaticDiskHits      int64
	StaticDiskBytesRead int64
	StaticDiskWrites    int64
	PristineReplays     int64
	PristineRecords     int64
	ClassReplays        int64
}

// add accumulates o into s. WallNS is summed too; callers wanting
// max/min track them separately.
func (s *ShardStats) add(o *ShardStats) {
	s.WallNS += o.WallNS
	s.StaticHits += o.StaticHits
	s.StaticMisses += o.StaticMisses
	s.StaticCacheBytes += o.StaticCacheBytes
	s.StaticCacheEntries += o.StaticCacheEntries
	s.BaseResolutions += o.BaseResolutions
	s.ProjResolutions += o.ProjResolutions
	s.ProjUnchanged += o.ProjUnchanged
	s.SkipZeroUtil += o.SkipZeroUtil
	s.SkipInsecureDest += o.SkipInsecureDest
	s.SkipDestFlip += o.SkipDestFlip
	s.SkipTurnOff += o.SkipTurnOff
	s.SkipTurnOn += o.SkipTurnOn
	s.NodesReused += o.NodesReused
	s.NodesRecomputed += o.NodesRecomputed
	s.DirtyDests += o.DirtyDests
	s.CleanDests += o.CleanDests
	s.DynCacheBytes += o.DynCacheBytes
	s.DynCacheEntries += o.DynCacheEntries
	s.DynCacheEvictions += o.DynCacheEvictions
	s.StaticPackedBytes += o.StaticPackedBytes
	s.StaticPackedEntries += o.StaticPackedEntries
	s.StaticDiskHits += o.StaticDiskHits
	s.StaticDiskBytesRead += o.StaticDiskBytesRead
	s.StaticDiskWrites += o.StaticDiskWrites
	s.PristineReplays += o.PristineReplays
	s.PristineRecords += o.PristineRecords
	s.ClassReplays += o.ClassReplays
}

// ExecInfo reports executor-level events of one round that are not
// per-shard work counters: robustness actions a distributed executor
// took. The in-process executor always returns the zero value.
type ExecInfo struct {
	// ShardsReassigned counts shards moved to a different worker process
	// this round because their owner died.
	ShardsReassigned int
	// WorkersLost counts worker processes declared dead this round.
	WorkersLost int
}

// Executor computes rounds for a Sim. Implementations must return
// exactly TotalShards partials in ascending shard order, each covering
// the destinations d ≡ shard (mod TotalShards); the Sim folds them per
// utility index in that order, which fixes the float summation sequence
// and makes every Result bit-identical across executors with equal
// TotalShards. An Executor serves one Sim at a time.
type Executor interface {
	// TotalShards is the logical shard count S the executor partitions
	// destinations into. It never changes over the executor's lifetime.
	TotalShards() int
	// ExecRound computes one round: partial base utilities for every
	// node and, for the listed candidates, partial projected deltas.
	// candList is ascending and may be empty (base utilities only).
	ExecRound(st RoundState, candList []int32) ([]ShardPartial, ExecInfo, error)
}

// localExecutor runs every shard in-process on a ShardEngine — the
// default when Config.Executor is nil.
type localExecutor struct {
	eng *ShardEngine
}

func (l *localExecutor) TotalShards() int { return l.eng.TotalShards() }

func (l *localExecutor) ExecRound(st RoundState, candList []int32) ([]ShardPartial, ExecInfo, error) {
	return l.eng.ComputeRound(st, candList), ExecInfo{}, nil
}
