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
// executor — valid until its next ExecRound call. Stats holds the
// shard's counters, and its Wall is the shard's compute wall, measured
// where the work ran (on a worker process in distributed mode), so
// shard imbalance is visible even when network time hides it from the
// coordinator. Its round-level fields stay zero: the Sim sets them.
type ShardPartial struct {
	Shard  int
	UBase  []float64
	UDelta []float64
	Stats  RoundStats
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
