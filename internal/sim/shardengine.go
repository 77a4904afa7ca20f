package sim

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

// ShardEngine owns a subset of the S logical destination shards of a
// simulation and computes their partial utility sums each round. It is
// the execution core extracted from the old in-process worker pool: the
// default local executor owns all S shards; a distributed worker
// process owns a fixed subset (shards are long-lived, so the engine's
// static store and the per-shard dynamic records persist across rounds
// exactly as they do in-process).
//
// Every shard maps to one worker (scratch state plus records), and shard
// s processes destinations d ≡ s (mod S) in ascending order — the same
// striping at any process count, so a shard's partial vectors are
// bit-identical wherever it runs. A ShardEngine may be used by only one
// goroutine at a time.
type ShardEngine struct {
	g        *asgraph.Graph
	cfg      Config
	weights  []float64
	total    int   // S: the logical shard count across all engines
	shards   []int // owned shard ids, ascending
	pool     []*worker
	wall     []time.Duration
	allIdx   []int          // cached [0..len(pool)) index list
	partials []ShardPartial // reused output buffer
	candMark []bool         // roundCtx.candMark backing store
	candPrev []int32        // marks set last round, for O(|cand|) clearing

	// statics is the resident static tier every shard serves through:
	// Config.SharedStatics, or the engine's own store. disk is the
	// persistent L2 tier (Config.StaticStoreDir), nil when unset or
	// unusable. Both are concurrency-safe and keyed by destination, so
	// neither needs a per-shard split.
	statics *routing.SharedStaticCache
	disk    *routing.StaticDiskStore

	// Cross-round dynamic-cache state (see dyncache.go). dynPrev is the
	// deployment state every record's tree currently corresponds to;
	// each ComputeRound diffs it against the incoming state to derive
	// the realized flip set, advances the records, and snapshots the new
	// state back. Diffing (rather than collecting Run's flip lists)
	// keeps the invariant under arbitrary state jumps: repeated Run
	// calls, RoundUtilities probes, the pristine pass, a distributed
	// worker resuming from a snapshot after a reassignment.
	dynBudget     int64 // per-shard record budget, for AddShards
	dynPrev       *deployState
	dynFlips      []int32
	dynFlipMark   []bool
	dynFlipBreaks []bool

	// leafProv is the per-graph leaf index of the sibling-leaf class tier
	// (leafclass.go): the provider of every single-homed peerless stub,
	// -1 elsewhere.
	leafProv []int32
}

// NewShardEngine builds an engine owning the given shard ids out of
// total. cfg.CacheBytes bounds the engine's own static store, one for
// all its shards, and the records, split per logical shard
// (budget/total) so a shard's record capacity is the same wherever it
// is placed. A dist worker builds its engine here from the wire, not
// through New, so the Config is validated here too. cfg.Workers and
// cfg.Executor are ignored: the partitioning is explicit here.
func NewShardEngine(g *asgraph.Graph, cfg Config, shards []int, total int) (*ShardEngine, error) {
	cfg = cfg.withDefaults()
	if total < 1 {
		return nil, fmt.Errorf("sim: shard engine needs total ≥ 1, got %d", total)
	}
	if err := cfg.validate(g.N()); err != nil {
		return nil, err
	}
	e := &ShardEngine{g: g, cfg: cfg, total: total}
	n := g.N()
	e.weights = make([]float64, n)
	for i := int32(0); i < int32(n); i++ {
		e.weights[i] = g.Weight(i)
	}
	// Shard-private records mean admission differs across shard counts,
	// but replay is bit-identical to recomputation, so only performance
	// varies.
	budget := cfg.CacheBytes
	if budget == 0 {
		budget = routing.DefaultCacheBytes
	}
	e.dynBudget = max(budget/int64(total), 1)
	// The resident static tier: a caller's store, which must be serving
	// this graph and tiebreaker, or one of the engine's own.
	e.statics = cfg.SharedStatics
	if e.statics == nil {
		e.statics = routing.NewSharedStaticCache(budget)
	}
	if err := e.statics.Bind(g, cfg.Tiebreaker); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// The persistent L2 tier. Process-wide shared instance so every Sim
	// on this (graph, tiebreaker) reuses one set of file descriptors —
	// and immediately sees statics earlier Sims persisted. An
	// unusable store (missing dir on a dist worker host, foreign meta,
	// unkeyable tiebreaker) degrades silently to today's behavior.
	if cfg.StaticStoreDir != "" {
		if ds, err := routing.SharedStaticDiskStore(cfg.StaticStoreDir, g, cfg.Tiebreaker); err == nil {
			e.disk = ds
		}
	}
	e.leafProv = leafProviders(g)
	if err := e.AddShards(shards); err != nil {
		return nil, err
	}
	return e, nil
}

// TotalShards returns S, the logical shard count across all engines.
func (e *ShardEngine) TotalShards() int { return e.total }

// Shards returns the owned shard ids, ascending. The slice is owned by
// the engine.
func (e *ShardEngine) Shards() []int { return e.shards }

// AddShards extends the engine with additional shard ids (a distributed
// worker adopting the shards of a dead peer). An adopted shard starts
// cold: its records are empty, and the engine's stores hold none of its
// destinations, so its first round recomputes from scratch —
// bit-identically, since cache state never changes results.
func (e *ShardEngine) AddShards(ids []int) error {
	for _, s := range ids {
		if s < 0 || s >= e.total {
			return fmt.Errorf("sim: shard %d out of range [0,%d)", s, e.total)
		}
		for _, have := range e.shards {
			if have == s {
				return fmt.Errorf("sim: shard %d already owned", s)
			}
		}
		wk := newWorker(e.g, e.g.N())
		wk.shard, wk.stride = int32(s), int32(e.total)
		wk.statics = e.statics
		wk.disk = e.disk
		wk.dyn = newDynCache(e.dynBudget)
		wk.classes = newLeafClasses(e.leafProv, s, e.total)
		e.shards = append(e.shards, s)
		e.pool = append(e.pool, wk)
		e.wall = append(e.wall, 0)
	}
	// Keep shard order ascending so partials come out sorted; the pool
	// stays parallel to the shard list.
	sort.Sort(&shardOrder{e})
	return nil
}

// shardOrder sorts an engine's shard list and pool in lockstep.
type shardOrder struct{ e *ShardEngine }

func (o *shardOrder) Len() int           { return len(o.e.shards) }
func (o *shardOrder) Less(i, j int) bool { return o.e.shards[i] < o.e.shards[j] }
func (o *shardOrder) Swap(i, j int) {
	e := o.e
	e.shards[i], e.shards[j] = e.shards[j], e.shards[i]
	e.pool[i], e.pool[j] = e.pool[j], e.pool[i]
	e.wall[i], e.wall[j] = e.wall[j], e.wall[i]
}

// ComputeRound computes every owned shard's partials for one round: the
// partial base utility of every node over the shard's destinations
// plus, for the listed candidates, the partial projected deltas.
// candList must be ascending and may be empty. The returned slice and
// the vectors it points into are owned by the engine and overwritten by
// the next compute call.
func (e *ShardEngine) ComputeRound(st RoundState, candList []int32) []ShardPartial {
	return e.compute(st, candList, nil)
}

// ComputeShards is ComputeRound restricted to a subset of the owned
// shards — the replay path of a distributed reassignment, where freshly
// adopted shards must be computed for a round the engine's other shards
// already finished. Unknown shard ids are an error.
func (e *ShardEngine) ComputeShards(st RoundState, candList []int32, ids []int) ([]ShardPartial, error) {
	idx := make([]int, 0, len(ids))
	for _, s := range ids {
		found := -1
		for i, have := range e.shards {
			if have == s {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("sim: shard %d not owned", s)
		}
		idx = append(idx, found)
	}
	sort.Ints(idx)
	return e.compute(st, candList, idx), nil
}

// compute runs the selected worker indices (all when idx is nil)
// against state st and returns their partials in ascending shard order.
func (e *ShardEngine) compute(rs RoundState, candList []int32, idx []int) []ShardPartial {
	n := e.g.N()
	st := &deployState{secure: rs.Secure, breaks: rs.Breaks}
	if idx == nil {
		if len(e.allIdx) != len(e.pool) {
			e.allIdx = e.allIdx[:0]
			for i := range e.pool {
				e.allIdx = append(e.allIdx, i)
			}
		}
		idx = e.allIdx
	}

	rc := &roundCtx{st: st, candList: candList, cfg: &e.cfg, weights: e.weights}
	if len(candList) > 0 {
		if e.candMark == nil {
			e.candMark = make([]bool, n)
		}
		for _, c := range e.candPrev {
			e.candMark[c] = false
		}
		e.candPrev = append(e.candPrev[:0], candList...)
		for _, c := range candList {
			e.candMark[c] = true
		}
		rc.candMark = e.candMark
	}
	e.syncDyn(st, rc)

	// One goroutine per selected shard; destinations are striped
	// statically (shard s handles d ≡ s mod S in ascending order), so a
	// shard's partial sums depend only on (graph, config, state) — never
	// on which process or goroutine ran it.
	var wg sync.WaitGroup
	wg.Add(len(idx))
	for _, i := range idx {
		go func(i int) {
			defer wg.Done()
			started := time.Now()
			wk := e.pool[i]
			wk.resetRound(n)
			wk.plan(rc)
			for d := wk.shard; int(d) < n; d += wk.stride {
				wk.serveDest(d, rc)
			}
			e.wall[i] = time.Since(started)
		}(i)
	}
	wg.Wait()
	e.saveDyn(st)

	out := e.partials[:0]
	for _, i := range idx {
		wk := e.pool[i]
		p := ShardPartial{Shard: e.shards[i], UBase: wk.uBase, UDelta: wk.uDelta, Stats: wk.stats}
		p.Stats.Wall = e.wall[i]
		p.Stats.DynCacheBytes = wk.dyn.bytes
		p.Stats.DynCacheEntries = len(wk.dyn.entries)
		p.Stats.DynCacheEvictions = wk.dyn.evictions
		out = append(out, p)
	}
	// The resident store is the engine's, not a shard's: it is reported
	// once, on the first partial of a compute covering every owned shard,
	// and the Sim sums it over engines like any other counter. A replay
	// of adopted shards (ComputeShards) adds partials to a round the
	// engine already reported — unless they are all it owns.
	if len(out) > 0 && len(idx) == len(e.pool) {
		st := &out[0].Stats
		st.StaticCacheBytes = e.statics.Bytes()
		st.StaticCacheEntries = e.statics.Entries()
		st.StaticPackedBytes = e.statics.PackedBytes()
		st.StaticPackedEntries = e.statics.PackedEntries()
	}
	e.partials = out[:0]
	return out
}

// syncDyn derives the realized flip set by diffing the incoming state
// against dynPrev and publishes it in rc. A tie-break flag changing
// without its security flag cannot be expressed as a flip, so that
// (never produced by set/unset under a fixed config, but reachable
// through RoundUtilities on exotic inputs) purges every record instead.
func (e *ShardEngine) syncDyn(st *deployState, rc *roundCtx) {
	n := len(st.secure)
	if e.dynPrev == nil {
		// First round ever: no records exist yet, so any flip set is
		// vacuously correct — publish an empty one.
		e.dynFlipMark = make([]bool, n)
		e.dynFlipBreaks = make([]bool, n)
		e.dynPrev = st.clone()
	}
	for _, f := range e.dynFlips {
		e.dynFlipMark[f] = false
		e.dynFlipBreaks[f] = false
	}
	e.dynFlips = e.dynFlips[:0]
	purge := false
	for i := 0; i < n; i++ {
		if st.secure[i] != e.dynPrev.secure[i] {
			e.dynFlips = append(e.dynFlips, int32(i))
			e.dynFlipMark[i] = true
			e.dynFlipBreaks[i] = st.breaks[i]
		} else if st.breaks[i] != e.dynPrev.breaks[i] {
			purge = true
		}
	}
	if purge {
		for _, wk := range e.pool {
			wk.dyn.purge()
		}
		for _, f := range e.dynFlips {
			e.dynFlipMark[f] = false
			e.dynFlipBreaks[f] = false
		}
		e.dynFlips = e.dynFlips[:0]
		e.saveDyn(st)
	}
	rc.flipList = e.dynFlips
	rc.flipMark = e.dynFlipMark
	rc.flipBreaks = e.dynFlipBreaks
	rc.prevSecure = e.dynPrev.secure
	rc.prevBreaks = e.dynPrev.breaks
}

// saveDyn snapshots st as the state the record trees now correspond to,
// into the dynPrev that syncDyn has set by then.
func (e *ShardEngine) saveDyn(st *deployState) {
	copy(e.dynPrev.secure, st.secure)
	copy(e.dynPrev.breaks, st.breaks)
}
