package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

// Sim runs the S*BGP deployment game over one graph. All
// round-computation buffers are allocated once and reused for every
// round (and across Runs), so steady-state rounds allocate nothing;
// consequently a Sim may be used by only one goroutine at a time.
//
// The per-round utility computation itself runs behind the Executor
// seam: by default an in-process ShardEngine owning all S logical
// shards (S = Config.Shards), optionally a distributed coordinator
// supplied via Config.Executor. The Sim merges the per-shard partial
// sums in fixed ascending shard order, so Results are bit-identical
// across executors with equal shard counts.
type Sim struct {
	g     *asgraph.Graph
	cfg   Config
	theta []float64 // per-node deployment threshold

	// Round execution and persistent merge state.
	exec     Executor
	local    *ShardEngine // non-nil iff exec is the in-process default
	uBase    []float64
	uProj    []float64
	candList []int32
	candBuf  []bool
	scratch  *deployState // state builder for RoundUtilities
}

// New validates the configuration against the graph and returns a
// simulation ready to Run.
func New(g *asgraph.Graph, cfg Config) (*Sim, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(g.N()); err != nil {
		return nil, err
	}
	s := &Sim{g: g, cfg: cfg}
	s.theta = s.nodeThetas()

	n := g.N()
	if cfg.Executor != nil {
		if cfg.Executor.TotalShards() < 1 {
			return nil, fmt.Errorf("sim: executor reports %d shards", cfg.Executor.TotalShards())
		}
		s.exec = cfg.Executor
	} else {
		total := cfg.Shards(n)
		shards := make([]int, total)
		for i := range shards {
			shards[i] = i
		}
		eng, err := NewShardEngine(g, cfg, shards, total)
		if err != nil {
			return nil, err
		}
		s.local = eng
		s.exec = &localExecutor{eng: eng}
	}
	s.uBase = make([]float64, n)
	s.uProj = make([]float64, n)
	return s, nil
}

// nodeThetas resolves every node's deployment threshold per the
// Theta/ThetaJitter/ThetaByNode configuration.
func (s *Sim) nodeThetas() []float64 {
	n := s.g.N()
	out := make([]float64, n)
	rng := rand.New(rand.NewSource(s.cfg.ThetaSeed))
	for i := 0; i < n; i++ {
		th := s.cfg.Theta
		if j := s.cfg.ThetaJitter; j > 0 {
			th = s.cfg.Theta * (1 + j*(2*rng.Float64()-1))
		}
		if s.cfg.ThetaByNode != nil && !math.IsNaN(s.cfg.ThetaByNode[i]) {
			th = s.cfg.ThetaByNode[i]
		}
		if th < 0 {
			th = 0
		}
		out[i] = th
	}
	return out
}

// MustNew is New that panics on error.
func MustNew(g *asgraph.Graph, cfg Config) *Sim {
	s, err := New(g, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Run executes the deployment process until it reaches a stable state,
// revisits a previous state (oscillation), or hits the round cap. It
// panics if round execution fails, which the in-process executor never
// does; distributed runs should prefer RunE.
func (s *Sim) Run() *Result {
	res, err := s.RunE()
	if err != nil {
		panic(err)
	}
	return res
}

// RunE is Run with an error return: a distributed executor can fail
// mid-run (all worker processes lost), which surfaces here instead of
// panicking.
func (s *Sim) RunE() (*Result, error) {
	g, cfg := s.g, s.cfg
	n := g.N()

	res := &Result{
		ISPs:         g.Nodes(asgraph.ISP),
		FinalSecure:  make([]bool, n),
		PristineUtil: make([]float64, n),
	}

	// Starting utilities: the all-insecure world before any deployment,
	// the baseline the paper normalizes utility trajectories by.
	pristine := newDeployState(n)
	prBase, _, prStats, err := s.computeRound(pristine, nil)
	if err != nil {
		return nil, err
	}
	res.PristineStats = prStats
	for i := range res.PristineUtil {
		if g.IsISP(int32(i)) {
			res.PristineUtil[i] = prBase[i]
		} else {
			res.PristineUtil[i] = math.NaN()
		}
	}

	// Initial state: early adopters secure; stub customers of early
	// adopter ISPs run simplex S*BGP (Section 3.2).
	st := newDeployState(n)
	for _, a := range cfg.EarlyAdopters {
		st.set(g, a, cfg.StubsBreakTies)
	}
	for _, a := range cfg.EarlyAdopters {
		if g.IsISP(a) {
			for _, c := range g.Customers(a) {
				if g.IsStub(c) {
					st.set(g, c, cfg.StubsBreakTies)
				}
			}
		}
	}
	res.Initial = countSecure(g, st.secure)

	// State history for oscillation detection.
	seen := map[uint64][]int{}
	snaps := [][]uint64{}
	record := func(snap []uint64) (round int, repeat bool) {
		h := hashSnapshot(snap)
		for _, r := range seen[h] {
			if snapshotsEqual(snaps[r], snap) {
				return r, true
			}
		}
		seen[h] = append(seen[h], len(snaps))
		snaps = append(snaps, snap)
		return len(snaps) - 1, false
	}
	record(st.snapshot())

	for round := 0; round < cfg.MaxRounds; round++ {
		candidates := s.candidates(st)
		uBase, uProj, stats, err := s.computeRound(st, candidates)
		if err != nil {
			return nil, err
		}

		var rd Round
		rd.Stats = stats
		if cfg.RecordUtilities {
			rd.UtilBase = make([]float64, n)
			rd.UtilProj = make([]float64, n)
			for i := 0; i < n; i++ {
				if g.IsISP(int32(i)) {
					rd.UtilBase[i] = uBase[i]
				} else {
					rd.UtilBase[i] = math.NaN()
				}
				if candidates[i] {
					rd.UtilProj[i] = uProj[i]
				} else {
					rd.UtilProj[i] = math.NaN()
				}
			}
		}

		// Myopic best response (update rule 3): flip iff projected
		// utility clears the threshold.
		for i := 0; i < n; i++ {
			if !candidates[i] {
				continue
			}
			if uProj[i] > (1+s.theta[i])*uBase[i]+decisionEpsilon(uBase[i]) {
				if st.secure[i] {
					rd.Disabled = append(rd.Disabled, int32(i))
				} else {
					rd.Deployed = append(rd.Deployed, int32(i))
				}
			}
		}

		if len(rd.Deployed) == 0 && len(rd.Disabled) == 0 {
			// Quiescent round: record it (its utilities are the final
			// ones, used by the trajectory figures) and stop.
			rd.After = countSecure(g, st.secure)
			res.Rounds = append(res.Rounds, rd)
			res.Stable = true
			break
		}

		for _, i := range rd.Deployed {
			st.set(g, i, cfg.StubsBreakTies)
		}
		for _, i := range rd.Disabled {
			st.unset(i)
		}
		// Newly secure ISPs upgrade their stub customers to simplex
		// S*BGP (Section 2.3). Stubs stay secure once upgraded: simplex
		// deployment is a one-time (often offline) step that a provider
		// disabling its own S*BGP does not undo.
		for _, i := range rd.Deployed {
			for _, c := range g.Customers(i) {
				if g.IsStub(c) && !st.secure[c] {
					st.set(g, c, cfg.StubsBreakTies)
					rd.NewSimplexStubs = append(rd.NewSimplexStubs, c)
				}
			}
		}

		rd.After = countSecure(g, st.secure)
		res.Rounds = append(res.Rounds, rd)

		if first, repeat := record(st.snapshot()); repeat {
			res.Oscillated = true
			res.CycleStart = first
			res.CycleLen = len(snaps) - first
			break
		}
	}

	copy(res.FinalSecure, st.secure)
	res.Final = countSecure(g, st.secure)
	return res, nil
}

// candidates returns which nodes may flip this round: insecure ISPs
// always; secure ISPs only under incoming utility (Theorem 6.2 rules out
// turn-off incentives under outgoing utility). The returned slice is
// owned by the Sim and overwritten by the next call.
func (s *Sim) candidates(st *deployState) []bool {
	g := s.g
	if s.candBuf == nil {
		s.candBuf = make([]bool, g.N())
	}
	out := s.candBuf
	for i := int32(0); i < int32(g.N()); i++ {
		out[i] = g.IsISP(i) && (!st.secure[i] || s.cfg.Model == Incoming)
	}
	return out
}

// computeRound computes every ISP's utility in state st, and — for nodes
// marked in candidates — the projected utility in the state where that
// node alone flips. candidates may be nil (base utilities only).
//
// This is the paper's per-round computation (Appendix C): the executor
// maps it over the S logical destination shards (in-process goroutines
// or worker processes), and the reduce below folds the per-shard
// partial sums per utility index in ascending shard order. That fixed
// fold order is the determinism contract: float addition is not
// associative, so executors return one partial per shard — never
// pre-combined — and every Result is bit-identical across executors
// (and worker-process placements) with equal shard counts.
func (s *Sim) computeRound(st *deployState, candidates []bool) (uBase, uProj []float64, stats *RoundStats, err error) {
	cfg := s.cfg
	n := s.g.N()

	// Memory sampling is a stop-the-world ReadMemStats pair; it is taken
	// outside the timed section (before started, after Wall) and only on
	// request, so RecordStats alone never skews the recorded wall times.
	var memBefore uint64
	if cfg.RecordStats && cfg.RecordMemStats {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		memBefore = m.TotalAlloc
	}
	var started time.Time
	if cfg.RecordStats {
		started = time.Now()
	}

	uBase, uProj = s.uBase, s.uProj

	candList := s.candList[:0]
	if candidates != nil {
		for i := int32(0); i < int32(n); i++ {
			if candidates[i] {
				candList = append(candList, i)
			}
		}
	}
	s.candList = candList

	partials, info, err := s.exec.ExecRound(RoundState{Secure: st.secure, Breaks: st.breaks}, candList)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("sim: round execution: %w", err)
	}
	if len(partials) != s.exec.TotalShards() {
		return nil, nil, nil, fmt.Errorf("sim: executor returned %d partials for %d shards", len(partials), s.exec.TotalShards())
	}
	for i := range partials {
		if partials[i].Shard != i {
			return nil, nil, nil, fmt.Errorf("sim: executor partial %d covers shard %d", i, partials[i].Shard)
		}
		if len(partials[i].UBase) != n || len(partials[i].UDelta) != n {
			return nil, nil, nil, fmt.Errorf("sim: executor partial %d has %d/%d entries for %d nodes",
				i, len(partials[i].UBase), len(partials[i].UDelta), n)
		}
	}

	// Merge the per-shard partial sums, chunked by utility index across
	// goroutines. Each index sums over shards in ascending order and
	// then adds the base into the projection — so every float result is
	// bit-identical regardless of chunk count, executor, or worker
	// placement. (Shards hold per-destination *deltas* in UDelta; the
	// merge turns them into projected utilities.)
	nw := len(partials)
	merge := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var base, delta float64
			for p := range partials {
				base += partials[p].UBase[i]
			}
			for p := range partials {
				delta += partials[p].UDelta[i]
			}
			uBase[i] = base
			uProj[i] = delta + base
		}
	}
	if nw == 1 || n < 2*nw {
		merge(0, n)
	} else {
		chunk := (n + nw - 1) / nw
		var mg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			mg.Add(1)
			go func(lo, hi int) {
				defer mg.Done()
				merge(lo, hi)
			}(lo, hi)
		}
		mg.Wait()
	}

	if cfg.RecordStats {
		stats = &RoundStats{
			Wall:             time.Since(started),
			Destinations:     n,
			Candidates:       len(candList),
			ShardsReassigned: info.ShardsReassigned,
			WorkersLost:      info.WorkersLost,
		}
		var sum ShardStats
		for i := range partials {
			sum.add(&partials[i].Stats)
		}
		stats.StaticHits = sum.StaticHits
		stats.StaticMisses = sum.StaticMisses
		stats.StaticCacheBytes = sum.StaticCacheBytes
		stats.StaticCacheEntries = int(sum.StaticCacheEntries)
		stats.BaseResolutions = sum.BaseResolutions
		stats.ProjResolutions = sum.ProjResolutions
		stats.ProjUnchanged = sum.ProjUnchanged
		stats.SkipZeroUtil = sum.SkipZeroUtil
		stats.SkipInsecureDest = sum.SkipInsecureDest
		stats.SkipDestFlip = sum.SkipDestFlip
		stats.SkipTurnOff = sum.SkipTurnOff
		stats.SkipTurnOn = sum.SkipTurnOn
		stats.NodesReused = sum.NodesReused
		stats.NodesRecomputed = sum.NodesRecomputed
		stats.DirtyDests = int(sum.DirtyDests)
		stats.CleanDests = int(sum.CleanDests)
		stats.DynCacheBytes = sum.DynCacheBytes
		stats.DynCacheEntries = int(sum.DynCacheEntries)
		stats.DynCacheEvictions = sum.DynCacheEvictions
		stats.StaticPackedBytes = sum.StaticPackedBytes
		stats.StaticPackedEntries = sum.StaticPackedEntries
		stats.StaticDiskHits = sum.StaticDiskHits
		stats.StaticDiskBytesRead = sum.StaticDiskBytesRead
		stats.StaticDiskWrites = sum.StaticDiskWrites
		stats.PristineReplays = sum.PristineReplays
		stats.PristineRecords = sum.PristineRecords
		stats.StreamResolves = sum.StreamResolves
		stats.ClassReplays = sum.ClassReplays
		stats.ShardWallMax, stats.ShardWallMin, stats.StragglerRatio = shardTiming(partials)
		if cfg.RecordMemStats {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			stats.AllocBytes = m.TotalAlloc - memBefore
		}
	}
	return uBase, uProj, stats, nil
}

// shardTiming aggregates the per-shard wall times of a round's partials
// into the extrema and the straggler ratio (slowest shard over mean).
// With no partials — a round that computed no shards — everything stays
// zero rather than dividing by zero or reporting a garbage minimum.
func shardTiming(partials []ShardPartial) (wallMax, wallMin time.Duration, straggler float64) {
	if len(partials) == 0 {
		return 0, 0, 0
	}
	var sumNS, maxNS, minNS int64
	for i := range partials {
		w := partials[i].Stats.WallNS
		sumNS += w
		if i == 0 || w > maxNS {
			maxNS = w
		}
		if i == 0 || w < minNS {
			minNS = w
		}
	}
	if mean := sumNS / int64(len(partials)); mean > 0 {
		straggler = float64(maxNS) / float64(mean)
	}
	return time.Duration(maxNS), time.Duration(minNS), straggler
}

// roundCtx bundles the inputs every worker reads during one round:
// the deployment state, the candidate list, and — when the dynamic
// cache is active — the realized flip set since the state the cached
// records correspond to. All fields are read-only while workers run.
type roundCtx struct {
	st       *deployState
	candList []int32
	cfg      *Config
	weights  []float64
	// candMark marks candList membership by node index (always non-nil
	// when candList is nonempty): the O(1) test destUntouchable uses to
	// prove a destination needs no projection scratch.
	candMark []bool

	// Realized flips dynPrev → st (empty when the states coincide or
	// the cache holds no records). prevSecure/prevBreaks are the flags
	// of dynPrev — the state every record's tree is resolved for — and
	// flipBreaks[f] carries f's tie-break flag in st for flips that turn
	// on (ApplyFlips hardcodes "never breaks ties" for turn-offs,
	// matching deployState.unset).
	flipList   []int32
	flipMark   []bool
	flipBreaks []bool
	prevSecure []bool
	prevBreaks []bool
	// bigJump marks a flip set so large (a Run reset rather than a
	// round) that advancing record trees by change propagation would
	// cost more than resolving them afresh; processDest then rebuilds
	// instead of advancing — the same bits either way.
	bigJump bool
	// noSecure: st has no secure node at all, so no tree anywhere has a
	// fully secure path — the per-destination anySecurePath scan is
	// skipped round-wide (the pristine sweep and base-only rounds).
	noSecure bool
}

// worker holds all per-goroutine scratch state so that destination
// processing allocates nothing. Workers live in the Sim's pool and are
// reused across rounds; resetRound rezeroes the per-round accumulators.
type worker struct {
	ws *routing.Workspace
	// The static tiers, one handle each, shared by the engine's workers.
	// Every method the serving ladder calls on them is nil-safe, so a
	// disabled tier is a no-op.
	statics     *routing.SharedStaticCache // resident tier; nil = disabled
	disk        *routing.StaticDiskStore   // persistent L2 tier; nil = disabled
	dyn         *dynCache                  // per-worker contribution records; nil = disabled
	classes     *leafClasses               // sibling-leaf class memos (leafclass.go); nil = disabled
	kids        []leafKid                  // provider's child list captured while a class filler runs
	isps        []int32                    // shared class index list (asgraph.Graph.ISPs)
	baseTree    routing.Tree
	projTree    routing.Tree
	accBase     []float64
	incBase     []float64
	accProj     []float64
	incProj     []float64
	movedMark   []bool   // accumulateAt: marks of the projection's parent moves
	movedBuf    []int32  // accumulateAt: the parent-move list itself
	subList     []int32  // accumulateAt: subtree expansion stack
	subPosBits  []uint64 // accumulateAt: bitset of collected order positions
	childOff    []int32  // base-tree child index (CSR offsets), per destination
	childCur    []int32
	childList   []int32
	uBase       []float64
	uDelta      []float64
	flipMark    []bool
	flipBreaks  []bool
	flipScratch []int32
	stats       workerStats

	// Streaming-resolve and pristine-replay state (see processDest's
	// tier dispatch). stream is the fused blob-walk resolver's scratch,
	// built lazily on the first streamed destination; scEntries/scBuf/
	// scPayload are the sidecar record/decode/encode buffers; recordSC
	// marks the current destination for sidecar recording on the normal
	// path.
	stream    *routing.StreamStatic
	scEntries []routing.SidecarEntry
	scBuf     []routing.SidecarEntry
	scPayload []byte
	recordSC  bool
}

// workerStats counts this worker's share of the round's resolution work;
// merged into a RoundStats after the round when Config.RecordStats is
// set. The counters are plain increments on worker-private state, cheap
// enough to maintain unconditionally.
type workerStats struct {
	staticHits       int64
	staticMisses     int64
	baseResolutions  int64
	projResolutions  int64
	projUnchanged    int64
	skipZeroUtil     int64
	skipInsecureDest int64
	skipDestFlip     int64
	skipTurnOff      int64
	skipTurnOn       int64
	nodesReused      int64
	nodesRecomputed  int64
	dynClean         int64
	dynDirty         int64

	// Disk-tier traffic (Config.StaticStoreDir): lookups served by a
	// stored blob (and the bytes decoded), plus records this worker
	// appended. A disk hit replaces a BFS, so it is counted instead of
	// — not on top of — staticMisses.
	staticDiskHits      int64
	staticDiskBytesRead int64
	staticDiskWrites    int64

	// Streaming-tier traffic: destinations served by a sidecar replay
	// (Tier A) or a fused streaming resolve (Tier B), and sidecars
	// recorded. A pristine replay skips resolution entirely, so it is
	// counted instead of — not on top of — baseResolutions.
	pristineReplays int64
	pristineRecords int64
	streamResolves  int64

	// Leaves served from a sibling's class memo (leafclass.go): counted
	// instead of — not on top of — any other serving tier.
	classReplays int64
}

func newWorker(g *asgraph.Graph, n int) *worker {
	return &worker{
		ws:         routing.NewWorkspace(g),
		isps:       g.ISPs(),
		accBase:    make([]float64, n),
		incBase:    make([]float64, n),
		accProj:    make([]float64, n),
		incProj:    make([]float64, n),
		movedMark:  make([]bool, n),
		subPosBits: make([]uint64, (n+63)/64),
		uBase:      make([]float64, n),
		uDelta:     make([]float64, n),
		flipMark:   make([]bool, n),
		flipBreaks: make([]bool, n),
	}
}

// resetRound clears the accumulators a pooled worker carries over from
// the previous round.
func (wk *worker) resetRound(n int) {
	for i := 0; i < n; i++ {
		wk.uBase[i] = 0
		wk.uDelta[i] = 0
	}
	wk.stats = workerStats{}
	if wk.classes != nil {
		wk.classes.stamp++ // class memos live for one compute call
	}
}

// processDest handles one destination: base utilities for every ISP and
// projected deltas for the candidates that survive the skip rules. With
// a dynamic-cache record, the base tree is the record's, advanced to
// the current state and decoded into wk.baseTree, and the base
// contributions are replayed while no parent has moved.
func (wk *worker) processDest(d int32, rc *roundCtx) {
	cfg := rc.cfg
	st := rc.st
	weights := rc.weights
	g := wk.ws.Graph()
	n := g.N()

	// Dynamic cache first: a record's tree must be advanced across every
	// round's realized flips to stay valid, so recorded destinations
	// always take the record machinery below. Record-less destinations
	// whose round provably needs no projection scratch — base passes, or
	// candidate rounds where destUntouchable shows every candidate is
	// pruned by the C.4 rules before any tree is read — are served by the
	// streaming tiers instead: replaying the destination's recorded
	// pristine-contribution sidecar (Tier A, insecure destinations only),
	// or a fused streaming resolve straight over a packed blob (Tier B).
	// Both are bit-identical to the normal path by construction (see
	// routing/stream.go and routing/sidecar.go); on any miss or decode
	// failure they fall through to the normal path.
	rec := wk.dyn.get(d)
	wk.recordSC = false
	keep := true // a later pass reads this destination's static
	if rec == nil {
		insecure := !st.secure[d]
		untouchable := len(rc.candList) == 0 || wk.destUntouchable(d, rc)
		if untouchable {
			if insecure && wk.replaySidecar(d, rc) {
				return
			}
			if wk.streamResolve(d, rc, insecure) {
				return
			}
		}
		// An insecure destination's base contributions are pristine —
		// state-independent — whichever path computes them: have the
		// normal path record the sidecar it is about to compute anyway,
		// so later rounds, Runs and processes replay it instead. Once
		// stored, that sidecar serves the destination until it turns
		// secure or touchable, so no later pass reads its static.
		wk.recordSC = insecure && wk.sidecarWanted(uint8(cfg.Model), d)
		keep = !(wk.recordSC && untouchable)
	}

	// Static routing information is deployment-state independent
	// (Observation C.1), served by fetchStatic — lazily, because a clean
	// base-only replay behind advanceRecord's no-propagation fast path
	// needs no static at all. held: fetchStatic left it unadmitted (see
	// there); the sidecar store below decides.
	var (
		stc  *routing.Static
		blob []byte
		held bool
	)
	getStatic := func() *routing.Static {
		if stc == nil {
			stc, blob, held = wk.fetchStatic(d, rc, keep)
		}
		return stc
	}

	// Every path resolves, advances or decodes the tree into the worker's
	// scratch; a record keeps only its diff (see dyncache.go).
	tree := &wk.baseTree
	// Dynamic cache: advance the record's tree across the realized flips
	// (see dyncache.go for the validity argument). treeLoaded: the advance
	// left the current tree in wk.baseTree. baseValid: no parent moved
	// since the memoized base contributions were recorded, so they are
	// replayed instead of the O(n) base accumulation — the whole
	// destination in a base-only round, and in a candidate round
	// everything but the projections. This is the common case: a
	// realized flip's Secure-only ripple reaches most trees without
	// moving a single parent edge.
	treeCurrent, treeLoaded, baseValid := false, false, false
	if rec != nil {
		// Advancing across a Run reset (bigJump) would propagate more
		// changes than a fresh resolution: the rebuild below handles it,
		// same bits either way.
		if !rc.bigJump {
			parentsChanged, treeChanged, loaded := wk.advanceRecord(rec, tree, getStatic, rc)
			treeCurrent, treeLoaded, baseValid = true, loaded, !parentsChanged
			if baseValid && len(rc.candList) == 0 {
				for _, e := range rec.base {
					wk.uBase[e.node] += e.val
				}
				if treeChanged {
					wk.dyn.resize(rec) // the advance re-stored the diff
				}
				wk.stats.dynClean++
				return
			}
		}
	} else if wk.wantRecord(d, rc) {
		// Admission is by need, not by arrival: the pristine pass and
		// every insecure untouchable destination stay record-less.
		rec = wk.dyn.admit(d)
	}
	if rec != nil {
		wk.stats.dynDirty++
	}

	// Every remaining path reads the static: force the lazy fetch.
	getStatic()
	if !treeCurrent {
		// ResolveInto's winner fast path covers every tree entry itself;
		// only winner-less statics need the pre-clear (defensive — every
		// static here comes from PrepareDest or a snapshot of one).
		if !stc.HasWinners() {
			tree.Clear(n)
		}
		wk.ws.ResolveInto(tree, stc, st.secure, st.breaks, nil, nil, cfg.Tiebreaker)
		wk.stats.baseResolutions++
		if rec != nil {
			stc.StoreDiff(&rec.tree, tree)
		}
	} else if !treeLoaded {
		// A dirty record whose advance propagated nothing (no flips, or
		// its destination insecure in both states): the candidate loop
		// reads the tree.
		stc.LoadDiff(tree, &rec.tree)
	}

	// Base utility contributions, over the destination's memoized utility
	// support list — the ascending subset of the ISP index whose
	// contribution can be nonzero for this destination in any state
	// (customer-route ISPs under outgoing, provider-parent ISPs under
	// incoming). ISPs outside it would only ever add +0.0, and the
	// accumulators never hold -0.0, so eliding those additions is
	// bit-safe — the same argument that lets replay record only nonzero
	// contributions.
	var support []int32
	if cfg.Model == Outgoing {
		support = stc.SupportOutgoing(wk.isps)
	} else {
		support = stc.SupportIncoming(wk.isps)
	}
	if baseValid {
		// Contributions read only parents, types and weights, none of
		// which moved: the recorded floats are the ones the fresh loop
		// below would produce, added in the same order.
		for _, e := range rec.base {
			wk.uBase[e.node] += e.val
		}
	} else {
		accumulate(stc, tree, weights, wk.accBase, wk.incBase)
		wk.captureKids(stc, tree)
		if rec != nil {
			rec.base = rec.base[:0]
			rec.kids = append(rec.kids[:0], wk.kids...)
		}
		if wk.recordSC {
			wk.scEntries = wk.scEntries[:0]
		}
		for _, i := range support {
			v := wk.contribution(cfg.Model, stc, wk.accBase, wk.incBase, weights, i)
			wk.uBase[i] += v
			if rec != nil && v != 0 {
				rec.base = append(rec.base, contribEntry{i, v})
			}
			if wk.recordSC && v != 0 {
				wk.scEntries = append(wk.scEntries,
					routing.SidecarEntry{Node: i, Bits: math.Float64bits(v)})
			}
		}
		// The destination is insecure, so these are its pristine
		// contributions: record them for sidecar replay. A rejected
		// sidecar leaves the destination on this path next round, reading
		// the static after all: admit the held one.
		if wk.recordSC && !wk.storeSidecar(uint8(cfg.Model), d, n) && held {
			wk.admitStatic(stc, blob)
		}
	}

	if rec != nil {
		wk.dyn.resize(rec) // the projections below leave the record alone
	}
	if len(rc.candList) == 0 {
		return
	}

	// anySecurePath: does anyone other than d have a fully secure path?
	anySecurePath := false
	if !rc.noSecure {
		for _, i := range stc.Order() {
			if tree.Secure[i] {
				anySecurePath = true
				break
			}
		}
	}

	// Batched projection prediction: with the move predictor prepared
	// once for this destination's tree, single-node candidate flips that
	// provably move no parent are skipped without running change
	// propagation at all. The predictor and the base-tree copy that change
	// propagation works on are built lazily: the former when some
	// candidate survives the skip rules, the latter only when one also
	// needs an actual propagation. The dependents index waits longer
	// still — until the destination has run indexAfterPropagations of
	// them this round: ApplyFlips derives the few rows it needs from the
	// graph without it, and half the destinations that propagate at all
	// do so once.
	predReady := false
	projReady := false
	propagations := 0
	for _, c := range rc.candList {
		// Zero-utility skip: a candidate whose utility contribution for
		// this destination is identically zero in every deployment state
		// cannot see a delta, so the pair needs no resolution at all.
		// Outgoing (Eq. 1) pays c only when its best-route class is
		// customer — a state-independent property (Observation C.1).
		// Incoming (Eq. 2) pays c only via customers entering over
		// provider-class routes, which requires some provider-route node
		// to list c among its equally-good next hops.
		if cfg.Model == Outgoing {
			if stc.Type[c] != routing.CustomerRoute {
				wk.stats.skipZeroUtil++
				continue
			}
		} else if !stc.IsProviderParent(c) {
			wk.stats.skipZeroUtil++
			continue
		}
		flips := wk.flipSetFor(st, cfg, c)
		if !wk.flipCanChangeTree(stc, tree, st, cfg, c, d, flips, anySecurePath) {
			wk.clearFlips(flips)
			continue
		}
		if !predReady {
			wk.ws.PrepareFlipEffects(stc, tree, st.secure, st.breaks, cfg.Tiebreaker)
			predReady = true
		}
		if len(flips) == 1 && c != d {
			if !wk.ws.FlipChangesTree(stc, tree, st.secure, st.breaks, cfg.Tiebreaker, c) {
				// Predicted structurally unchanged: the projected tree
				// routes identically, so the delta is exactly zero.
				wk.clearFlips(flips)
				wk.stats.projUnchanged++
				continue
			}
		}
		if !projReady {
			wk.projTree.CopyFrom(tree)
			wk.buildChildIndex(stc, tree, n)
			projReady = true
		}
		if propagations == indexAfterPropagations {
			wk.ws.PrepareDelta(stc)
		}
		propagations++
		parentsChanged, touched := wk.ws.ApplyFlips(&wk.projTree, stc,
			st.secure, st.breaks, wk.flipMark, wk.flipBreaks, flips, cfg.Tiebreaker)
		wk.clearFlips(flips)
		wk.stats.projResolutions++
		wk.stats.nodesRecomputed += int64(touched)
		wk.stats.nodesReused += int64(len(stc.Order()) - touched)
		if !parentsChanged {
			// The projected tree routes identically to the base tree
			// (only Secure flags differ), so every traffic accumulation
			// over it is bit-equal to the base one: the utility delta is
			// exactly zero and the accumulation pass can be skipped.
			wk.stats.projUnchanged++
			wk.ws.RevertFlips(&wk.projTree)
			continue
		}
		wk.movedBuf = wk.ws.ParentMoves(&wk.projTree, wk.movedBuf[:0])
		v := wk.deltaAt(cfg.Model, stc, tree, &wk.projTree, weights, c, wk.movedBuf)
		wk.uDelta[c] += v
		wk.ws.RevertFlips(&wk.projTree)
	}
}

// fetchStatic serves destination d's static through the one ladder
// every static read takes: the resident tier, then a disk blob, then
// the three-stage BFS — writing fresh results through to disk and
// admitting whatever was fetched to the resident tier, so this (graph,
// tiebreaker, destination) never pays the BFS again in any later round,
// Run, simulation or process. Same bytes on every rung: a decoded
// blob reproduces PrepareDest's output exactly (see packed.go), Lookup
// CRC-checks disk blobs and the decode validates their structure, and a
// blob that fails is dropped and recomputed (the write-through repairs
// it) — corruption can cost time, never bits.
//
// Residency follows reads (DESIGN.md §5b). While the resident tier is
// unpacked everything is admitted: it all fits, and a hit costs nothing.
// Once it has gone packed, a static no later pass reads — keep unset —
// is returned unadmitted with held set, alongside the disk blob it was
// decoded from (nil after a BFS), for the caller to admitStatic should
// it turn out to be read after all.
func (wk *worker) fetchStatic(d int32, rc *roundCtx, keep bool) (stc *routing.Static, blob []byte, held bool) {
	if stc = wk.statics.Get(d, wk.ws); stc != nil {
		wk.stats.staticHits++
		return stc, nil, false
	}
	if b := wk.disk.Lookup(d); b != nil {
		// Trusted decode: the 2^-32 residual risk of an in-range-but-
		// wrong field is carried by Lookup's checksum, not by per-member
		// revalidation.
		if s, err := wk.ws.DecodePackedTrusted(b); err == nil {
			stc, blob = s, b
		} else {
			wk.disk.Drop(d)
		}
	}
	if blob != nil {
		// The BFS was skipped: a disk hit, not a static miss.
		wk.stats.staticDiskHits++
		wk.stats.staticDiskBytesRead += int64(len(blob))
	} else {
		stc = wk.ws.PrepareDest(d, rc.cfg.Tiebreaker)
		if wk.statics != nil {
			wk.stats.staticMisses++
		}
		if wk.disk.PutStatic(stc) {
			wk.stats.staticDiskWrites++
		}
	}
	if !keep && wk.statics.Repacked() {
		return stc, blob, true
	}
	return wk.admitStatic(stc, blob), blob, false
}

// admitStatic admits stc — decoded from blob, when that is set — to the
// resident tier and returns the static to resolve against from here on.
func (wk *worker) admitStatic(stc *routing.Static, blob []byte) *routing.Static {
	if blob != nil {
		// The packed bytes are already built: admit them as-is — no
		// re-encode, no snapshot copy, no share of the eventual repack.
		wk.statics.AddBlob(stc.Dest, blob)
	} else if snap := wk.statics.Add(wk.ws, stc); snap != nil {
		stc = snap
	}
	return stc
}

// indexAfterPropagations is how many change propagations a destination
// runs in a round on graph-derived dependents before processDest builds
// the dependents index for the rest: the transpose costs about as much
// as forty propagations, so a destination with a handful never recoups
// it and one with a hundred (a projection-heavy incoming round) does.
const indexAfterPropagations = 3

// wantRecord reports whether record-less destination d should be
// admitted to the dynamic cache this round: only when no streaming tier
// can serve it instead. A record exists to keep a tree current, and an
// insecure destination's tree is the static winner tree in every state
// — all it ever needs is its pristine contributions, which a sidecar
// replays without a tree or a static. So: secure destinations; insecure
// ones a surviving candidate projection can flip (!destUntouchable: they
// need projection scratch this round); and everything when there is
// nowhere to hold a sidecar, where the record's replay is the only
// cross-round memo left.
func (wk *worker) wantRecord(d int32, rc *roundCtx) bool {
	if wk.dyn == nil {
		return false
	}
	if rc.st.secure[d] || !wk.hasSidecarTier() {
		return true
	}
	return len(rc.candList) > 0 && !wk.destUntouchable(d, rc)
}

// destUntouchable reports whether, in a candidate round, every
// candidate is provably skipped for destination d without reading its
// resolved tree, so the destination needs only its base contributions —
// exactly what the streaming tiers provide. It holds when d is insecure
// and no candidate's projection that flips d survives the zero-utility
// test: then C.4 rule 1 (skipInsecureDest) prunes every other candidate
// the zero-utility test doesn't. d flips only if d itself is a
// candidate, or — under ProjectStubUpgrades — d is an insecure stub
// customer of an insecure candidate provider (flipSetFor's membership
// rule, verbatim). Under Outgoing d's own flip never survives: Type[d]
// is SelfRoute, never CustomerRoute, and d is an ISP, so no other
// candidate's flip set holds it.
func (wk *worker) destUntouchable(d int32, rc *roundCtx) bool {
	if rc.st.secure[d] || (rc.candMark[d] && rc.cfg.Model != Outgoing) {
		return false
	}
	g := wk.ws.Graph()
	if rc.cfg.ProjectStubUpgrades && g.IsStub(d) {
		for _, p := range g.Providers(d) {
			if rc.candMark[p] && !rc.st.secure[p] {
				return false
			}
		}
	}
	return true
}

// hasSidecarTier reports whether any tier — resident or disk — exists
// to hold a pristine-contribution sidecar.
func (wk *worker) hasSidecarTier() bool {
	return wk.statics != nil || wk.disk != nil
}

// sidecarWanted reports whether (kind, d)'s pristine-contribution
// sidecar is absent from every tier that could serve it — the signal
// for the normal path to record one — and false when there is nowhere
// to store it.
func (wk *worker) sidecarWanted(kind uint8, d int32) bool {
	if !wk.hasSidecarTier() {
		return false
	}
	if wk.statics.SidecarGet(kind, d) != nil {
		return false
	}
	return !wk.disk.HasSidecar(kind, d)
}

// replaySidecar (Tier A) serves an insecure destination's base
// contributions by replaying its recorded sidecar: the nonzero
// contributions in ascending node order, bit-for-bit the floats the
// fresh support loop would add (zero additions are bit-safe no-ops —
// the accumulators never hold -0.0). Valid because an insecure
// destination's tree is the static winner tree in every deployment
// state, making the contributions a pure function of (graph, weights,
// tiebreaker, model, destination) — the disk/cache keying. Returns
// false (recompute) on miss or any decode failure.
func (wk *worker) replaySidecar(d int32, rc *roundCtx) bool {
	kind := uint8(rc.cfg.Model)
	payload := wk.statics.SidecarGet(kind, d)
	fromDisk := false
	if payload == nil {
		payload = wk.disk.LookupSidecar(kind, d)
		fromDisk = payload != nil
	}
	if payload == nil {
		return false
	}
	n := wk.ws.Graph().N()
	entries, ok := routing.DecodeSidecar(payload, d, n, kind, wk.scBuf[:0])
	if !ok {
		// Corrupt or mismatched record: forget it so the normal path's
		// recompute re-records a good one, and fall back.
		if fromDisk {
			wk.disk.DropSidecar(kind, d)
		} else {
			wk.statics.SidecarDrop(kind, d)
		}
		return false
	}
	wk.scBuf = entries[:0]
	for _, e := range entries {
		wk.uBase[e.Node] += math.Float64frombits(e.Bits)
	}
	if fromDisk {
		wk.stats.staticDiskHits++
		wk.stats.staticDiskBytesRead += int64(len(payload))
		// Warm the resident tier so later rounds skip the disk read.
		wk.statics.SidecarPut(kind, d, payload)
	}
	wk.stats.pristineReplays++
	return true
}

// streamResolve (Tier B) serves destination d's base contributions by
// one fused pass over a packed blob — no workspace decode, no
// node-indexed tree, no support-list materialization. The streaming
// resolver's entry arrays are, by construction, the resolved tree's
// order/parents/types (see routing/stream.go), so the reverse
// accumulation below adds the same floats in the same order as
// accumulate(), and the contribution loops add the same floats as the
// support loop (differing only in provably-zero additions). When record
// is set (insecure destination, sidecar absent) the nonzero
// contributions are recorded as a sidecar on the way through. Returns
// false (normal path) when no blob is available or the walk fails.
func (wk *worker) streamResolve(d int32, rc *roundCtx, record bool) bool {
	cfg := rc.cfg
	st := rc.st
	weights := rc.weights
	blob := wk.statics.GetBlob(d)
	fromDisk := false
	if blob == nil {
		blob = wk.disk.Lookup(d)
		fromDisk = blob != nil
	}
	if blob == nil {
		return false
	}
	if wk.stream == nil {
		wk.stream = routing.NewStreamStatic(wk.ws.Graph())
	}
	if wk.stream.Resolve(blob, st.secure, st.breaks, cfg.Tiebreaker) != nil {
		// Resident blobs can't be corrupt; disk blobs can — drop the
		// poisoned record (a later write-through repairs it) and
		// recompute.
		if fromDisk {
			wk.disk.Drop(d)
		}
		return false
	}
	sr := wk.stream
	if fromDisk {
		wk.stats.staticDiskHits++
		wk.stats.staticDiskBytesRead += int64(len(blob))
		// Admission, as the normal path would: publish the streamed blob
		// to the resident tier so later rounds stream it from memory.
		wk.statics.AddBlob(d, blob)
	} else {
		wk.stats.staticHits++
	}

	// Reverse accumulation over the entry arrays — the same float
	// operations, in the same sequence, as accumulate() over the
	// resolved tree.
	order, parents, types := sr.Order(), sr.Parents(), sr.Types()
	acc, inc := wk.accBase, wk.incBase
	acc[d] = weights[d]
	inc[d] = 0
	for _, i := range order {
		acc[i] = weights[i]
		inc[i] = 0
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		p := parents[k]
		acc[p] += acc[i]
		if types[k] == routing.ProviderRoute {
			inc[p] += acc[i]
		}
	}
	wk.captureStreamKids(sr)
	kind := uint8(cfg.Model)
	record = record && wk.hasSidecarTier()
	if record {
		wk.scEntries = wk.scEntries[:0]
	}
	if cfg.Model == Outgoing {
		// Customer-route ISPs in ascending index order — exactly
		// SupportOutgoing's set and order.
		for _, i := range wk.isps {
			if !sr.IsCustomer(i) {
				continue
			}
			v := acc[i] - weights[i]
			wk.uBase[i] += v
			if record && v != 0 {
				wk.scEntries = append(wk.scEntries,
					routing.SidecarEntry{Node: i, Bits: math.Float64bits(v)})
			}
		}
	} else {
		// Reachable ISPs vs SupportIncoming's provider-parent ISPs: a
		// nonzero inc requires a provider-route child, which makes the
		// node a provider parent — every ISP in one set and not the
		// other adds a provably bitwise +0.0. Same floats either way.
		for _, i := range wk.isps {
			if !sr.Reachable(i) {
				continue
			}
			v := inc[i]
			wk.uBase[i] += v
			if record && v != 0 {
				wk.scEntries = append(wk.scEntries,
					routing.SidecarEntry{Node: i, Bits: math.Float64bits(v)})
			}
		}
	}
	if record {
		wk.storeSidecar(kind, d, wk.ws.Graph().N())
	}
	wk.stats.baseResolutions++
	wk.stats.streamResolves++
	return true
}

// storeSidecar encodes wk.scEntries as (kind, d)'s sidecar and stores
// it in the resident tier and the disk store, reporting whether some
// tier kept it — and only then counting a pristine record: a full static
// budget rejects the put, and the destination is then recomputed next
// round.
func (wk *worker) storeSidecar(kind uint8, d int32, n int) bool {
	wk.scPayload = routing.AppendSidecar(wk.scPayload[:0], d, n, kind, wk.scEntries)
	stored := wk.statics.SidecarPut(kind, d, wk.scPayload)
	if wk.disk.PutSidecar(kind, d, wk.scPayload) {
		wk.stats.staticDiskWrites++
		stored = true
	}
	if stored {
		wk.stats.pristineRecords++
	}
	return stored
}

// advanceRecord brings rec.tree from the previous round's deployment
// state to the current one by change propagation over the realized flip
// set — bit-identical to a fresh resolution, by ApplyFlips' contract,
// and the undo log is deliberately abandoned (the change is real, not a
// projection). The propagation runs on the diff decoded into tree, and
// the diff is then brought up to date from the undo log; loaded reports
// that tree now holds the current tree. It is one propagation per
// destination per round, so it never builds the dependents index
// (ApplyFlips uses one the candidate loop left on a cached snapshot, and
// the graph otherwise). parentsChanged invalidates the memoized base
// contributions (they read only parents); treeChanged reports that any
// entry moved, Secure flags included, and the diff was re-stored.
func (wk *worker) advanceRecord(rec *destRecord, tree *routing.Tree, getStatic func() *routing.Static, rc *roundCtx) (parentsChanged, treeChanged, loaded bool) {
	if len(rc.flipList) == 0 || (!rc.flipMark[rec.dest] && !rc.st.secure[rec.dest]) {
		// No flips, or the destination is insecure in both states (it did
		// not flip): every Secure flag in its tree is false before and
		// after, so the tree is the static winner tree both ways and
		// propagation would change nothing — skip it, and the static
		// fetch with it.
		return false, false, false
	}
	stc := getStatic()
	stc.LoadDiff(tree, &rec.tree)
	parentsChanged, _ = wk.ws.ApplyFlips(tree, stc,
		rc.prevSecure, rc.prevBreaks, rc.flipMark, rc.flipBreaks, rc.flipList, rc.cfg.Tiebreaker)
	treeChanged = wk.ws.UndoSize() > 0
	if treeChanged {
		wk.ws.CommitDiff(&rec.tree, stc, tree)
	}
	return parentsChanged, treeChanged, true
}

// flipSetFor marks candidate c's projected flip set in wk.flipMark and
// returns the marked nodes: c itself, plus — under ProjectStubUpgrades,
// when c is deploying — c's insecure stub customers. wk.flipBreaks gets
// the tie-break policy each member would have in the realized flipped
// state: ISPs always break ties once secure, stubs only under
// StubsBreakTies (mirroring deployState.set).
func (wk *worker) flipSetFor(st *deployState, cfg *Config, c int32) []int32 {
	g := wk.ws.Graph()
	wk.flipScratch = wk.flipScratch[:0]
	wk.flipScratch = append(wk.flipScratch, c)
	wk.flipMark[c] = true
	wk.flipBreaks[c] = !g.IsStub(c) || cfg.StubsBreakTies
	if cfg.ProjectStubUpgrades && !st.secure[c] {
		for _, s := range g.Customers(c) {
			if g.IsStub(s) && !st.secure[s] {
				wk.flipScratch = append(wk.flipScratch, s)
				wk.flipMark[s] = true
				wk.flipBreaks[s] = cfg.StubsBreakTies
			}
		}
	}
	return wk.flipScratch
}

// clearFlips unmarks a flip set.
func (wk *worker) clearFlips(flips []int32) {
	for _, i := range flips {
		wk.flipMark[i] = false
	}
}

// flipCanChangeTree implements the Appendix C.4 skip rules: it reports
// whether flipping candidate c (with projected flip set flips) could
// possibly alter the routing tree for destination d, given that tree
// holds the base tree for the current state.
func (wk *worker) flipCanChangeTree(stc *routing.Static, tree *routing.Tree, st *deployState, cfg *Config, c, d int32, flips []int32, anySecurePath bool) bool {
	if wk.flipMark[d] {
		// The destination itself flips (c == d, or d is one of c's stubs
		// under ProjectStubUpgrades): whether any path to d can be
		// secure changes.
		if st.secure[d] && !anySecurePath {
			wk.stats.skipDestFlip++
			return false
		}
		return true
	}
	if !st.secure[d] {
		// Insecure destination that stays insecure: no path to d is ever
		// secure, and flipping cannot change that. (C.4 rule 1.)
		wk.stats.skipInsecureDest++
		return false
	}
	if st.secure[c] {
		// Turning c off matters only if c currently has a fully secure
		// path (then c's own choice, or paths through c, may change).
		if !tree.Secure[c] {
			wk.stats.skipTurnOff++
			return false
		}
		return true
	}
	// Turning c on matters only if c could then offer a secure path,
	// i.e. some member of its tiebreak set has one (C.4 rule 3) — or,
	// under ProjectStubUpgrades with tie-breaking stubs, if one of the
	// newly simplex stubs could reroute onto a secure path.
	if stc.Type[c] != routing.NoRoute {
		for _, b := range stc.Tiebreak(c) {
			if tree.Secure[b] {
				return true
			}
		}
	}
	if cfg.ProjectStubUpgrades && cfg.StubsBreakTies {
		for _, s := range flips[1:] {
			if stc.Type[s] == routing.NoRoute {
				continue
			}
			for _, b := range stc.Tiebreak(s) {
				if tree.Secure[b] {
					return true
				}
			}
		}
	}
	wk.stats.skipTurnOn++
	return false
}

// contribution returns node i's utility contribution for the current
// destination under the chosen model: outgoing (Eq. 1) counts the whole
// subtree routing through i when i's next hop is a customer; incoming
// (Eq. 2) counts the weight entering i over customer edges.
func (wk *worker) contribution(model UtilityModel, stc *routing.Static, acc, inc, weights []float64, i int32) float64 {
	if model == Outgoing {
		if stc.Type[i] == routing.CustomerRoute {
			return acc[i] - weights[i]
		}
		return 0
	}
	if stc.Type[i] == routing.NoRoute {
		return 0 // unreachable: inc[i] may hold a stale value
	}
	return inc[i]
}

// buildChildIndex fills the worker's CSR child index for base tree t:
// childList[childOff[p]:childOff[p+1]] holds the order nodes whose
// chosen parent is p. Built once per destination (lazily, with the
// delta index) and valid for that base tree only; accumulateAt overlays
// each projection's parent moves on it instead of rescanning the order.
func (wk *worker) buildChildIndex(s *routing.Static, t *routing.Tree, n int) {
	if len(wk.childOff) < n+1 {
		wk.childOff = make([]int32, n+1)
		wk.childCur = make([]int32, n)
		wk.childList = make([]int32, n)
	}
	order := s.Order()
	off := wk.childOff[:n+1]
	for i := range off {
		off[i] = 0
	}
	for _, i := range order {
		off[t.Parent[i]+1]++
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	cur := wk.childCur[:n]
	copy(cur, off[:n])
	for _, i := range order {
		p := t.Parent[i]
		wk.childList[cur[p]] = i
		cur[p]++
	}
}

// deltaAt returns the change in candidate c's utility contribution
// between base tree `base` and projected tree `proj` (which differ
// exactly at the parent moves in `moved`), without recomputing either
// side's accumulation. The traffic whose routing changed partitions by
// nearest moved ancestor: every node x in proj-subtree(m) with no moved
// node strictly between x and m shares m's chain above m, and its chain
// below m is identical in both trees — so the whole group's
// contribution toggles together, decided by whether m's parent chain
// passes through c (entering over a customer edge, for the incoming
// model) in each tree. Groups whose status matches in both trees are
// skipped without even collecting their weight, so the cost is a couple
// of ancestor walks per moved node plus the subtree weights of the
// groups that actually switched — typically orders of magnitude below
// the full-subtree accumulation accumulateAt performs (kept as the
// differential-test reference; see TestQuickDeltaAtMatchesAccumulate).
// The returned float is a different (shorter) summation than
// projC-baseC, so it may differ from it by rounding ulps — all Result
// invariants tolerate or are independent of that (decisions are
// epsilon-guarded, and every cache/dist bit-identity contract compares
// runs of this same computation).
func (wk *worker) deltaAt(model UtilityModel, s *routing.Static, base, proj *routing.Tree, weights []float64, c int32, moved []int32) float64 {
	if model == Outgoing {
		if s.Type[c] != routing.CustomerRoute {
			return 0
		}
	} else if s.Type[c] == routing.NoRoute {
		return 0
	}
	movedMark := wk.movedMark
	for _, m := range moved {
		movedMark[m] = true
	}
	var v float64
	for _, m := range moved {
		pb := chainEnters(model, s, base, c, m)
		pp := chainEnters(model, s, proj, c, m)
		if pb == pp {
			continue
		}
		g := weights[m]
		stack := append(wk.subList[:0], m)
		for len(stack) > 0 {
			q := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, r := range wk.childList[wk.childOff[q]:wk.childOff[q+1]] {
				if !movedMark[r] {
					g += weights[r]
					stack = append(stack, r)
				}
			}
		}
		wk.subList = stack
		if pp {
			v += g
		} else {
			v -= g
		}
	}
	for _, m := range moved {
		movedMark[m] = false
	}
	return v
}

// chainEnters reports whether node m's traffic counts toward candidate
// c's contribution in tree t: m's parent chain must pass through c and,
// under the incoming model, enter c over one of c's customer edges (the
// chain node below c routes provider-class).
func chainEnters(model UtilityModel, s *routing.Static, t *routing.Tree, c, m int32) bool {
	prev := m
	for p := t.Parent[m]; p >= 0; p = t.Parent[p] {
		if p == c {
			return model == Outgoing || s.Type[prev] == routing.ProviderRoute
		}
		prev = p
	}
	return false
}

// accumulateAt returns candidate c's utility contribution over the
// projected tree t — equivalent to accumulate followed by contribution
// at c, but touching only c's actual subtree. The subtree is collected
// by expanding the destination's base-tree child index, with the
// projection's parent moves (moved) overlaid: a moved node is never
// taken from the index (its base parent lost it) and is instead
// admitted by walking its projected parent chain. Collected order
// positions are recorded in a bitset and drained from the top word
// down, which processes exactly the node set the full accumulate
// visits, in the same descending order — every subtree sum, and hence
// the returned contribution, is produced by the same float additions in
// the same sequence, so the result is bit-identical. Typical candidates
// carry a small fraction of the graph, making the former
// O(order)-per-pair pass (the engine's dominant cost at scale)
// proportional to the subtree plus an O(order/64) word scan.
func (wk *worker) accumulateAt(model UtilityModel, s *routing.Static, t *routing.Tree, weights []float64, c int32, moved []int32) float64 {
	if model == Outgoing {
		if s.Type[c] != routing.CustomerRoute {
			return 0
		}
	} else if s.Type[c] == routing.NoRoute {
		return 0
	}
	acc := wk.accProj
	movedMark := wk.movedMark
	for _, m := range moved {
		movedMark[m] = true
	}
	acc[c] = weights[c]
	stack := append(wk.subList[:0], c)
	posBits := wk.subPosBits
	d := t.Dest
	for _, m := range moved {
		if m == c {
			continue
		}
		p := t.Parent[m]
		for p != c && p != d {
			p = t.Parent[p]
		}
		if p == c {
			acc[m] = weights[m]
			pm := s.Pos(m)
			posBits[pm>>6] |= 1 << uint(pm&63)
			stack = append(stack, m)
		}
	}
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range wk.childList[wk.childOff[q]:wk.childOff[q+1]] {
			if !movedMark[r] {
				acc[r] = weights[r]
				pr := s.Pos(r)
				posBits[pr>>6] |= 1 << uint(pr&63)
				stack = append(stack, r)
			}
		}
	}
	for _, m := range moved {
		movedMark[m] = false
	}
	wk.subList = stack
	order := s.Order()
	var incC float64
	for w := len(posBits) - 1; w >= 0; w-- {
		for word := posBits[w]; word != 0; {
			b := bits.Len64(word) - 1
			word &^= 1 << uint(b)
			i := order[w<<6|b]
			p := t.Parent[i]
			acc[p] += acc[i]
			if p == c && s.Type[i] == routing.ProviderRoute {
				incC += acc[i]
			}
		}
		posBits[w] = 0
	}
	if model == Outgoing {
		return acc[c] - weights[c]
	}
	return incC
}

// accumulate fills acc[i] with the total weight of the subtree rooted at
// i in tree t (node i's own weight plus everything routing through it),
// and inc[i] with the weight arriving at i over customer edges (the sum
// of subtree weights of children whose route class is provider — a child
// using a provider route enters its parent over the parent's customer
// edge).
// Only entries for the destination and reachable nodes are written;
// consumers must treat unreachable nodes' entries as unspecified
// (contribution returns 0 for them without reading the arrays).
func accumulate(s *routing.Static, t *routing.Tree, weights []float64, acc, inc []float64) {
	acc[t.Dest] = weights[t.Dest]
	inc[t.Dest] = 0
	order := s.Order()
	for _, i := range order {
		acc[i] = weights[i]
		inc[i] = 0
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		p := t.Parent[i]
		acc[p] += acc[i]
		if s.Type[i] == routing.ProviderRoute {
			inc[p] += acc[i]
		}
	}
}
