package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime/metrics"
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

	// Round memo (roundmemo.go): the caller's shared handle, nil unless
	// it is set and the rounds run in-process; the key buffer; and the
	// rounds the memo served in the last run.
	memo    *routing.SharedStaticCache
	memoKey []byte
	shared  int
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
		s.memo = cfg.SharedStatics
	}
	s.uBase = make([]float64, n)
	s.uProj = make([]float64, n)
	return s, nil
}

// nodeThetas resolves every node's deployment threshold per the
// Theta/ThetaJitter configuration. Jitter is at most 1, so every θ_i
// stays non-negative.
func (s *Sim) nodeThetas() []float64 {
	n := s.g.N()
	out := make([]float64, n)
	rng := rand.New(rand.NewSource(s.cfg.ThetaSeed))
	for i := 0; i < n; i++ {
		th := s.cfg.Theta
		if j := s.cfg.ThetaJitter; j > 0 {
			th = s.cfg.Theta * (1 + j*(2*rng.Float64()-1))
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
	s.shared = 0
	pristine := newDeployState(n)
	prBase, _, prStats, err := s.round(pristine, nil)
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
		uBase, uProj, stats, err := s.round(st, candidates)
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

	// The heap reads sit outside the timed section (before started,
	// after Wall).
	var started time.Time
	var allocsBefore uint64
	if cfg.RecordStats {
		allocsBefore = heapAllocs()
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

	// Merge the per-shard partial sums. Each index sums over shards in
	// ascending order and then adds the base into the projection, so
	// every float result is bit-identical regardless of executor or
	// worker placement. (Shards hold per-destination *deltas* in UDelta;
	// the merge turns them into projected utilities.)
	for i := 0; i < n; i++ {
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

	if cfg.RecordStats {
		wall := time.Since(started)
		stats = new(RoundStats)
		for i := range partials {
			stats.add(&partials[i].Stats)
		}
		// The round-level fields are set after the sum, so no partial
		// can move them.
		stats.Wall, stats.Destinations, stats.Candidates = wall, n, len(candList)
		stats.ShardsReassigned, stats.WorkersLost = info.ShardsReassigned, info.WorkersLost
		stats.ShardWallMax, stats.ShardWallMin, stats.StragglerRatio = shardTiming(partials)
		stats.AllocBytes = heapAllocs() - allocsBefore
	}
	return uBase, uProj, stats, nil
}

// heapAllocs returns the bytes the whole process has allocated on the
// heap so far (runtime/metrics' /gc/heap/allocs:bytes), a read that,
// unlike runtime.ReadMemStats, does not stop the world.
func heapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// shardTiming aggregates the per-shard wall times of a round's partials
// into the extrema and the straggler ratio (slowest shard over mean).
// With no partials — a round that computed no shards — everything stays
// zero rather than dividing by zero or reporting a garbage minimum.
func shardTiming(partials []ShardPartial) (wallMax, wallMin time.Duration, straggler float64) {
	if len(partials) == 0 {
		return 0, 0, 0
	}
	var sum time.Duration
	for i := range partials {
		w := partials[i].Stats.Wall
		sum += w
		if i == 0 || w > wallMax {
			wallMax = w
		}
		if i == 0 || w < wallMin {
			wallMin = w
		}
	}
	if mean := sum / time.Duration(len(partials)); mean > 0 {
		straggler = float64(wallMax) / float64(mean)
	}
	return wallMax, wallMin, straggler
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
}

// treeStill reports whether the realized flips provably leave
// destination d's tree as it was: there are none, or d is insecure in
// both states (it did not flip), so every Secure flag in its tree is
// false before and after and the tree is the static winner tree both
// ways.
func (rc *roundCtx) treeStill(d int32) bool {
	return len(rc.flipList) == 0 || (!rc.flipMark[d] && !rc.st.secure[d])
}

// worker holds all per-goroutine scratch state so that destination
// processing allocates nothing. Workers live in the Sim's pool and are
// reused across rounds; resetRound rezeroes the per-round accumulators.
type worker struct {
	ws *routing.Workspace
	// The static tiers, one handle each, shared by the engine's workers.
	// Every method the serving ladder calls on the disk store is
	// nil-safe, so an unset store is a no-op.
	statics     *routing.SharedStaticCache // resident tier
	disk        *routing.StaticDiskStore   // persistent L2 tier; nil = none
	dyn         *dynCache                  // per-worker contribution records
	classes     *leafClasses               // sibling-leaf class memos (leafclass.go); nil only in tests
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
	// stats counts this worker's share of the round's work: plain
	// increments on worker-private state, reported whole by compute,
	// which adds the wall time and the dynamic cache's snapshot.
	stats RoundStats

	// contribs holds a destination's nonzero base contributions in
	// ascending node order: a record's base, and a sidecar's entries.
	contribs []contribEntry

	// Pristine-replay state (see replaySidecar): the sidecar record, decode
	// and encode buffers. diskBuf takes every disk read, each copied,
	// decoded or spliced before the next; spliceBuf a spliced blob.
	scEntries []routing.SidecarEntry
	scBuf     []routing.SidecarEntry
	scPayload []byte
	diskBuf   []byte
	spliceBuf []byte

	// The serving plan (see plan): the worker serves d ≡ shard (mod
	// stride), and plans[k] is the rung of its k-th destination, shard +
	// k·stride. batch holds the lanes last cut from the plan (see
	// buildStatic), lane the next one to serve.
	shard, stride int32
	plans         []destPlan
	cut           []int32
	batch         *routing.StaticBatch
	lane          int
	onPlan        func([]destPlan) // test hook: runs after every plan
}

// destPlan is one destination's rung of the serving ladder, chosen by
// plan before any destination of the compute call is served.
type destPlan struct {
	rec         *destRecord // the dynamic-cache record, if any
	memo        *classMemo  // the class memo of a leaf with a sibling (leafclass.go)
	untouchable bool        // record-less, and no surviving candidate projection can flip it
	sidecar     bool        // replay the stored sidecar
	recordSC    bool        // record-less and insecure, its sidecar missing and wanted
	build       bool        // serving it runs its BFS
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
	wk.stats = RoundStats{}
	wk.plans, wk.lane = wk.plans[:0], 0
	if wk.classes != nil {
		wk.classes.stamp++ // class memos live for one compute call
	}
}

// plan chooses the rung of the serving ladder of every destination of
// the worker's stripe, walking it in serving order before the first is
// served. A record-less insecure destination no candidate can flip
// replays its pristine sidecar; one that has none records it on the
// path that serves it. A leaf with a sibling then takes the class rung
// (leafclass.go): the first of its class fills the memo, and the rest
// replay it unless they hold a record, which must be advanced every
// round. Everything else is processDest. Serving d changes d's record
// and d's sidecar and nobody else's, so the rung chosen here is the one
// serving would choose inline. build marks the destinations that will
// run the BFS — those a sidecar or class replay does not serve, with no
// resident or stored static, record holders included — for buildStatic
// to batch.
func (wk *worker) plan(rc *roundCtx) {
	st, lc := rc.st, wk.classes
	kind := uint8(rc.cfg.Model)
	for d := wk.shard; int(d) < len(st.secure); d += wk.stride {
		p := destPlan{rec: wk.dyn.get(d)}
		if p.rec == nil {
			p.untouchable = len(rc.candList) == 0 || wk.destUntouchable(d, rc)
			// No sidecar for a secure d: its tree depends on the state.
			if !st.secure[d] {
				p.recordSC = wk.sidecarWanted(kind, d)
				p.sidecar = p.untouchable && !p.recordSC
			}
		}
		classReplay := false
		if lc != nil && lc.prov[d] >= 0 && !p.sidecar {
			p.memo = lc.memo(classKey{lc.prov[d], st.secure[d], st.breaks[d]})
			if p.memo.stamp != lc.stamp {
				p.memo.stamp, p.memo.kids = lc.stamp, p.memo.kids[:0] // d fills it
			} else {
				classReplay = p.rec == nil
			}
		}
		p.build = !p.sidecar && !classReplay && !wk.statics.Has(d) && !wk.disk.Has(d)
		wk.plans = append(wk.plans, p)
	}
	if wk.onPlan != nil {
		wk.onPlan(wk.plans)
	}
}

// serveDest serves destination d on the rung plan chose for it. A
// sidecar that cannot be replayed after all (a decode failure drops it)
// falls to processDest, which records a new one if none is left.
func (wk *worker) serveDest(d int32, rc *roundCtx) {
	pl := &wk.plans[d/wk.stride]
	switch m := pl.memo; {
	case pl.sidecar:
		if served, wanted := wk.replaySidecar(d, rc); !served {
			pl.recordSC = wanted
			wk.processDest(d, rc, pl)
		}
	case m != nil && len(m.kids) == 0:
		wk.fillClass(d, rc, pl)
	case m != nil && pl.rec == nil:
		wk.replayClass(d, rc, pl)
	default:
		wk.processDest(d, rc, pl)
	}
}

// processDest serves one destination from its static on the normal
// path: base utilities for every ISP and projected deltas for the
// candidates that survive the skip rules. pl is d's plan entry. With a
// record the base tree is the record's, advanced to the current state
// in wk.baseTree, and the memoized base contributions are replayed while
// no parent has moved: the whole destination in a base-only round, and
// everything but the projections in a candidate round. This is the
// common case: a realized flip's Secure-only ripple reaches most trees
// without moving a single parent edge. A class filler accumulates even
// then, since its siblings' fold reads the provider's children.
func (wk *worker) processDest(d int32, rc *roundCtx, pl *destPlan) {
	cfg, st, weights := rc.cfg, rc.st, rc.weights
	// Static routing information is deployment-state independent
	// (Observation C.1), and every step below reads it.
	stc, blob, fresh := wk.fetchStatic(d, rc)

	// Every path resolves or advances the tree into the worker's scratch;
	// a record keeps only its diff (see dyncache.go).
	tree, rec, baseValid := &wk.baseTree, pl.rec, false
	// fill is d's class memo when d fills it (see fillClass): every
	// addend below is recorded there too.
	var fill *classMemo
	if m := pl.memo; m != nil && len(m.kids) == 0 {
		fill = m
	}
	if rec != nil {
		baseValid = !wk.advanceRecord(rec, tree, stc, rc)
	} else {
		if wk.wantRecord(d, rc, pl.untouchable) {
			// Admission is by need, not by arrival: the pristine pass and
			// every insecure untouchable destination stay record-less.
			rec = wk.dyn.admit(d)
		}
		// No pre-clear: every static here carries winners (or the disk
		// store could not pack it), and ResolveInto then sets every entry.
		wk.ws.ResolveInto(tree, stc, st.secure, st.breaks, nil, nil, cfg.Tiebreaker)
		wk.stats.BaseResolutions++
		if rec != nil {
			stc.StoreDiff(&rec.tree, tree)
		}
	}

	stored := false // d's pristine sidecar was just stored
	if baseValid && fill == nil {
		// Contributions read only parents, types and weights, none of
		// which moved: the recorded floats are the ones the fresh loop
		// below would produce, added in the same order.
		for _, e := range rec.base {
			wk.uBase[e.node] += e.val
		}
	} else {
		// Base utility contributions, over the destination's memoized
		// utility support list — the ascending subset of the ISP index
		// whose contribution can be nonzero for this destination in any
		// state (customer-route ISPs under outgoing, provider-parent ISPs
		// under incoming). ISPs outside it would only ever add +0.0, and
		// the accumulators never hold -0.0, so eliding those additions is
		// bit-safe — the same argument that lets replay record only
		// nonzero contributions.
		var support []int32
		if cfg.Model == Outgoing {
			support = stc.SupportOutgoing(wk.isps)
		} else {
			support = stc.SupportIncoming(wk.isps)
		}
		accumulate(stc, tree, weights, wk.accBase, wk.incBase)
		if fill != nil {
			fill.kids = appendKids(fill.kids, stc, tree, wk.accBase)
		}
		wk.contribs = wk.contribs[:0]
		for _, i := range support {
			v := wk.contribution(cfg.Model, stc, wk.accBase, wk.incBase, weights, i)
			wk.uBase[i] += v
			if v != 0 {
				wk.contribs = append(wk.contribs, contribEntry{i, v})
			}
		}
		fill.addBase(wk.contribs)
		if rec != nil {
			rec.base = append(rec.base[:0], wk.contribs...)
		}
		// d is insecure, so these are its pristine contributions: record
		// them for sidecar replay by later rounds, Runs and processes.
		stored = pl.recordSC && wk.storeSidecar(uint8(cfg.Model), d, wk.contribs)
	}

	// Residency follows reads (DESIGN.md §5b): a fresh static is admitted
	// unless the store is packed and no later pass reads it — d is
	// untouchable, and the sidecar just stored serves it from now on.
	if fresh && !(stored && pl.untouchable && wk.statics.Repacked()) {
		stc = wk.admitStatic(stc, blob)
	}
	if rec != nil {
		wk.dyn.resize(rec) // the projections below leave the record alone
		if baseValid && len(rc.candList) == 0 {
			wk.stats.CleanDests++
		} else {
			wk.stats.DirtyDests++
		}
	}

	// Projected deltas: project runs each candidate's App. C.4 ladder and
	// leaves a projection that moves a parent applied, for deltaAt.
	pj := projection{stc: stc, tree: tree}
	for _, c := range rc.candList {
		if moved, _ := wk.project(&pj, st, cfg, c); moved != nil {
			v := wk.deltaAt(cfg.Model, stc, tree, &wk.projTree, weights, c, moved)
			wk.uDelta[c] += v
			fill.addDelta(c, v)
			wk.ws.RevertFlips(&wk.projTree)
		}
	}
}

// fetchStatic fetches destination d's static through the one ladder
// every static read takes: the resident tier, then a disk blob, then
// the three-stage BFS, writing fresh results through to disk. fresh
// reports a static that is not resident — decoded from blob, or built
// when blob is nil — for processDest to admit by the residency rule
// (blob is the worker's disk buffer, valid until its next disk read);
// between the two tiers this (graph, tiebreaker, destination) pays the
// BFS once. Same bytes on every rung: a decoded blob reproduces
// PrepareDest's output exactly (see packed.go), LookupInto CRC-checks
// disk blobs and DecodePacked validates them in full, and a blob that fails
// is dropped and recomputed (the write-through repairs it) — corruption
// can cost time, never bits.
func (wk *worker) fetchStatic(d int32, rc *roundCtx) (stc *routing.Static, blob []byte, fresh bool) {
	if stc = wk.statics.Get(d, wk.ws); stc != nil {
		wk.stats.StaticHits++
		return stc, nil, false
	}
	if b := wk.disk.LookupInto(d, &wk.diskBuf); b != nil {
		// Full validation: disk bytes enter the engine only here, so
		// the resident tier they are admitted to holds nothing
		// unvalidated and decodes trusted from then on.
		if s, err := wk.ws.DecodePacked(b); err == nil {
			// The BFS was skipped: a disk hit, not a static miss.
			wk.stats.StaticDiskHits++
			wk.stats.StaticDiskBytesRead += int64(len(b))
			return s, b, true
		}
		wk.disk.Drop(d)
	}
	stc = wk.buildStatic(d, rc)
	wk.stats.StaticMisses++
	if wk.disk.PutStatic(stc) {
		wk.stats.StaticDiskWrites++
	}
	return stc, nil, true
}

// buildStatic runs d's three-stage BFS — the ladder's last rung — and
// returns PrepareDest's static for it: from a lane of the worker's batch
// when one was built for d, as a width-1 build otherwise.
//
// A destination the plan marks build cuts the next batch: itself and
// the stripe's next destinations marked build, up to BatchWidth of
// them. Destinations are served in ascending order, so a lane behind d
// will never be asked for in this call (a later call may still use the
// batch: a lane's static depends on the graph and the tiebreaker alone,
// and both are the engine's for its life). Nothing here
// trusts the plan: a lane nobody asks for is wasted, a build it did not
// foresee — or one with no plan at all — is width 1, and a lane's
// static is PrepareDest's bit for bit either way.
func (wk *worker) buildStatic(d int32, rc *roundCtx) *routing.Static {
	tb := rc.cfg.Tiebreaker
	if wk.batch != nil {
		lanes := wk.batch.Dests()
		for wk.lane < len(lanes) && lanes[wk.lane] < d {
			wk.lane++
		}
		if wk.lane < len(lanes) && lanes[wk.lane] == d {
			return wk.ws.PrepareLane(wk.batch, wk.lane)
		}
	}
	if len(wk.plans) == 0 || !wk.plans[d/wk.stride].build {
		return wk.ws.PrepareDest(d, tb)
	}
	cut := append(wk.cut[:0], d)
	for k := d/wk.stride + 1; int(k) < len(wk.plans) && len(cut) < routing.BatchWidth; k++ {
		if wk.plans[k].build {
			cut = append(cut, wk.shard+k*wk.stride)
		}
	}
	wk.cut = cut
	if len(cut) == 1 {
		return wk.ws.PrepareDest(d, tb)
	}
	if wk.batch == nil {
		wk.batch = routing.NewStaticBatch(wk.ws.Graph(), routing.BatchWidth)
	}
	wk.batch.Build(cut, tb)
	wk.lane = 0
	return wk.ws.PrepareLane(wk.batch, 0)
}

// admitStatic admits stc — decoded from blob, when that is set — to the
// resident tier and returns the static to project against from here on.
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

// wantRecord reports whether record-less destination d should be
// admitted to the dynamic cache this round: only when no sidecar can
// serve it instead. A record exists to keep a tree current, and an
// insecure destination's tree is the static winner tree in every state
// — all it ever needs is its pristine contributions, which a sidecar
// replays without a tree or a static. So: secure destinations, and
// insecure ones a surviving candidate projection can flip
// (!untouchable: they need projection scratch this round).
func (wk *worker) wantRecord(d int32, rc *roundCtx, untouchable bool) bool {
	return rc.st.secure[d] || !untouchable
}

// destUntouchable reports whether, in a candidate round, every
// candidate is provably skipped for destination d without reading its
// resolved tree, so the destination needs only its base contributions —
// exactly what a sidecar replays. It holds when d is insecure
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

// sidecarWanted reports whether (kind, d)'s pristine-contribution
// sidecar is absent from every tier that could serve it — the signal
// for the normal path to record one.
func (wk *worker) sidecarWanted(kind uint8, d int32) bool {
	return wk.statics.SidecarGet(kind, d) == nil && !wk.disk.HasSidecar(kind, d)
}

// replaySidecar serves an insecure destination's base contributions by
// replaying its recorded sidecar: the nonzero contributions in
// ascending node order, bit-for-bit the floats the fresh support loop
// would add (zero additions are bit-safe no-ops — the accumulators never
// hold -0.0). Valid because an insecure destination's tree is the static
// winner tree in every deployment state, making the contributions a pure
// function of (graph, weights, tiebreaker, model, destination) — the
// disk/cache keying. When it cannot serve d (a miss, or a decode failure
// that drops the bad record), wanted answers sidecarWanted for d.
func (wk *worker) replaySidecar(d int32, rc *roundCtx) (served, wanted bool) {
	kind := uint8(rc.cfg.Model)
	payload := wk.statics.SidecarGet(kind, d)
	fromDisk := false
	if payload == nil {
		payload = wk.disk.LookupSidecar(kind, d, &wk.diskBuf)
		fromDisk = payload != nil
	}
	if payload == nil {
		return false, true
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
		return false, wk.sidecarWanted(kind, d)
	}
	wk.scBuf = entries[:0]
	for _, e := range entries {
		wk.uBase[e.Node] += math.Float64frombits(e.Bits)
	}
	if fromDisk {
		wk.stats.StaticDiskHits++
		wk.stats.StaticDiskBytesRead += int64(len(payload))
		// Warm the resident tier so later rounds skip the disk read.
		wk.statics.SidecarPut(kind, d, payload)
	}
	wk.stats.PristineReplays++
	return true, false
}

// storeSidecar encodes entries as (kind, d)'s sidecar and stores
// it in the resident tier and the disk store, reporting whether some
// tier kept it — and only then counting a pristine record: a full static
// budget rejects the put, and the destination is then recomputed next
// round.
func (wk *worker) storeSidecar(kind uint8, d int32, entries []contribEntry) bool {
	wk.scEntries = wk.scEntries[:0]
	for _, e := range entries {
		wk.scEntries = append(wk.scEntries, routing.SidecarEntry{Node: e.node, Bits: math.Float64bits(e.val)})
	}
	wk.scPayload = routing.AppendSidecar(wk.scPayload[:0], d, wk.ws.Graph().N(), kind, wk.scEntries)
	stored := wk.statics.SidecarPut(kind, d, wk.scPayload)
	if wk.disk.PutSidecar(kind, d, wk.scPayload) {
		wk.stats.StaticDiskWrites++
		stored = true
	}
	if stored {
		wk.stats.PristineRecords++
	}
	return stored
}

// advanceRecord brings rec.tree from the previous round's deployment
// state to the current one and leaves the current tree in tree. It
// decodes the diff, then runs change propagation over the realized flip
// set unless treeStill proves it would change nothing — bit-identical to
// a fresh resolution, by ApplyFlips' contract — and brings the diff up to
// date from the undo log, which is deliberately abandoned (the change is
// real, not a projection). It is one propagation per destination per
// round, so it never builds the dependents index (ApplyFlips uses one a
// resident snapshot carries, and the graph otherwise). parentsChanged
// invalidates the memoized base contributions (they read only parents).
func (wk *worker) advanceRecord(rec *destRecord, tree *routing.Tree, stc *routing.Static, rc *roundCtx) (parentsChanged bool) {
	stc.LoadDiff(tree, &rec.tree)
	if rc.treeStill(rec.dest) {
		return false
	}
	parentsChanged, _ = wk.ws.ApplyFlips(tree, stc,
		rc.prevSecure, rc.prevBreaks, rc.flipMark, rc.flipBreaks, rc.flipList, rc.cfg.Tiebreaker)
	if wk.ws.UndoSize() > 0 {
		wk.ws.CommitDiff(&rec.tree, stc, tree)
	}
	return parentsChanged
}

// projection is one destination's side of project: the static and base
// tree every candidate projects against, and which of the scratch built
// lazily for them is ready. A caller makes one per destination.
type projection struct {
	stc          *routing.Static
	tree         *routing.Tree // the base tree for the current state
	predReady    bool          // the move predictor is prepared for tree
	projReady    bool          // wk.projTree holds tree, and its child index is built
	propagations int           // change propagations run so far
}

// indexAfterPropagations is how many change propagations a destination
// runs on graph-derived dependents before project builds the dependents
// index for the rest: the transpose costs about as much as forty
// propagations, so a destination with a handful never recoups it and
// one with a hundred (a projection-heavy incoming round) does.
const indexAfterPropagations = 3

// project runs candidate c's Appendix C.4 ladder against pj's
// destination, the one ladder behind both the engine's projected
// utilities (processDest) and the turn-off scan (scanDest):
//   - the zero-utility skip: c's contribution is identically zero in
//     every deployment state, so the pair is dropped outright (ok false).
//     Outgoing (Eq. 1) pays c only when its best-route class is
//     customer — a state-independent property (Observation C.1).
//     Incoming (Eq. 2) pays c only via customers entering over
//     provider-class routes, which requires some provider-route node to
//     list c among its equally-good next hops;
//   - the skip rules (flipCanChangeTree);
//   - the batched move predictor, which skips a single-node flip that
//     provably moves no parent without running change propagation;
//   - ApplyFlips change propagation on wk.projTree.
//
// Each piece of scratch is built when the first candidate needs it: the
// predictor when one survives the skip rules, the base-tree copy and
// child index when one also needs a propagation, and the dependents
// index only after indexAfterPropagations of them (ApplyFlips derives
// the few rows it needs from the graph without it, and half the
// destinations that propagate at all do so once).
//
// A projection that moves no parent routes identically to the base
// tree, so c's contribution over it is bit-equal to the base one: it is
// reverted here and moved is nil. Otherwise moved lists the parent moves
// and the projection stays applied; the caller evaluates it and calls
// RevertFlips.
func (wk *worker) project(pj *projection, st *deployState, cfg *Config, c int32) (moved []int32, ok bool) {
	stc, tree := pj.stc, pj.tree
	if cfg.Model == Outgoing {
		if stc.Type[c] != routing.CustomerRoute {
			wk.stats.SkipZeroUtil++
			return nil, false
		}
	} else if !stc.IsProviderParent(c) {
		wk.stats.SkipZeroUtil++
		return nil, false
	}
	flips := wk.flipSetFor(st, cfg, c)
	if !wk.flipCanChangeTree(stc, tree, st, cfg, c, flips) {
		wk.clearFlips(flips)
		return nil, true
	}
	if !pj.predReady {
		wk.ws.PrepareFlipEffects(stc, tree, st.secure, st.breaks, cfg.Tiebreaker)
		pj.predReady = true
	}
	// FlipChangesTree assumes a node that turns on breaks ties; a stub
	// under !StubsBreakTies does not, and propagates instead.
	if len(flips) == 1 && c != stc.Dest && (st.secure[c] || wk.flipBreaks[c]) &&
		!wk.ws.FlipChangesTree(stc, tree, st.secure, st.breaks, cfg.Tiebreaker, c) {
		wk.clearFlips(flips)
		wk.stats.ProjUnchanged++
		return nil, true
	}
	if !pj.projReady {
		wk.projTree.CopyFrom(tree)
		wk.buildChildIndex(stc, tree, wk.ws.Graph().N())
		pj.projReady = true
	}
	if pj.propagations == indexAfterPropagations {
		wk.ws.PrepareDelta(stc)
	}
	pj.propagations++
	parentsChanged, touched := wk.ws.ApplyFlips(&wk.projTree, stc,
		st.secure, st.breaks, wk.flipMark, wk.flipBreaks, flips, cfg.Tiebreaker)
	wk.clearFlips(flips)
	wk.stats.ProjResolutions++
	wk.stats.NodesRecomputed += int64(touched)
	wk.stats.NodesReused += int64(len(stc.Order()) - touched)
	if !parentsChanged {
		wk.stats.ProjUnchanged++
		wk.ws.RevertFlips(&wk.projTree)
		return nil, true
	}
	wk.movedBuf = wk.ws.ParentMoves(&wk.projTree, wk.movedBuf[:0])
	return wk.movedBuf, true
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
// possibly alter the routing tree for stc's destination, given that tree
// holds the base tree for the current state.
func (wk *worker) flipCanChangeTree(stc *routing.Static, tree *routing.Tree, st *deployState, cfg *Config, c int32, flips []int32) bool {
	d := stc.Dest
	if wk.flipMark[d] {
		// The destination itself flips (c == d, or d is one of c's stubs
		// under ProjectStubUpgrades): whether any path to d can be
		// secure changes — unless nobody has a secure path to d. A
		// flip-set stub is insecure, so this scan runs only for c == d:
		// once per destination at most.
		if st.secure[d] {
			for _, i := range stc.Order() {
				if tree.Secure[i] {
					return true
				}
			}
			wk.stats.SkipDestFlip++
			return false
		}
		return true
	}
	if !st.secure[d] {
		// Insecure destination that stays insecure: no path to d is ever
		// secure, and flipping cannot change that. (C.4 rule 1.)
		wk.stats.SkipInsecureDest++
		return false
	}
	if st.secure[c] {
		// Turning c off matters only if c currently has a fully secure
		// path (then c's own choice, or paths through c, may change).
		if !tree.Secure[c] {
			wk.stats.SkipTurnOff++
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
	wk.stats.SkipTurnOn++
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
