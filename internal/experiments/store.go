package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/dist"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
	"sbgp/internal/topogen"
)

// Store is the keyed artifact store behind the experiment harness. It
// memoizes the three expensive artifact kinds the ~22 runners otherwise
// recompute independently — generated graphs, derived (augmented)
// graphs, and completed simulation Results — and optionally persists
// them under a cache directory so a rerun (or a crashed run resumed)
// reloads finished work instead of redoing it.
//
// Keys are content-derived: graphs by their generation parameters
// (GraphKey), simulations by the pair (graph content fingerprint,
// Config.Fingerprint). Concurrent requests for the same key collapse
// into one computation (singleflight), and simulation executions are
// gated by a weighted worker budget so concurrently running experiments
// never oversubscribe the worker pool each Sim hoists internally.
//
// Graphs returned by the store are shared across experiments and MUST
// NOT be mutated (in particular, never call SetCPTrafficFraction on
// them — request a graph at the right traffic fraction instead).
type Store struct {
	dir     string // cache root; "" = in-memory only
	budget  *workerBudget
	workers int // resolved worker budget (for sims run through the store)

	// StaticCacheBytes, when non-zero, overrides the static budget
	// (sim.Config.StaticCacheBytes) of every simulation executed through
	// the store: positive caps it, negative disables the resident
	// store. With the cache on, it is the budget of each
	// shared statics core and, separately, of each handle's sidecars (see
	// sharedStatics). It is a performance knob only — excluded from
	// Config.Fingerprint, so it never changes cache keys or Results. Set
	// it before the first Sim call.
	StaticCacheBytes int64
	// DynamicCacheBytes does the same for the cross-round dynamic
	// contribution cache (sim.Config.DynamicCacheBytes) — also excluded
	// from Config.Fingerprint, also bit-identical at any setting.
	DynamicCacheBytes int64
	// StaticStoreDir, when non-empty, gives every simulation executed
	// through the store a persistent on-disk static snapshot tier
	// (sim.Config.StaticStoreDir): each distinct (graph, tiebreaker)
	// pays its static BFS sweep once ever, across runs sharing the
	// directory. Its directories stay keyed by the full graph
	// fingerprint, weights included, because the sidecars stored there
	// sum traffic weights. A weight variant whose statics the shared core
	// already serves therefore fills its own directory with its sidecars
	// and the statics of its class-replayed leaves only. Performance knob
	// only — the tier is validated-or-recompute by construction, so
	// Results and cache keys are unaffected. Set it before the first Sim
	// call.
	StaticStoreDir string
	// DistWorkers, when positive, executes every simulation over that
	// many fork-exec'd local worker processes (internal/dist) instead of
	// in-process goroutines. The process binary must call
	// dist.MaybeRunWorker early in main. Placement knob only: dist runs
	// are bit-identical to in-process runs at the same logical shard
	// count, so cache keys and Results are unaffected.
	DistWorkers int

	mu       sync.Mutex
	graphs   map[GraphKey]*graphEntry
	sims     map[string]*simEntry
	graphFPs map[*asgraph.Graph]string
	statics  map[staticsKey]*routing.SharedStaticCache

	execs    int64 // simulations actually executed (cache misses)
	requests int64 // total simulation requests
}

// GraphKey identifies a generated graph by its generation inputs.
type GraphKey struct {
	// N and Seed parameterize topogen.Default.
	N    int
	Seed int64
	// X is the CP traffic fraction baked into the graph's weights.
	X float64
	// Variant selects the substrate: "base" for the plain synthetic
	// graph, "aug" for the Section 6.8 augmented graph (CP peering to
	// half the ASes).
	Variant string
}

const (
	variantBase = "base"
	variantAug  = "aug"
	// augPeerFraction is the per-CP peering fraction of the augmented
	// graph (the paper's Section 6.8 / Appendix D transformation).
	augPeerFraction = 0.5
	// graphCacheVersion keys the on-disk graph cache to the generator
	// version; bump when topogen's output for a fixed seed changes.
	graphCacheVersion = "topo-v1"
)

type graphEntry struct {
	once sync.Once
	g    *asgraph.Graph
	err  error
}

type simEntry struct {
	once sync.Once
	res  *sim.Result
	err  error
	// fromDisk reports the entry was loaded rather than executed.
	fromDisk bool
	wall     time.Duration
}

// NewStore creates a store. dir is the cache root ("" disables
// persistence); workers is the global simulation worker budget (<=0
// means GOMAXPROCS).
func NewStore(dir string, workers int) (*Store, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if dir != "" {
		for _, sub := range []string{"graphs", "sims"} {
			if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
				return nil, fmt.Errorf("experiments: creating cache dir: %w", err)
			}
		}
	}
	return &Store{
		dir:      dir,
		budget:   newWorkerBudget(workers),
		workers:  workers,
		graphs:   make(map[GraphKey]*graphEntry),
		sims:     make(map[string]*simEntry),
		graphFPs: make(map[*asgraph.Graph]string),
		statics:  make(map[staticsKey]*routing.SharedStaticCache),
	}, nil
}

// staticsKey identifies a shared static store handle: one per graph
// instance and tiebreaker. Handles whose graphs have one topology share
// one statics core (see sharedStatics).
type staticsKey struct {
	g  *asgraph.Graph
	tb string
}

// sharedStatics returns the static store handle for (g, cfg.Tiebreaker),
// creating it on first use. Every simulation the store executes on the
// same graph with the same tiebreaker shares one handle, so a θ sweep
// pays each destination's static BFS once per graph instead of once per
// Sim — and concurrently running experiments share one copy of the
// snapshots instead of one per Sim.
//
// Statics depend on the topology and the tiebreaker, not on the traffic
// weights, so a new handle shares the statics core of any existing
// handle whose graph has the same topology (asgraph.SameTopology) and
// whose tiebreaker has the same fingerprint: fig12's x variants of the
// base and augmented graphs hold two cores, not eight. Only the pristine
// sidecars, which sum traffic weights, stay per handle. The topology
// comparison runs here, once per new graph instance, and nowhere else.
func (s *Store) sharedStatics(g *asgraph.Graph, cfg sim.Config) *routing.SharedStaticCache {
	tb := cfg.Tiebreaker
	if tb == nil {
		tb = routing.HashTiebreaker{}
	}
	k := staticsKey{g: g, tb: routing.TiebreakerFingerprint(tb)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc, ok := s.statics[k]; ok {
		return sc
	}
	// Every handle of one topology and tiebreaker shares one core, so
	// the first match found is as good as any.
	var sc *routing.SharedStaticCache
	for other, h := range s.statics {
		if other.tb == k.tb && asgraph.SameTopology(other.g, g) {
			sc = h.Share()
			break
		}
	}
	if sc == nil {
		sc = routing.NewSharedStaticCache(s.StaticCacheBytes)
	}
	s.statics[k] = sc
	return sc
}

// Graph returns the graph for key, generating (or loading from the
// cache directory) on first use. The returned graph is shared: callers
// must treat it as immutable.
func (s *Store) Graph(key GraphKey) (*asgraph.Graph, error) {
	s.mu.Lock()
	e, ok := s.graphs[key]
	if !ok {
		e = &graphEntry{}
		s.graphs[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		e.g, e.err = s.buildGraph(key)
		if e.err == nil {
			s.mu.Lock()
			s.graphFPs[e.g] = asgraph.Fingerprint(e.g)
			s.mu.Unlock()
		}
	})
	return e.g, e.err
}

// buildGraph loads key's graph from the disk cache or generates it
// (persisting the generated graph for the next run).
func (s *Store) buildGraph(key GraphKey) (*asgraph.Graph, error) {
	path := ""
	if s.dir != "" {
		path = filepath.Join(s.dir, "graphs", graphFileName(key))
		if g, err := asgraph.ReadFile(path); err == nil {
			if g.N() == key.N {
				return g, nil
			}
			// Stale entry (size mismatch): fall through and regenerate.
		}
	}

	var g *asgraph.Graph
	var err error
	switch key.Variant {
	case variantBase:
		g, err = topogen.Generate(topogen.Default(key.N, key.Seed))
	case variantAug:
		var base *asgraph.Graph
		base, err = s.Graph(GraphKey{N: key.N, Seed: key.Seed, X: key.X, Variant: variantBase})
		if err == nil {
			g, err = topogen.Augment(base, key.Seed, augPeerFraction)
		}
	default:
		err = fmt.Errorf("experiments: unknown graph variant %q", key.Variant)
	}
	if err != nil {
		return nil, err
	}
	g.SetCPTrafficFraction(key.X)

	if path != "" {
		// Best effort: a failed persist only costs the next run a
		// regeneration.
		if data, err := renderGraph(g); err == nil {
			_ = writeFileAtomic(path, data)
		}
	}
	return g, nil
}

// SimRun is the per-request record Sim returns alongside the Result.
type SimRun struct {
	// Key is the content-derived cache key (graph fingerprint prefix +
	// config fingerprint).
	Key string `json:"key"`
	// Graph is the full content fingerprint of the simulated graph.
	Graph string `json:"graph"`
	// Config is the trajectory fingerprint of the simulated Config.
	Config string `json:"config"`
	// Cached reports the Result was served without executing the
	// simulation in this call (earlier call, or loaded from disk).
	Cached bool `json:"cached"`
	// WallMS is the execution wall time (0 when Cached by an earlier
	// in-memory hit; the original execution time for disk loads is in
	// the per-round stats).
	WallMS float64 `json:"wall_ms"`
}

// Sim returns the simulation Result for (g, cfg), executing it at most
// once per distinct (graph content, trajectory-relevant config) across
// the store's lifetime and across runs sharing the cache directory.
//
// The executed configuration is normalized to record full
// instrumentation (RecordUtilities and RecordStats on) so a single
// cache entry serves every requester; see Config.Fingerprint for what
// may legitimately differ between a cached Result and a fresh run
// (per-round stats, final-ulp utility noise across worker counts).
func (s *Store) Sim(g *asgraph.Graph, cfg sim.Config) (*sim.Result, SimRun, error) {
	// Normalize: superset instrumentation, worker budget, cache policy.
	cfg.RecordUtilities = true
	cfg.RecordStats = true
	if s.StaticCacheBytes != 0 {
		cfg.StaticCacheBytes = s.StaticCacheBytes
	}
	if s.DynamicCacheBytes != 0 {
		cfg.DynamicCacheBytes = s.DynamicCacheBytes
	}
	if s.StaticStoreDir != "" {
		cfg.StaticStoreDir = s.StaticStoreDir
	}
	// Serve statics through the graph's shared handle (statics core per
	// topology, sidecars per graph) unless static caching is disabled
	// outright (negative budget).
	if s.StaticCacheBytes >= 0 {
		cfg.SharedStatics = s.sharedStatics(g, cfg)
	}

	gfp := s.graphFingerprint(g)
	cfp := cfg.Fingerprint()
	key := gfp[:16] + "-" + cfp

	s.mu.Lock()
	s.requests++
	e, ok := s.sims[key]
	if !ok {
		e = &simEntry{}
		s.sims[key] = e
	}
	s.mu.Unlock()

	ranNow := false
	e.once.Do(func() {
		ranNow = true
		e.res, e.fromDisk, e.wall, e.err = s.computeSim(key, g, cfg)
		if e.err == nil && !e.fromDisk {
			s.mu.Lock()
			s.execs++
			s.mu.Unlock()
		}
	})

	run := SimRun{Key: key, Graph: gfp, Config: cfp, Cached: !ranNow || e.fromDisk}
	if ranNow && !e.fromDisk {
		run.WallMS = float64(e.wall) / float64(time.Millisecond)
	}
	return e.res, run, e.err
}

// computeSim loads the keyed result from disk or executes the
// simulation under the worker budget and persists the outcome.
func (s *Store) computeSim(key string, g *asgraph.Graph, cfg sim.Config) (res *sim.Result, fromDisk bool, wall time.Duration, err error) {
	path := ""
	if s.dir != "" {
		path = filepath.Join(s.dir, "sims", key+".json")
		if res, err := readResultFile(path, g.N()); err == nil {
			return res, true, 0, nil
		}
		// Missing, stale or corrupted: recompute and overwrite.
	}

	// Distributed execution: the coordinator replaces the in-process
	// shard engine for this one simulation. SharedStatics stays behind —
	// it cannot cross a process boundary; each worker's engine builds a
	// store of its own.
	if s.DistWorkers > 0 {
		coord, err := dist.NewLocalCoordinator(g, cfg, s.DistWorkers, dist.Options{})
		if err != nil {
			return nil, false, 0, err
		}
		defer coord.Close()
		cfg.SharedStatics = nil
		cfg.Executor = coord
	}

	sm, err := sim.New(g, cfg)
	if err != nil {
		return nil, false, 0, err
	}
	// Gate execution on the worker budget: each Sim spins up its own
	// destination-parallel pool of cfg.Workers goroutines (or worker
	// processes), so without this gate P concurrent experiments would
	// run P×Workers busy goroutines.
	claim := s.acquireWorkers(cfg.Workers)
	start := time.Now()
	res, err = sm.RunE()
	wall = time.Since(start)
	s.budget.release(claim)
	if err != nil {
		return nil, false, 0, err
	}

	if path != "" {
		if data, err := renderResult(res); err == nil {
			_ = writeFileAtomic(path, data) // best effort
		}
	}
	return res, false, wall, nil
}

// acquireWorkers blocks until want slots of the worker budget are free
// (the whole budget when want is unset or exceeds it), takes them, and
// returns the number taken; the caller hands them back with
// budget.release.
func (s *Store) acquireWorkers(want int) int {
	if want <= 0 || want > s.workers {
		want = s.workers
	}
	s.budget.acquire(want)
	return want
}

// graphFingerprint memoizes asgraph.Fingerprint per graph instance (the
// store's graphs are immutable, so the fingerprint is stable).
func (s *Store) graphFingerprint(g *asgraph.Graph) string {
	s.mu.Lock()
	fp, ok := s.graphFPs[g]
	s.mu.Unlock()
	if ok {
		return fp
	}
	fp = asgraph.Fingerprint(g)
	s.mu.Lock()
	s.graphFPs[g] = fp
	s.mu.Unlock()
	return fp
}

// Stats reports how many simulation requests the store served and how
// many required an actual execution.
func (s *Store) Stats() (requests, execs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests, s.execs
}

// graphFileName keys a graph cache file by generator version and
// generation inputs.
func graphFileName(key GraphKey) string {
	return fmt.Sprintf("%s-%s-n%d-s%d-x%s.txt", graphCacheVersion, key.Variant, key.N, key.Seed, ffmt(key.X))
}

// workerBudget is a weighted semaphore over simulation worker slots.
// Every simulation acquires as many slots as it will run worker
// goroutines, so the total number of busy simulation workers never
// exceeds the budget no matter how many experiments run concurrently.
type workerBudget struct {
	mu   sync.Mutex
	cond *sync.Cond
	free int
}

func newWorkerBudget(n int) *workerBudget {
	b := &workerBudget{free: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *workerBudget) acquire(k int) {
	b.mu.Lock()
	for b.free < k {
		b.cond.Wait()
	}
	b.free -= k
	b.mu.Unlock()
}

func (b *workerBudget) release(k int) {
	b.mu.Lock()
	b.free += k
	b.mu.Unlock()
	b.cond.Broadcast()
}
