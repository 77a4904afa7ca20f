// Package sim implements the S*BGP deployment game of Gill, Schapira and
// Goldberg (SIGCOMM 2011, Section 3): an infinite-round process in which
// every ISP plays myopic best response — it deploys (or, under the
// incoming-utility model, possibly disables) S*BGP whenever doing so
// would raise its utility by more than a threshold factor θ, where
// utility is the volume of revenue-generating customer traffic the ISP
// transits. Newly secure ISPs upgrade all their stub customers to
// simplex S*BGP; content providers are secure only if they are early
// adopters. The process stops at a stable state, or reports an
// oscillation (which Theorem 7.1 shows can occur under incoming
// utility).
//
// The engine follows Appendix C: per destination it computes the
// state-independent routing information once, resolves the routing tree
// for the current state and for every candidate ISP's projected state
// (skipping candidates that provably cannot change the tree, per C.4),
// and parallelizes across destinations with a worker pool — the same
// map/reduce decomposition the paper ran on a 200-node DryadLINQ
// cluster.
package sim

import (
	"fmt"
	"runtime"

	"sbgp/internal/routing"
)

// UtilityModel selects which of the paper's two ISP utility functions
// drives deployment decisions (Section 3.3).
type UtilityModel uint8

const (
	// Outgoing utility (Eq. 1): traffic an ISP forwards toward
	// destinations it reaches via customer edges. Under this model a
	// secure ISP never wants to disable S*BGP (Theorem 6.2), so every
	// simulation terminates.
	Outgoing UtilityModel = iota
	// Incoming utility (Eq. 2): traffic an ISP receives over customer
	// edges, summed over all destinations. Under this model ISPs can
	// have incentives to disable S*BGP (Section 7.1) and the process may
	// oscillate (Theorem 7.1).
	Incoming
)

// String names the model.
func (m UtilityModel) String() string {
	switch m {
	case Outgoing:
		return "outgoing"
	case Incoming:
		return "incoming"
	default:
		return fmt.Sprintf("model(%d)", uint8(m))
	}
}

// Config parameterizes a deployment simulation.
type Config struct {
	// Model is the ISP utility model. Default Outgoing.
	Model UtilityModel

	// Theta is the deployment threshold θ of update rule (3): an ISP
	// changes its action only if its projected utility exceeds
	// (1+θ)× its current utility. θ=0.05 models deployment costs worth
	// 5% of transit profit.
	Theta float64

	// EarlyAdopters are the node indices seeded secure at round 0
	// (Section 2.3). Stub customers of early-adopter ISPs start with
	// simplex S*BGP.
	EarlyAdopters []int32

	// StubsBreakTies selects whether stubs running simplex S*BGP apply
	// the SecP tie-break (Section 6.7 studies both settings). ISPs and
	// CPs always break ties once secure.
	StubsBreakTies bool

	// Tiebreaker is the final TB step; nil defaults to
	// routing.HashTiebreaker{} (the paper's hash rule) with Seed 0.
	Tiebreaker routing.Tiebreaker

	// Workers caps the destination-parallel worker pool; 0 means
	// GOMAXPROCS.
	Workers int

	// MaxRounds bounds the simulation; 0 means 250. The paper's runs
	// stabilized within 2-40 rounds; the cap exists because the
	// incoming-utility model may oscillate forever.
	MaxRounds int

	// ThetaJitter models heterogeneous deployment costs and noisy
	// utility estimation (Section 8.2 suggests "randomizing θ"): each
	// ISP i draws its own threshold θ_i uniformly from
	// [Theta·(1-ThetaJitter), Theta·(1+ThetaJitter)], deterministically
	// from ThetaSeed. Zero means every ISP uses Theta exactly.
	ThetaJitter float64
	// ThetaSeed seeds the per-ISP threshold draw.
	ThetaSeed int64

	// ThetaByNode, when non-nil, gives every node an explicit threshold
	// (indexed by node id), overriding Theta and ThetaJitter for the
	// nodes it covers (NaN entries fall back to the global rule).
	ThetaByNode []float64

	// ProjectStubUpgrades changes the projection semantics of update
	// rule (3): when an ISP evaluates deploying, its insecure stub
	// customers are treated as simplex-upgraded in the projected state
	// (the deployment *action* bundles the stub upgrades, as in the
	// Appendix E reduction). The paper's Appendix C.4 optimizations
	// imply the default (false): only the ISP itself flips, and its
	// stubs upgrade after the fact.
	ProjectStubUpgrades bool

	// StaticCacheBytes bounds the memory of the engine's resident static
	// store (a routing.SharedStaticCache of its own, one per engine
	// whatever its worker count): per-destination snapshots of the
	// state-independent routing information (Observation C.1) that let
	// steady-state rounds skip the three-stage BFS entirely, and the
	// pristine sidecars that let them skip insecure destinations. Statics
	// and sidecars are budgeted separately, each to this size. 0 means
	// the default budget (routing.DefaultStaticCacheBytes, 1 GiB — enough
	// to cache graphs of up to ~5000 ASes fully); negative disables the
	// store. A store that overflows repacks into blobs and from then on
	// admits only statics a later round reads (destinations served by
	// their pristine sidecars read none); on budget exhaustion the
	// destinations cached first stay pinned and the rest recompute each
	// round. Ignored when SharedStatics is set.
	//
	// Purely a performance/memory knob: cache hits are byte-identical to
	// cold computation, so every Result is bit-equal at any setting and
	// the field is excluded from Fingerprint.
	StaticCacheBytes int64

	// DynamicCacheBytes bounds the memory of the cross-round dynamic
	// contribution cache: per-destination records (routing tree plus
	// memoized base utility contributions) that let a round advance a
	// destination's tree across the realized flips instead of resolving
	// it afresh, and replay its base contributions while no parent moved.
	// Projections are always recomputed. 0 means the default budget
	// (DefaultDynamicCacheBytes, 1 GiB); negative disables the cache and
	// falls back to full per-destination recomputation each round. On
	// budget exhaustion the destinations recorded first stay pinned; a
	// record that outgrows the budget when refreshed is evicted and its
	// destination recomputed from then on.
	//
	// Like StaticCacheBytes this is purely a performance/memory knob:
	// replayed contributions are the recorded float64 bits and re-summed
	// in the same order, so every Result is bit-equal at any setting
	// (enabled, disabled, or forced eviction) and the field is excluded
	// from Fingerprint.
	DynamicCacheBytes int64

	// StaticStoreDir, when non-empty, roots the persistent L2 static
	// tier (routing.StaticDiskStore): packed static snapshots are
	// written through to an append-only, checksummed, mmap-read on-disk
	// store keyed by (graph fingerprint, tiebreaker wire form,
	// destination), and static cache misses consult it — decoding a
	// stored blob in ~O(reachable) — before paying the three-stage BFS.
	// One root directory serves any number of graphs; statics persist
	// across rounds, Runs, simulations and process restarts, so a
	// graph's static cold start is paid once per (graph, tiebreaker),
	// ever. An unusable directory (or a corrupted store) silently
	// degrades to today's recompute behavior.
	//
	// Purely a performance knob: every stored blob is CRC-guarded and
	// decode-validated, a decoded blob reproduces PrepareDest's output
	// bit for bit (see routing/packed.go and routing/diskstore.go), and
	// any validation failure falls back to recomputation — so every
	// Result is bit-identical with the tier off, cold, warm or corrupt
	// (see TestDiskStoreResultInvariant) and the field is excluded from
	// Fingerprint.
	StaticStoreDir string

	// SharedStatics, when non-nil, is the resident static store in place
	// of the one the engine would build for itself: a caller-owned store
	// shared across simulations, whose statics and sidecars carry their
	// own budgets (StaticCacheBytes is then ignored). Every simulation
	// sharing a handle must run on a graph of the same topology, with the
	// same tiebreaker and traffic weights (routing.SharedStaticCache.Share
	// makes a handle for other weights); New reports an error otherwise.
	// The store is safe for concurrent simulations.
	//
	// Like the cache budgets this is purely a performance knob: a shared
	// snapshot is bit-identical to cold computation (see
	// TestSharedStaticsResultInvariant), so the field is excluded from
	// Fingerprint. Use it when many simulations run on one graph — a θ
	// sweep pays each destination's three-stage BFS once per graph
	// instead of once per simulation.
	SharedStatics *routing.SharedStaticCache

	// Executor, when non-nil, runs the per-round utility computation in
	// place of the default in-process shard engine — the seam the
	// distributed coordinator (internal/dist) plugs into. The executor
	// fixes its own logical shard count; results are bit-identical to an
	// in-process run whose Shards(n) equals it (see Executor). The Sim
	// does not manage the executor's lifecycle: callers create it first
	// and close it after the last run. SharedStatics, StaticCacheBytes,
	// DynamicCacheBytes and Workers do not reach an external executor's
	// workers through this Sim — the executor was built from its own
	// Config copy.
	//
	// Purely an execution-placement knob, excluded from Fingerprint.
	Executor Executor

	// RecordUtilities, when true, stores every ISP's utility and
	// projected utility for every round in the Result (needed for the
	// paper's Figures 4, 5 and 14). Costs two float64 per AS per round.
	RecordUtilities bool

	// RecordStats, when true, attaches a RoundStats to every Round:
	// wall time, resolutions performed versus skipped by each Appendix
	// C.4 rule, change-propagation savings, and cache activity. The counters
	// themselves are always maintained; this flag only adds the
	// per-round record.
	RecordStats bool

	// RecordMemStats additionally fills RoundStats.AllocBytes from two
	// runtime.ReadMemStats calls per round. ReadMemStats stops the
	// world, which at small N dominates the round and skews the recorded
	// wall times, so memory sampling is opt-in and taken outside the
	// timed section. Implies nothing without RecordStats.
	RecordMemStats bool
}

func (c Config) withDefaults() Config {
	if c.Tiebreaker == nil {
		c.Tiebreaker = routing.HashTiebreaker{}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 250
	}
	return c
}

// validate checks the configuration against an n-node graph: the
// checks New applies before building an engine, shared with the
// analyses that read a Config without one (ScanFlips).
func (c Config) validate(n int) error {
	if c.Theta < 0 {
		return fmt.Errorf("sim: negative threshold θ=%v", c.Theta)
	}
	if c.ThetaJitter < 0 || c.ThetaJitter > 1 {
		return fmt.Errorf("sim: threshold jitter %v outside [0,1]", c.ThetaJitter)
	}
	if c.ThetaByNode != nil && len(c.ThetaByNode) != n {
		return fmt.Errorf("sim: ThetaByNode has %d entries for %d ASes", len(c.ThetaByNode), n)
	}
	for _, a := range c.EarlyAdopters {
		if a < 0 || int(a) >= n {
			return fmt.Errorf("sim: early adopter index %d out of range [0,%d)", a, n)
		}
	}
	return nil
}

// Shards returns the logical destination shard count S a simulation on
// an n-node graph partitions its per-round work into: Workers
// (defaulted to GOMAXPROCS) clamped to [1, n]. Shard s owns every
// destination d ≡ s (mod S). The float summation order — and therefore
// every simulation outcome bit — depends only on S, so a distributed
// executor built from an equal-Shards Config reproduces the in-process
// Result exactly, at any worker-process count.
func (c Config) Shards(n int) int {
	c = c.withDefaults()
	s := c.Workers
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// decisionEpsilon guards the strict inequality of update rule (3)
// against floating-point noise: utilities are sums of up to N float64
// terms, so two mathematically equal sums may differ by rounding.
func decisionEpsilon(base float64) float64 {
	return 1e-9 + 1e-12*base
}
