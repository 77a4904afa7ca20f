// Package experiments regenerates every table and figure of the paper's
// evaluation over the synthetic substrate: each experiment id (table1,
// fig3, ...) maps to a runner that executes the relevant simulations and
// prints the same rows or series the paper reports. cmd/experiments is
// the CLI front end; bench_test.go wraps the same runners as benchmarks.
//
// Runners obtain graphs and simulation results through a shared Store
// (see store.go), so overlapping work between experiments — the base
// graph, the Section 5 case-study simulation, the θ sweeps — executes at
// most once per batch and, with a cache directory, at most once across
// batches. RunBatch (see harness.go) runs many experiments concurrently
// against one store and persists reports, JSON data, and resume state.
package experiments

import (
	"fmt"
	"io"
	"sort"

	"sbgp/internal/adopters"
	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

// Options configures a run. Seed=0 and X=0 are legitimate parameter
// choices and are passed through to runners unmodified; use
// DefaultOptions for the paper's laptop-scale defaults.
type Options struct {
	// N is the synthetic graph size (0 = 1200, the scaled-down paper
	// substrate).
	N int
	// Seed drives topology generation and all randomized choices.
	Seed int64
	// X is the fraction of traffic originated by the content providers
	// (the paper's base case is 0.10; 0 is a valid degenerate choice).
	X float64
	// Workers caps simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// StaticCacheBytes bounds the resident static stores
	// (sim.Config.StaticCacheBytes): 0 keeps the engine default, positive
	// caps each store's statics and, separately, its sidecars, negative
	// disables the stores. Performance knob only — results are
	// bit-identical for every setting.
	StaticCacheBytes int64
	// DynamicCacheBytes bounds each simulation's cross-round dynamic
	// contribution cache (sim.Config.DynamicCacheBytes) with the same
	// convention: 0 default, positive cap, negative off. Performance
	// knob only — results are bit-identical for every setting.
	DynamicCacheBytes int64
	// StaticStoreDir, when non-empty, persists packed static snapshots
	// under this directory (sim.Config.StaticStoreDir) so reruns skip
	// the per-destination static BFS entirely. Performance knob only —
	// results are bit-identical with the tier on, off, cold or warm.
	StaticStoreDir string
	// DistWorkers, when positive, runs every simulation over that many
	// fork-exec'd local worker processes (see internal/dist and
	// Store.DistWorkers). Placement knob only — bit-identical results.
	DistWorkers int
	// Out receives the experiment's report (default io.Discard).
	Out io.Writer

	// store, when set, supplies memoized graphs and simulation results.
	// Runners invoked through RunBatch share one store; direct Run calls
	// get a private in-memory store so nothing recomputes within an
	// experiment either way.
	store *Store
	// rec, when set by the harness, collects one SimRecord per
	// simulation request for the experiment's JSON report.
	rec *simRecorder
}

// DefaultOptions returns the laptop-scale defaults that preserve the
// paper's structural ratios: N=1200, Seed=42, X=0.10.
func DefaultOptions() Options {
	return Options{N: 1200, Seed: 42, X: 0.10}
}

// withDefaults fills only the fields whose zero value cannot be meant
// literally: a nil writer, an absent store, and N=0 (no experiment can
// run on an empty graph). Seed and X pass through unmodified — 0 is a
// valid seed and a valid traffic fraction, and the old behavior of
// silently coercing X=0 to 0.10 and Seed=0 to 42 cost users exactly
// the runs they asked for. Callers wanting the paper's defaults start
// from DefaultOptions.
func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 1200
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if o.store == nil {
		// NewStore cannot fail without a cache directory.
		o.store, _ = NewStore("", o.Workers)
		o.store.StaticCacheBytes = o.StaticCacheBytes
		o.store.DynamicCacheBytes = o.DynamicCacheBytes
		o.store.StaticStoreDir = o.StaticStoreDir
		o.store.DistWorkers = o.DistWorkers
	}
	return o
}

// Validate rejects option combinations no experiment can run with.
func (o Options) Validate() error {
	if o.N < 0 {
		return fmt.Errorf("experiments: N must be positive, got %d", o.N)
	}
	if o.N < 10 {
		return fmt.Errorf("experiments: N=%d is too small (need at least 10 ASes: 5 CPs plus ISPs; the paper uses 1200+)", o.N)
	}
	if o.X < 0 || o.X >= 1 {
		return fmt.Errorf("experiments: X must be in [0,1), got %v", o.X)
	}
	if o.Workers < 0 {
		return fmt.Errorf("experiments: Workers must be non-negative, got %d", o.Workers)
	}
	return nil
}

// Runner executes one experiment.
type Runner func(Options) error

// registry maps experiment ids to runners, in the paper's order.
var registry = []struct {
	ID, Desc string
	Run      Runner
}{
	{"table1", "DIAMOND competition counts per early adopter", Table1},
	{"table2", "graph summaries: base vs augmented", Table2},
	{"table3", "CP mean path lengths: base vs augmented", Table3},
	{"table4", "CP vs Tier-1 degrees", Table4},
	{"fig2", "a DIAMOND case study located in the graph", Fig2},
	{"fig3", "newly secure ASes and ISPs per round", Fig3},
	{"fig4", "normalized utility trajectories of diamond ISPs", Fig4},
	{"fig5", "median (projected) utility of deployers per round", Fig5},
	{"fig6", "cumulative ISP adoption by degree bin", Fig6},
	{"fig7", "secure-path growth across rounds", Fig7},
	{"fig8", "adoption vs threshold θ per early-adopter set", Fig8},
	{"fig9", "secure path fraction vs θ (compare to f²)", Fig9},
	{"fig10", "tiebreak-set size distribution", Fig10},
	{"fig11", "sensitivity to stubs breaking ties", Fig11},
	{"fig12", "CPs vs Tier-1s across traffic shares and graphs", Fig12},
	{"fig13", "buyer's remorse: incoming-utility turn-off", Fig13},
	{"fig14", "projection accuracy of the update rule", Fig14},
	{"fig15", "partially-secure path preference attack", Fig15},
	{"fig16", "set-cover reduction (Theorem 6.1)", Fig16},
	{"fig17", "deployment oscillation (Appendix F)", Fig17},
	{"sec73", "turn-off incentive scan over the final state", Sec73},
	{"ext-attack", "extension: hijack resilience vs deployment state", ExtAttack},
	{"ext-perlink", "extension: per-link deployment (Thm J.1/J.2)", ExtPerLink},
	{"ext-bootstrap", "extension: projection-semantics ablation", ExtBootstrap},
	{"ext-jitter", "extension: heterogeneous thresholds (Section 8.2)", ExtJitter},
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.ID
	}
	return out
}

// Describe returns the one-line description for an id ("" if unknown).
func Describe(id string) string {
	for _, e := range registry {
		if e.ID == id {
			return e.Desc
		}
	}
	return ""
}

// Run executes the experiment with the given id.
func Run(id string, opt Options) error {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return err
	}
	for _, e := range registry {
		if e.ID == id {
			return e.Run(opt)
		}
	}
	return fmt.Errorf("experiments: unknown id %q (known: %v)", id, IDs())
}

// baseGraph returns the standard synthetic graph for the options.
func baseGraph(opt Options) *asgraph.Graph {
	return graphAt(opt, variantBase, opt.X)
}

// augGraph returns the Section 6.8 augmented graph for the options.
func augGraph(opt Options) *asgraph.Graph {
	return graphAt(opt, variantAug, opt.X)
}

// graphAt returns the (shared, immutable) graph for a variant at an
// explicit CP traffic fraction. Experiments that sweep x (Fig12) call
// this instead of mutating a shared graph with SetCPTrafficFraction.
func graphAt(opt Options, variant string, x float64) *asgraph.Graph {
	g, err := opt.store.Graph(GraphKey{N: opt.N, Seed: opt.Seed, X: x, Variant: variant})
	if err != nil {
		// Generation errors for validated options are programming
		// errors, same contract as the old topogen.MustGenerate path.
		panic(err)
	}
	return g
}

// caseStudyConfig mirrors the paper's Section 5 case study: the five
// CPs plus the top five ISPs as early adopters, θ=5%, stubs breaking
// ties, outgoing utility.
func caseStudyConfig(g *asgraph.Graph, opt Options) sim.Config {
	return sim.Config{
		Model:           sim.Outgoing,
		Theta:           0.05,
		EarlyAdopters:   adopters.CPsPlusTopISPs(g, 5),
		StubsBreakTies:  true,
		Tiebreaker:      routing.HashTiebreaker{Seed: uint64(opt.Seed)},
		Workers:         opt.Workers,
		RecordUtilities: true,
	}
}

// adopterSets returns the paper's Figure 8 early-adopter sets, with the
// "200 ISPs" sets scaled to the same share of the ISP population the
// paper used (200 of 5,992 ≈ 3.3%, with a floor of 10).
type adopterSet struct {
	Name  string
	Nodes []int32
}

func adopterSets(g *asgraph.Graph, seed int64) []adopterSet {
	nISPs := len(g.Nodes(asgraph.ISP))
	big := nISPs / 10
	if big < 10 {
		big = 10
	}
	return []adopterSet{
		{"none", nil},
		{"5cps", adopters.ContentProviders(g)},
		{"top5", adopters.TopISPs(g, 5)},
		{"5cps+top5", adopters.CPsPlusTopISPs(g, 5)},
		{fmt.Sprintf("top%d", big), adopters.TopISPs(g, big)},
		{fmt.Sprintf("random%d", big), adopters.RandomISPs(g, big, seed)},
	}
}

// thetas is the θ sweep used throughout Section 6.
var thetas = []float64{0, 0.05, 0.10, 0.20, 0.30, 0.50}

// runOnce executes (or fetches) the simulation for (g, cfg) through the
// options' store and records the request on the current harness run (if
// any) for the JSON report.
func runOnce(opt Options, g *asgraph.Graph, cfg sim.Config) *sim.Result {
	res, run, err := opt.store.Sim(g, cfg)
	if err != nil {
		// Config errors on validated options are programming errors,
		// same contract as the old sim.MustNew path.
		panic(err)
	}
	opt.rec.note(res, run)
	return res
}

func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// sortedKeys returns map keys ascending (for deterministic output).
func sortedKeys(m map[int32]int64) []int32 {
	out := make([]int32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
