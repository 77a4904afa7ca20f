// Command sbgpsim runs a single S*BGP deployment simulation and prints
// the per-round adoption log and final summary.
//
// The topology comes either from -topo (native text format, see package
// asgraph) or from the built-in synthetic generator (-n/-seed). Early
// adopters are chosen by strategy name.
//
// Examples:
//
//	sbgpsim -n 2000 -theta 0.05 -adopters cps+top5
//	sbgpsim -topo graph.txt -model incoming -theta 0.1 -adopters top10
//	sbgpsim -n 1000 -adopters random20 -adopter-seed 7
//	sbgpsim -n 2500 -model incoming -cpuprofile cpu.pprof
//	sbgpsim -preset paper -dist-workers 4
//
// Distributed execution: -dist-workers K fork-execs K copies of this
// binary as local worker processes talking over stdio pipes. To span
// machines, start `sbgpsim -dist-listen :9000` on each worker host and
// point the coordinator at them with -dist-connect host1:9000,host2:9000.
// Results are bit-identical to an in-process run with the same -workers
// value at any worker-process count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sbgp"
	"sbgp/internal/dist"
	"sbgp/internal/profiling"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

func main() {
	// When this process is a fork-exec'd stdio worker, serve and exit
	// before touching flags.
	dist.MaybeRunWorker()
	os.Exit(run())
}

// paperN is the AS count of the paper's empirical graph (a UCLA
// Cyclops snapshot from Dec 16, 2010).
const paperN = 36964

func run() int {
	var (
		topo        = flag.String("topo", "", "topology file (native text format); empty = generate")
		n           = flag.Int("n", 2000, "synthetic graph size (ignored with -topo)")
		seed        = flag.Int64("seed", 42, "generator / tiebreak seed")
		preset      = flag.String("preset", "", "parameter preset: paper (N=36,964, 5 CPs, x=0.10, θ=0.05)")
		augment     = flag.Float64("augment", 0, "per-CP peering fraction for the Section 6.8 augmented variant (0 = off)")
		x           = flag.Float64("x", 0.10, "CP traffic fraction")
		model       = flag.String("model", "outgoing", "utility model: outgoing|incoming")
		theta       = flag.Float64("theta", 0.05, "deployment threshold θ")
		adoptersStr = flag.String("adopters", "cps+top5", "early adopters: none|cps|topK|cps+topK|randomK")
		adopterSeed = flag.Int64("adopter-seed", 1, "seed for randomK adopters")
		stubsBT     = flag.Bool("stubs-break-ties", true, "stubs running simplex S*BGP break ties on security")
		projectStub = flag.Bool("project-stubs", false, "projection bundles the ISP's simplex stub upgrades")
		workers     = flag.Int("workers", 0, "logical shard count (0 = GOMAXPROCS; pin for cross-machine reproducibility)")
		maxRounds   = flag.Int("max-rounds", 0, "round cap (0 = default)")
		staticCache = flag.Int64("static-cache", 0, "resident static store budget in bytes, for statics and for sidecars each (0 = default, negative = disable)")
		staticStore = flag.String("static-store", "", "persist packed static snapshots under this directory so reruns skip the static BFS (bit-identical results)")
		dynCache    = flag.Int64("dyn-cache", 0, "dynamic contribution cache budget in bytes (0 = default, negative = disable)")
		stats       = flag.Bool("stats", false, "print per-round engine statistics")
		memStats    = flag.Bool("memstats", false, "sample per-round heap allocation (stop-the-world; implies nothing without -stats)")
		quiet       = flag.Bool("q", false, "summary only")
		resultJSON  = flag.String("result-json", "", "write the full Result (with utilities) as JSON to this file")
		distWorkers = flag.Int("dist-workers", 0, "distribute over this many local worker processes (fork-exec over stdio pipes)")
		distConnect = flag.String("dist-connect", "", "distribute over TCP workers at these comma-separated addresses")
		distListen  = flag.String("dist-listen", "", "run as a TCP worker listening on this address (serves coordinators forever)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceFile   = flag.String("trace", "", "write a runtime execution trace to this file (view with go tool trace)")
	)
	flag.Parse()

	if *distListen != "" {
		fmt.Fprintf(os.Stderr, "sbgpsim: worker listening on %s\n", *distListen)
		return fail(dist.ListenAndServe(*distListen))
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	switch *preset {
	case "":
	case "paper":
		// Paper-scale defaults; any explicitly-set flag wins.
		if !explicit["n"] {
			*n = paperN
		}
		if !explicit["x"] {
			*x = 0.10
		}
		if !explicit["theta"] {
			*theta = 0.05
		}
		if !explicit["adopters"] {
			*adoptersStr = "cps+top5"
		}
	default:
		return fail(fmt.Errorf("unknown preset %q (want: paper)", *preset))
	}

	stop, err := profiling.Start(*cpuProfile, *memProfile, *traceFile)
	if err != nil {
		return fail(err)
	}
	defer stop()
	// Flush the disk tier's index before exit so the next run scans
	// nothing (purely an open-time optimization — the data is durable
	// either way).
	defer routing.CloseSharedDiskStores()

	var g *sbgp.Graph
	if *topo != "" {
		g, err = sbgp.ReadGraphFile(*topo)
		if err != nil {
			return fail(err)
		}
	} else {
		g, err = sbgp.GenerateTopology(sbgp.DefaultTopology(*n, *seed))
		if err != nil {
			return fail(err)
		}
	}
	if *augment > 0 {
		g, err = sbgp.AugmentTopology(g, *seed, *augment)
		if err != nil {
			return fail(err)
		}
	}
	if len(sbgp.ContentProviders(g)) > 0 {
		g.SetCPTrafficFraction(*x)
	}

	adopters, err := sbgp.ParseAdopters(g, *adoptersStr, *adopterSeed)
	if err != nil {
		return fail(err)
	}

	cfg := sbgp.Config{
		Theta:               *theta,
		EarlyAdopters:       adopters,
		StubsBreakTies:      *stubsBT,
		ProjectStubUpgrades: *projectStub,
		Tiebreaker:          sbgp.HashTiebreaker{Seed: uint64(*seed)},
		Workers:             *workers,
		MaxRounds:           *maxRounds,
		StaticCacheBytes:    *staticCache,
		DynamicCacheBytes:   *dynCache,
		StaticStoreDir:      *staticStore,
		RecordStats:         *stats,
		RecordMemStats:      *memStats,
		RecordUtilities:     *resultJSON != "",
	}
	switch *model {
	case "outgoing":
		cfg.Model = sbgp.Outgoing
	case "incoming":
		cfg.Model = sbgp.Incoming
	default:
		return fail(fmt.Errorf("unknown model %q", *model))
	}

	if *distWorkers > 0 && *distConnect != "" {
		return fail(fmt.Errorf("-dist-workers and -dist-connect are mutually exclusive"))
	}
	if *distWorkers > 0 || *distConnect != "" {
		var procs int
		if *distWorkers > 0 {
			procs = *distWorkers
		} else {
			procs = len(strings.Split(*distConnect, ","))
		}
		// Unless pinned, tie the logical shard count to the worker count
		// so the partitioning doesn't depend on the coordinator's
		// GOMAXPROCS. Pin -workers explicitly to compare against a
		// specific in-process run bit for bit.
		if cfg.Workers == 0 {
			cfg.Workers = procs
		}
		var coord *dist.Coordinator
		if *distWorkers > 0 {
			coord, err = dist.NewLocalCoordinator(g, cfg, procs, dist.Options{})
		} else {
			coord, err = dist.NewTCPCoordinator(g, cfg, strings.Split(*distConnect, ","), dist.Options{})
		}
		if err != nil {
			return fail(err)
		}
		defer coord.Close()
		cfg.Executor = coord
	}

	res, err := sbgp.Run(g, cfg)
	if err != nil {
		return fail(err)
	}

	if !*quiet {
		fmt.Printf("graph: %d ASes (%d ISPs, %d stubs, %d CPs); adopters: %d\n",
			g.N(), len(g.ISPs()), len(g.Stubs()), len(g.CPs()), len(adopters))
		fmt.Printf("initial: %d secure ASes\n", res.Initial.SecureASes)
		if res.PristineStats != nil {
			fmt.Printf("  pristine engine: %s\n", res.PristineStats)
		}
		newA, newI := res.NewPerRound()
		for r := range newA {
			fmt.Printf("round %3d: +%d ASes (+%d ISPs), total %d secure\n",
				r+1, newA[r], newI[r], res.Rounds[r].After.SecureASes)
			if st := res.Rounds[r].Stats; st != nil {
				fmt.Printf("  engine: %s\n", st)
			}
		}
	}
	fmt.Print(res.Summary(g))

	if *resultJSON != "" {
		f, err := os.Create(*resultJSON)
		if err != nil {
			return fail(err)
		}
		if err := sim.WriteResult(f, res); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "sbgpsim:", err)
	return 1
}
