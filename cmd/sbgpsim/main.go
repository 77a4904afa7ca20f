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
	"io"
	"os"
	"strings"

	"sbgp"
	"sbgp/internal/dist"
	"sbgp/internal/profiling"
	"sbgp/internal/sim"
)

func main() {
	// When this process is a fork-exec'd stdio worker, serve and exit
	// before touching flags.
	dist.MaybeRunWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// paperN is the AS count of the paper's empirical graph (a UCLA
// Cyclops snapshot from Dec 16, 2010).
const paperN = 36964

// run parses args, runs the simulation they describe and returns the
// exit code: the log and summary go to stdout, errors to stderr. A flag
// that does not parse exits 2, any other error 1.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbgpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sbgpsim:", err)
		return 1
	}
	var (
		topo        = fs.String("topo", "", "topology file (native text format); empty = generate")
		n           = fs.Int("n", 2000, "synthetic graph size (ignored with -topo)")
		seed        = fs.Int64("seed", 42, "generator / tiebreak seed")
		preset      = fs.String("preset", "", "parameter preset: paper (N=36,964, 5 CPs, x=0.10, θ=0.05)")
		augment     = fs.Float64("augment", 0, "per-CP peering fraction for the Section 6.8 augmented variant (0 = off)")
		x           = fs.Float64("x", 0.10, "CP traffic fraction")
		model       = fs.String("model", "outgoing", "utility model: outgoing|incoming")
		theta       = fs.Float64("theta", 0.05, "deployment threshold θ")
		adoptersStr = fs.String("adopters", "cps+top5", "early adopters: none|cps|topK|cps+topK|randomK")
		adopterSeed = fs.Int64("adopter-seed", 1, "seed for randomK adopters")
		stubsBT     = fs.Bool("stubs-break-ties", true, "stubs running simplex S*BGP break ties on security")
		projectStub = fs.Bool("project-stubs", false, "projection bundles the ISP's simplex stub upgrades")
		workers     = fs.Int("workers", 0, "logical shard count (0 = GOMAXPROCS; pin for cross-machine reproducibility)")
		maxRounds   = fs.Int("max-rounds", 0, "round cap (0 = default)")
		cacheBytes  = fs.Int64("cache-bytes", 0, "budget in bytes of each resident cache tier: statics, sidecars and dynamic records (0 = default 1 GiB; 1 = cache nothing)")
		staticStore = fs.String("static-store", "", "persist packed static snapshots under this directory so reruns skip the static BFS (bit-identical results)")
		stats       = fs.Bool("stats", false, "print per-round engine statistics")
		quiet       = fs.Bool("q", false, "summary only")
		resultJSON  = fs.String("result-json", "", "write the full Result (with utilities) as JSON to this file")
		distWorkers = fs.Int("dist-workers", 0, "distribute over this many local worker processes (fork-exec over stdio pipes)")
		distConnect = fs.String("dist-connect", "", "distribute over TCP workers at these comma-separated addresses")
		distListen  = fs.String("dist-listen", "", "run as a TCP worker listening on this address (serves coordinators forever)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file at exit")
		traceFile   = fs.String("trace", "", "write a runtime execution trace to this file (view with go tool trace)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *distListen != "" {
		fmt.Fprintf(stderr, "sbgpsim: worker listening on %s\n", *distListen)
		return fail(dist.ListenAndServe(*distListen))
	}
	// Workers and MaxRounds are checked by the simulation itself.
	switch {
	case *x < 0 || *x >= 1:
		return fail(fmt.Errorf("CP traffic fraction -x %v outside [0,1)", *x))
	case *distWorkers < 0:
		return fail(fmt.Errorf("negative -dist-workers %d", *distWorkers))
	}

	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
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
	if *augment != 0 {
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
		CacheBytes:          *cacheBytes,
		StaticStoreDir:      *staticStore,
		RecordStats:         *stats,
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
		fmt.Fprintf(stdout, "graph: %d ASes (%d ISPs, %d stubs, %d CPs); adopters: %d\n",
			g.N(), len(g.ISPs()), len(g.Stubs()), len(g.CPs()), len(adopters))
		fmt.Fprintf(stdout, "initial: %d secure ASes\n", res.Initial.SecureASes)
		if res.PristineStats != nil {
			fmt.Fprintf(stdout, "  pristine engine: %s\n", res.PristineStats)
		}
		newA, newI := res.NewPerRound()
		for r := range newA {
			fmt.Fprintf(stdout, "round %3d: +%d ASes (+%d ISPs), total %d secure\n",
				r+1, newA[r], newI[r], res.Rounds[r].After.SecureASes)
			if st := res.Rounds[r].Stats; st != nil {
				fmt.Fprintf(stdout, "  engine: %s\n", st)
			}
		}
	}
	fmt.Fprint(stdout, res.Summary(g))

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
