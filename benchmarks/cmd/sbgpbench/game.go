package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"time"

	"sbgp/internal/adopters"
	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
	"sbgp/internal/topogen"
)

// cpFraction is the paper's base-case share of traffic the content
// providers originate (x = 0.10), as cmd/sbgpsim sets it.
const cpFraction = 0.10

// buildGraph generates a workload's topology. The simulator receives
// only this graph; the seed never reaches it otherwise.
func buildGraph(n int, seed int64) (*asgraph.Graph, error) {
	g, err := topogen.Generate(topogen.Default(n, seed))
	if err != nil {
		return nil, fmt.Errorf("generating N=%d topology: %w", n, err)
	}
	g.SetCPTrafficFraction(cpFraction)
	return g, nil
}

func tiebreaker(seed int64) routing.Tiebreaker { return routing.HashTiebreaker{Seed: uint64(seed)} }

// gameConfig is the paper's case study as `sbgpsim -seed <instance>
// -workers 2` plays it: θ=0.05, CPs plus the top five ISPs adopt early,
// stubs break ties. Workers is pinned so the logical shard count — and
// with it every Result bit — does not depend on the machine.
func gameConfig(g *asgraph.Graph, w workloadSpec, seed int64, storeDir string) (sim.Config, error) {
	early, err := adopters.Parse(g, "cps+top5", 1)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{
		Model:          sim.Outgoing,
		Theta:          0.05,
		EarlyAdopters:  early,
		StubsBreakTies: true,
		Tiebreaker:     tiebreaker(seed),
		Workers:        2,
	}
	if w.Incoming {
		cfg.Model = sim.Incoming
	}
	if w.Store {
		cfg.StaticStoreDir = storeDir
	}
	return cfg, nil
}

// gameRun is one played game.
type gameRun struct {
	newS, wallS, cpuS float64
	res               *sim.Result
	sim               *sim.Sim
}

// playGame times one sim.New + RunE, under spans when tr is non-nil. A
// panic in the engine comes back as an error so the operation counts as
// failed instead of killing the run.
func playGame(tr *tracer, g *asgraph.Graph, cfg sim.Config) (run gameRun, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("game panicked: %v\n%s", r, debug.Stack())
		}
	}()
	root := tr.begin(0, "sim", "game")
	defer root.end()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	sp := tr.begin(root.id(), "sim", "New")
	s, err := sim.New(g, cfg)
	sp.end()
	if err != nil {
		return run, err
	}
	run.newS = time.Since(t0).Seconds()
	sp = tr.begin(root.id(), "sim", "RunE")
	res, err := s.RunE()
	sp.end()
	if err != nil {
		return run, err
	}
	run.wallS = time.Since(t0).Seconds()
	run.cpuS = cpuSeconds() - cpu0
	run.res, run.sim = res, s
	return run, nil
}

// playOp plays one game as a counted operation of the phase: an error, a
// panic, or a result digest other than the phase's first fails it.
func (r *childResult) playOp(label string, tr *tracer, g *asgraph.Graph, cfg sim.Config) (gameRun, bool) {
	r.Attempted++
	run, err := playGame(tr, g, cfg)
	if err == nil {
		var d string
		if d, err = resultDigest(run.res); err == nil && !r.sameDigest(d) {
			err = fmt.Errorf("result_digest %s differs from the phase's first, %s", d, r.Digest)
		}
	}
	if err != nil {
		r.fail("%s: %v", label, err)
		return run, false
	}
	return run, true
}

// freshStart puts the process where a new one would start the next
// operation: freed heap returned to the OS and, with a store, the disk
// tier closed, so the operation reopens it from its index snapshot and
// mmaps rather than reusing the previous one's open instance. Callers
// keep it outside every timed section.
func freshStart(store bool) {
	settle()
	if store {
		routing.CloseSharedDiskStores()
	}
}

// stripStats removes the per-round instrumentation from res and returns
// the function that puts it back: with it gone, the wire bytes of a
// traced game (RecordStats on) are those of an untraced one.
func stripStats(res *sim.Result) (restore func()) {
	pristine := res.PristineStats
	rounds := make([]*sim.RoundStats, len(res.Rounds))
	res.PristineStats = nil
	for i := range res.Rounds {
		rounds[i], res.Rounds[i].Stats = res.Rounds[i].Stats, nil
	}
	return func() {
		res.PristineStats = pristine
		for i := range res.Rounds {
			res.Rounds[i].Stats = rounds[i]
		}
	}
}

// resultDigest is the SHA-256 of the Result's wire bytes, instrumentation
// stripped.
func resultDigest(res *sim.Result) (string, error) {
	defer stripStats(res)()
	var buf bytes.Buffer
	if err := sim.WriteResult(&buf, res); err != nil {
		return "", fmt.Errorf("serializing result: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// destRounds is the Appendix C unit of work a game performed: one
// routing-tree pass per destination for the pristine baseline plus one
// per round.
func destRounds(n int, res *sim.Result) int64 {
	return int64(n) * int64(len(res.Rounds)+1)
}

// timedGames is the untraced timed section of a game workload: games
// back to back, each starting when the previous one returned, until
// sp.Seconds have passed and at least sp.MinOps games are in.
func timedGames(sp childSpec, w workloadSpec) (childResult, error) {
	var out childResult
	g, err := buildGraph(sp.N, sp.InstanceSeed)
	if err != nil {
		return out, err
	}
	cfg, err := gameConfig(g, w, sp.InstanceSeed, sp.StoreDir)
	if err != nil {
		return out, err
	}
	start := time.Now()
	for i := 0; !sp.done(i, start); i++ {
		freshStart(w.Store)
		run, ok := out.playOp(fmt.Sprintf("game %d", i), nil, g, cfg)
		if !ok {
			continue
		}
		out.Rounds = len(run.res.Rounds)
		out.Ops = append(out.Ops, opSample{WallS: run.wallS, CPUS: run.cpuS, DestRounds: destRounds(sp.N, run.res)})
	}
	freshStart(w.Store)
	return out, nil
}

// populateStore is the diskwarm workload's set-up: one untimed game that
// writes every static through to a fresh store. It runs in a process of
// its own, so the write path's memory stays out of the timed child's
// high-water mark.
func populateStore(sp childSpec, w workloadSpec) (childResult, error) {
	var out childResult
	g, err := buildGraph(sp.N, sp.InstanceSeed)
	if err != nil {
		return out, err
	}
	cfg, err := gameConfig(g, w, sp.InstanceSeed, sp.StoreDir)
	if err != nil {
		return out, err
	}
	run, err := playGame(nil, g, cfg)
	if err != nil {
		return out, err
	}
	routing.CloseSharedDiskStores()
	out.Digest, err = resultDigest(run.res)
	return out, err
}
