package dist

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"strconv"
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/sim"
	"sbgp/internal/topogen"
)

// TestMain makes this test binary its own worker pool: when
// NewLocalCoordinator fork-execs os.Executable() — this binary — the
// child lands here, MaybeRunWorker serves the session on stdio and
// exits before any test runs.
func TestMain(m *testing.M) {
	MaybeRunWorker()
	os.Exit(m.Run())
}

func testGraph(tb testing.TB, n int, seed int64) (*asgraph.Graph, []int32) {
	tb.Helper()
	g := topogen.MustGenerate(topogen.Default(n, seed))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	return g, adopters
}

// serialize renders a Result in the canonical wire form with per-round
// stats stripped: wall-clock numbers legitimately differ between runs,
// everything else must be byte-identical.
func serialize(tb testing.TB, res *sim.Result) []byte {
	tb.Helper()
	res.PristineStats = nil
	for i := range res.Rounds {
		res.Rounds[i].Stats = nil
	}
	var buf bytes.Buffer
	if err := sim.WriteResult(&buf, res); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// runLocal runs the simulation in-process.
func runLocal(tb testing.TB, g *asgraph.Graph, cfg sim.Config) *sim.Result {
	tb.Helper()
	res, err := sim.MustNew(g, cfg).RunE()
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// runDist runs the simulation over procs fork-exec'd worker processes.
func runDist(tb testing.TB, g *asgraph.Graph, cfg sim.Config, procs int, extraEnv ...string) (*sim.Result, error) {
	tb.Helper()
	coord, err := NewLocalCoordinator(g, cfg, procs, Options{}, extraEnv...)
	if err != nil {
		tb.Fatal(err)
	}
	defer coord.Close()
	cfg.Executor = coord
	return sim.MustNew(g, cfg).RunE()
}

// TestDistMatchesInProcess is the core bit-identity claim: for every
// utility model and stub tie-break mode, a run distributed over 2
// worker processes serializes byte-identically to the in-process run
// with the same logical shard count — recorded utilities included, to
// the last float bit.
func TestDistMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	g, adopters := testGraph(t, 500, 11)
	for _, model := range []sim.UtilityModel{sim.Outgoing, sim.Incoming} {
		for _, sbt := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v_stubsbreak=%t", model, sbt), func(t *testing.T) {
				cfg := sim.Config{
					Model:           model,
					Theta:           0.05,
					EarlyAdopters:   adopters,
					StubsBreakTies:  sbt,
					Workers:         4, // pins the logical shard count
					RecordUtilities: true,
				}
				want := serialize(t, runLocal(t, g, cfg))
				res, err := runDist(t, g, cfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				got := serialize(t, res)
				if !bytes.Equal(got, want) {
					t.Fatalf("distributed result differs from in-process (%d vs %d bytes)", len(got), len(want))
				}
			})
		}
	}
}

// TestDistWorkerCounts: the process count is pure placement — 1, 2,
// and 3 processes over 4 logical shards (3 leaves one process with two
// shards, and more processes than shards leaves one idle) all
// serialize byte-identically.
func TestDistWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	g, adopters := testGraph(t, 300, 5)
	cfg := sim.Config{
		Theta:           0.05,
		EarlyAdopters:   adopters,
		StubsBreakTies:  true,
		Workers:         4,
		RecordUtilities: true,
	}
	want := serialize(t, runLocal(t, g, cfg))
	for _, procs := range []int{1, 3, 5} {
		res, err := runDist(t, g, cfg, procs)
		if err != nil {
			t.Fatalf("%d procs: %v", procs, err)
		}
		if got := serialize(t, res); !bytes.Equal(got, want) {
			t.Fatalf("%d procs: result differs from in-process", procs)
		}
	}
}

// TestDistWorkerDeath kills worker process 1 as it receives round
// sequence 3 (simulation round 2), mid-run: the coordinator must
// reassign its shards to the survivor, replay them from the committed
// snapshot, report the reassignment in the round stats, and still
// produce the byte-identical Result.
func TestDistWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	g, adopters := testGraph(t, 500, 11)
	cfg := sim.Config{
		Theta:           0.05,
		EarlyAdopters:   adopters,
		StubsBreakTies:  true,
		Workers:         4,
		RecordUtilities: true,
	}
	ref := runLocal(t, g, cfg)
	if len(ref.Rounds) < 2 {
		t.Fatalf("test scenario too small: only %d rounds, the kill at round 2 never triggers", len(ref.Rounds))
	}
	want := serialize(t, ref)

	cfg.RecordStats = true // to observe the reassignment counters
	const dieSeq = 3       // seq 1 = pristine pass, seq 2 = round 1, seq 3 = round 2
	res, err := runDist(t, g, cfg, 2,
		envDieBeforeSeq+"="+strconv.Itoa(dieSeq),
		envDieWorker+"=1",
	)
	if err != nil {
		t.Fatal(err)
	}
	var reassigned, lost int
	for _, rd := range res.Rounds {
		if rd.Stats != nil {
			reassigned += rd.Stats.ShardsReassigned
			lost += rd.Stats.WorkersLost
		}
	}
	if lost != 1 {
		t.Errorf("WorkersLost = %d, want 1", lost)
	}
	if reassigned != 2 {
		t.Errorf("ShardsReassigned = %d, want 2 (worker 1 owned shards 1 and 3 of 4)", reassigned)
	}
	if got := serialize(t, res); !bytes.Equal(got, want) {
		t.Fatalf("result after mid-run worker death differs from in-process")
	}
}

// TestDistAllWorkersDead: when every worker dies the run must fail
// with an error, not hang or panic.
func TestDistAllWorkersDead(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	g, adopters := testGraph(t, 100, 3)
	cfg := sim.Config{Theta: 0.05, EarlyAdopters: adopters, Workers: 2}
	_, err := runDist(t, g, cfg, 1,
		envDieBeforeSeq+"=2",
		envDieWorker+"=0",
	)
	if err == nil {
		t.Fatal("run with every worker dead reported success")
	}
}

// pipeWorkers serves one in-process worker session per opts entry over
// a synchronous in-memory pipe, so the coordinator/worker protocol runs
// under the race detector without forking; opts carries each worker's
// fault-injection hooks.
func pipeWorkers(t *testing.T, opts ...serveOpts) []Conn {
	t.Helper()
	conns := make([]Conn, len(opts))
	for i, o := range opts {
		a, b := net.Pipe()
		go func() { _ = serveConn(b, o); b.Close() }()
		conns[i] = a
	}
	return conns
}

// TestPipeWorkers runs the full protocol over synchronous in-memory
// pipes: exercises coordinator and worker concurrently in one process,
// where `go test -race` can see both sides.
func TestPipeWorkers(t *testing.T) {
	g, adopters := testGraph(t, 300, 5)
	cfg := sim.Config{
		Theta:           0.05,
		EarlyAdopters:   adopters,
		Workers:         4,
		RecordUtilities: true,
	}
	want := serialize(t, runLocal(t, g, cfg))
	coord, err := NewCoordinator(g, cfg, pipeWorkers(t, serveOpts{}, serveOpts{}), Options{RoundTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cfg.Executor = coord
	res, err := sim.MustNew(g, cfg).RunE()
	if err != nil {
		t.Fatal(err)
	}
	if got := serialize(t, res); !bytes.Equal(got, want) {
		t.Fatal("pipe-transport result differs from in-process")
	}
}

// TestPipeStaticStoreStats: each worker's engine reports its resident
// static store in the partials it returns, so a distributed run's round
// stats count the statics every process holds — as many as the
// in-process run at the same shard count, where one engine holds them
// all. Stats are instrumentation, never bits, so only this catches an
// engine that stops reporting.
func TestPipeStaticStoreStats(t *testing.T) {
	g, adopters := testGraph(t, 300, 5)
	cfg := sim.Config{
		Theta:         0.05,
		EarlyAdopters: adopters,
		Workers:       4,
		RecordStats:   true,
	}
	ref := runLocal(t, g, cfg)
	coord, err := NewCoordinator(g, cfg, pipeWorkers(t, serveOpts{}, serveOpts{}), Options{RoundTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cfg.Executor = coord
	res, err := sim.MustNew(g, cfg).RunE()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != len(ref.Rounds) || len(res.Rounds) == 0 {
		t.Fatalf("%d rounds distributed, %d in-process", len(res.Rounds), len(ref.Rounds))
	}
	check := func(pass string, got, want *sim.RoundStats) {
		if got.StaticCacheEntries == 0 || got.StaticCacheEntries != want.StaticCacheEntries {
			t.Errorf("%s: %d static entries distributed, %d in-process; want equal and nonzero",
				pass, got.StaticCacheEntries, want.StaticCacheEntries)
		}
	}
	check("pristine pass", res.PristineStats, ref.PristineStats)
	for r := range res.Rounds {
		check(fmt.Sprintf("round %d", r+1), res.Rounds[r].Stats, ref.Rounds[r].Stats)
	}
}

// TestPipeIdleWorkerRevived: with more processes than shards (K=5 over
// S=4) worker 4 owns nothing after the handshake, so every broadcast
// skips it. Workers 0–2 die as they receive round sequence 3; their
// shards 0–2 go round-robin to the survivors 3 and 4, so the idle
// worker adopts shard 1 and must replay it for a round it never
// received, from the committed snapshot alone. Nothing else may die,
// and the Result must stay byte-identical.
func TestPipeIdleWorkerRevived(t *testing.T) {
	g, adopters := testGraph(t, 500, 11)
	cfg := sim.Config{
		Theta:           0.05,
		EarlyAdopters:   adopters,
		StubsBreakTies:  true,
		Workers:         4,
		RecordUtilities: true,
	}
	ref := runLocal(t, g, cfg)
	if len(ref.Rounds) < 2 {
		t.Fatalf("test scenario too small: only %d rounds, the kill at round 2 never triggers", len(ref.Rounds))
	}
	want := serialize(t, ref)

	die := serveOpts{dieBeforeSeq: 3} // seq 1 = pristine pass, seq 3 = round 2
	coord, err := NewCoordinator(g, cfg, pipeWorkers(t, die, die, die, serveOpts{}, serveOpts{}), Options{RoundTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if idle := coord.workers[4].shards; len(idle) != 0 {
		t.Fatalf("worker 4 owns shards %v after the handshake, want none", idle)
	}
	cfg.RecordStats = true
	cfg.Executor = coord
	res, err := sim.MustNew(g, cfg).RunE()
	if err != nil {
		t.Fatal(err)
	}
	var reassigned, lost int
	for _, rd := range res.Rounds {
		if rd.Stats != nil {
			reassigned += rd.Stats.ShardsReassigned
			lost += rd.Stats.WorkersLost
		}
	}
	if lost != 3 {
		t.Errorf("WorkersLost = %d, want 3", lost)
	}
	if reassigned != 3 {
		t.Errorf("ShardsReassigned = %d, want 3", reassigned)
	}
	if got := coord.workers[4].shards; len(got) != 1 || got[0] != 1 {
		t.Errorf("worker 4 owns shards %v, want [1]", got)
	}
	if got := serialize(t, res); !bytes.Equal(got, want) {
		t.Fatal("result after reviving an idle worker differs from in-process")
	}
}

// TestWorkerRejectsBadCandidates speaks the raw protocol to one worker
// session: a hello, then a round frame whose candidate list is out of
// range or not strictly ascending. The worker must answer with an error
// frame and end the session — not panic indexing its per-node marks,
// and not sum a repeated candidate's delta twice.
func TestWorkerRejectsBadCandidates(t *testing.T) {
	g, _ := testGraph(t, 50, 1)
	n := int32(g.N())
	cfgw, err := encodeConfig(sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var gw bytes.Buffer
	if err := asgraph.Write(&gw, g); err != nil {
		t.Fatal(err)
	}
	hi := encodeHello(&hello{N: int(n), TotalShards: 1, Shards: []int{0}, Config: cfgw, Graph: gw.Bytes()})
	for name, cands := range map[string][]int32{
		"too large":  {1, n},
		"negative":   {-1, 2},
		"repeated":   {3, 3},
		"descending": {5, 2},
	} {
		t.Run(name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			// done receives the session's outcome before b closes, so a
			// read that fails on the closed pipe can report it.
			done := make(chan error, 1)
			go func() {
				defer b.Close()
				defer func() {
					if r := recover(); r != nil {
						done <- fmt.Errorf("worker panicked: %v", r)
					}
				}()
				done <- serveConn(b, serveOpts{})
			}()
			// next returns the worker's next frame other than a heartbeat.
			next := func() []byte {
				t.Helper()
				for {
					p, err := readFrame(a, nil)
					if err != nil {
						t.Fatalf("reading from worker: %v (session ended with: %v)", err, <-done)
					}
					if p[0] != frameHeartbeat {
						return p
					}
				}
			}
			if err := writeFrame(a, hi); err != nil {
				t.Fatal(err)
			}
			if p := next(); p[0] != frameHelloAck {
				t.Fatalf("handshake answered with frame type %d", p[0])
			}
			if err := writeFrame(a, encodeRound(&roundMsg{Seq: 1, Cands: cands})); err != nil {
				t.Fatal(err)
			}
			p := next()
			if p[0] != frameError {
				t.Fatalf("candidates %v answered with frame type %d, want an error frame", cands, p[0])
			}
			msg, _ := decodeError(p)
			a.Close()
			if err := <-done; err == nil || err.Error() != msg {
				t.Fatalf("session ended with %v, want the reported error %q", err, msg)
			}
		})
	}
}

// TestCoordinatorRejectsEmpty covers constructor validation.
func TestCoordinatorRejectsEmpty(t *testing.T) {
	g, _ := testGraph(t, 50, 1)
	if _, err := NewCoordinator(g, sim.Config{}, nil, Options{}); err == nil {
		t.Fatal("coordinator with no workers accepted")
	}
	if _, err := NewLocalCoordinator(g, sim.Config{}, 0, Options{}); err == nil {
		t.Fatal("coordinator with 0 processes accepted")
	}
}

// TestTCPCoordinatorTimeout: startup against workers that cannot
// answer must fail within the configured timeout, not hang. Three
// shapes: a blackhole address (the dial itself must be bounded), a
// connection-refused address, and a listener that accepts but never
// speaks the protocol (the handshake read must be bounded).
func TestTCPCoordinatorTimeout(t *testing.T) {
	g, adopters := testGraph(t, 50, 1)
	cfg := sim.Config{Theta: 0.05, EarlyAdopters: adopters, Workers: 2}
	opts := Options{RoundTimeout: 500 * time.Millisecond}

	check := func(name, addr string) {
		start := time.Now()
		_, err := NewTCPCoordinator(g, cfg, []string{addr}, opts)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatalf("%s: coordinator startup succeeded against %s", name, addr)
		}
		if elapsed > 10*time.Second {
			t.Fatalf("%s: startup failed only after %v, want within the configured timeout", name, elapsed)
		}
	}

	// TEST-NET-1 is reserved and unrouted: without a dial timeout this
	// blocks for the kernel's SYN-retry budget (minutes).
	check("blackhole", "192.0.2.1:9")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	check("refused", refused)

	silent, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	go func() {
		for {
			c, err := silent.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold the connection open, never answer
		}
	}()
	check("silent", silent.Addr().String())
}
