package experiments

import (
	"bytes"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/dist"
	"sbgp/internal/sim"
)

// TestMain lets this test binary serve as its own distributed worker
// pool: Store.Sim with DistWorkers set fork-execs os.Executable(),
// which is this binary, and the child must land in MaybeRunWorker.
func TestMain(m *testing.M) {
	dist.MaybeRunWorker()
	os.Exit(m.Run())
}

// TestStoreSimDistWorkers: a store executing simulations over worker
// processes serves the byte-identical Result an in-process store
// produces for the same request, so the dist knob never pollutes the
// shared artifact cache.
func TestStoreSimDistWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	local, err := NewStore("", 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := local.Graph(GraphKey{N: 200, Seed: 7, X: 0.10, Variant: variantBase})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSimConfig(7)
	cfg.Workers = 2 // pin the logical shard count on both sides
	want, _, err := local.Sim(g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	distStore, err := NewStore("", 2)
	if err != nil {
		t.Fatal(err)
	}
	distStore.DistWorkers = 2
	got, run, err := distStore.Sim(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.Cached {
		t.Fatal("fresh store reported a cached result")
	}
	if !resultBytesEqual(t, got, want) {
		t.Fatal("distributed store result differs from in-process store result")
	}
}

func resultBytesEqual(t *testing.T, a, b *sim.Result) bool {
	t.Helper()
	return bytes.Equal(resultBytes(t, a), resultBytes(t, b))
}

func resultBytes(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	// Stats carry wall-clock timings that legitimately differ run to
	// run; strip them (on a copy of the rounds) before comparing.
	cp := *res
	cp.PristineStats = nil
	cp.Rounds = append([]sim.Round(nil), res.Rounds...)
	for i := range cp.Rounds {
		cp.Rounds[i].Stats = nil
	}
	var buf bytes.Buffer
	if err := sim.WriteResult(&buf, &cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistCoordinatorsWaitForBudget: a distributed simulation takes its
// worker-budget claim before it starts its worker processes, so a
// simulation that waits for slots holds none. Four simulations of two
// workers each, asked for at once of a two-slot budget, run one at a
// time, and so must their coordinators.
func TestDistCoordinatorsWaitForBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	var live, peak atomic.Int32
	start := startCoordinator
	defer func() { startCoordinator = start }()
	startCoordinator = func(g *asgraph.Graph, cfg sim.Config, procs int) (executor, error) {
		n := live.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		ex, err := start(g, cfg, procs)
		if err != nil {
			live.Add(-1)
			return nil, err
		}
		return countedExecutor{ex, &live}, nil
	}

	store, err := NewStore("", 2)
	if err != nil {
		t.Fatal(err)
	}
	store.DistWorkers = 2
	g, err := store.Graph(GraphKey{N: 200, Seed: 7, X: 0.10, Variant: variantBase})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		cfg := testSimConfig(7)
		cfg.Workers = 2
		cfg.Theta = 0.05 * float64(i+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = store.Sim(g, cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p != 1 {
		t.Errorf("%d coordinators lived at once under a budget that runs one simulation at a time", p)
	}
}

// countedExecutor is an executor whose Close counts it out of live.
type countedExecutor struct {
	executor
	live *atomic.Int32
}

func (c countedExecutor) Close() error {
	err := c.executor.Close()
	c.live.Add(-1)
	return err
}
