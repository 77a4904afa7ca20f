package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

func testGraphKey() GraphKey {
	return GraphKey{N: 60, Seed: 3, X: 0.10, Variant: variantBase}
}

func testSimConfig(seed int64) sim.Config {
	return sim.Config{
		Model:          sim.Outgoing,
		Theta:          0.05,
		EarlyAdopters:  []int32{0, 1, 2},
		StubsBreakTies: true,
		Tiebreaker:     routing.HashTiebreaker{Seed: uint64(seed)},
	}
}

func TestStoreGraphMemoization(t *testing.T) {
	s, err := NewStore("", 1)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := s.Graph(testGraphKey())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Graph(testGraphKey())
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatalf("same key returned distinct graph instances")
	}
	other := testGraphKey()
	other.X = 0.20
	g3, err := s.Graph(other)
	if err != nil {
		t.Fatal(err)
	}
	if g3 == g1 {
		t.Fatalf("different x returned the same graph instance")
	}
}

func TestStoreSimSingleflight(t *testing.T) {
	s, err := NewStore("", 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph(testGraphKey())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSimConfig(3)

	const callers = 8
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := s.Sim(g, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	requests, execs := s.Stats()
	if requests != callers {
		t.Fatalf("requests = %d, want %d", requests, callers)
	}
	if execs != 1 {
		t.Fatalf("execs = %d, want 1 (singleflight)", execs)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different Result instance", i)
		}
	}

	// Instrumentation-only config changes hit the same entry.
	cfg2 := cfg
	cfg2.Workers = 1
	cfg2.RecordStats = true
	if _, run, err := s.Sim(g, cfg2); err != nil || !run.Cached {
		t.Fatalf("instrumentation-only variant missed the cache (cached=%v err=%v)", run.Cached, err)
	}
	// Trajectory changes do not.
	cfg3 := cfg
	cfg3.Theta = 0.5
	if _, run, err := s.Sim(g, cfg3); err != nil || run.Cached {
		t.Fatalf("distinct θ unexpectedly hit the cache (cached=%v err=%v)", run.Cached, err)
	}
}

// TestStoreSharesStaticsAcrossWeights: the store hands every graph
// instance its own handle, and graphs of one topology handles over one
// statics core — so the second x variant's pristine pass runs no static
// BFS — while a graph of another topology (the augmented one) gets a
// core of its own.
func TestStoreSharesStaticsAcrossWeights(t *testing.T) {
	s, err := NewStore("", 1)
	if err != nil {
		t.Fatal(err)
	}
	key := testGraphKey()
	gA, err := s.Graph(key)
	if err != nil {
		t.Fatal(err)
	}
	key.X = 0.33
	gB, err := s.Graph(key)
	if err != nil {
		t.Fatal(err)
	}
	key.Variant = variantAug
	gAug, err := s.Graph(key)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testSimConfig(3)
	if s.sharedStatics(gA, cfg) == s.sharedStatics(gB, cfg) {
		t.Fatal("two weight variants got one handle: their sidecars would mix")
	}

	pristine := func(g *asgraph.Graph) *sim.RoundStats {
		t.Helper()
		res, _, err := s.Sim(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.PristineStats
	}
	if ps := pristine(gA); ps.StaticMisses == 0 {
		t.Fatal("the first simulation found its statics already published")
	}
	if ps := pristine(gB); ps.StaticMisses != 0 || ps.StaticHits == 0 {
		t.Errorf("x=0.33 variant: pristine pass hit %d and missed %d statics, want only hits", ps.StaticHits, ps.StaticMisses)
	}
	if ps := pristine(gAug); ps.StaticMisses == 0 {
		t.Error("the augmented graph was served statics of the base topology")
	}
}

func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := testSimConfig(3)

	s1, err := NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := s1.Graph(testGraphKey())
	if err != nil {
		t.Fatal(err)
	}
	res1, run1, err := s1.Sim(g1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run1.Cached {
		t.Fatalf("first execution reported cached")
	}

	// A second store over the same directory must reload both artifacts
	// rather than recompute.
	s2, err := NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s2.Graph(testGraphKey())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderOrDie(t, g2), renderOrDie(t, g1); string(got) != string(want) {
		t.Fatalf("reloaded graph differs from generated graph")
	}
	res2, run2, err := s2.Sim(g2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !run2.Cached {
		t.Fatalf("second store re-executed a persisted simulation")
	}
	if run2.Key != run1.Key {
		t.Fatalf("cache keys differ across stores: %s vs %s", run2.Key, run1.Key)
	}
	b1, err := renderResult(res1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := renderResult(res2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("reloaded result is not byte-identical to the executed one")
	}
	if _, execs := s2.Stats(); execs != 0 {
		t.Fatalf("second store executed %d sims, want 0", execs)
	}
}

func TestStoreCorruptCacheRecomputes(t *testing.T) {
	dir := t.TempDir()
	cfg := testSimConfig(3)

	s1, err := NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s1.Graph(testGraphKey())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Sim(g, cfg); err != nil {
		t.Fatal(err)
	}

	// Corrupt every persisted artifact.
	for _, sub := range []string{"graphs", "sims"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			t.Fatalf("no %s cache entries persisted", sub)
		}
		for _, e := range entries {
			if err := os.WriteFile(filepath.Join(dir, sub, e.Name()), []byte("garbage\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	s2, err := NewStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s2.Graph(testGraphKey())
	if err != nil {
		t.Fatalf("corrupt graph cache was not recomputed: %v", err)
	}
	if got, want := renderOrDie(t, g2), renderOrDie(t, g); string(got) != string(want) {
		t.Fatalf("recomputed graph differs from original")
	}
	if _, run, err := s2.Sim(g2, cfg); err != nil {
		t.Fatalf("corrupt sim cache was not recomputed: %v", err)
	} else if run.Cached {
		t.Fatalf("corrupt sim cache entry was served as a hit")
	}
}

// TestStoreRecomputesOutOfRangeResult: a cached simulation that parses
// but lists a node outside its graph is recomputed rather than served to
// a renderer that indexes by it (fig7 rebuilds each round's secure
// bitmap from the Deployed lists), and the report is the golden one.
func TestStoreRecomputesOutOfRangeResult(t *testing.T) {
	outDir := t.TempDir()
	batch := BatchOptions{Options: goldenOptions(), IDs: []string{"fig7"}, OutDir: outDir}
	if _, err := RunBatch(batch); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(outDir, "cache", "sims")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no sims cache entries persisted (%v)", err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.ReadResult(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		res.Rounds[0].Deployed = append(res.Rounds[0].Deployed, int32(len(res.FinalSecure)))
		var buf bytes.Buffer
		if err := sim.WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	batch.Force = true
	statuses, err := RunBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	st := statuses[0]
	if st.Err != nil {
		t.Fatalf("fig7 over the corrupted cache: %v", st.Err)
	}
	if st.SimExecs == 0 {
		t.Error("the corrupted entries were served, not recomputed")
	}
	if !bytes.Equal(st.Report, readGolden(t, "fig7")) {
		t.Error("fig7 over the corrupted cache differs from golden")
	}
}

func renderOrDie(t *testing.T, g *asgraph.Graph) []byte {
	t.Helper()
	data, err := renderGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
