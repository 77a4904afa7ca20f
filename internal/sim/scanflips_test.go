package sim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// naiveFlipMatrix is the reference ScanFlips is anchored to. For every
// (node, destination) pair it resolves the given state and the
// *explicitly flipped* state — a fresh bitmap with the node toggled
// (and, under ProjectStubUpgrades, a deploying node's insecure stub
// customers turned on), turned into a deployState by stateFrom — with a
// full generic-path ResolveInto and a full accumulate. No skip rule, no
// predictor, no change propagation, no winners fast path: nothing it
// shares with the scan beyond the resolver's decision procedure and
// the accumulation loop. base[k][d] and proj[k][d] index nodes[k].
func naiveFlipMatrix(g *asgraph.Graph, secure []bool, cfg Config, nodes []int32) (base, proj [][]float64) {
	cfg = cfg.withDefaults()
	n := g.N()
	weights := make([]float64, n)
	for i := int32(0); i < int32(n); i++ {
		weights[i] = g.Weight(i)
	}
	st := stateFrom(g, secure, cfg.StubsBreakTies)
	flipped := make([]*deployState, len(nodes))
	for k, c := range nodes {
		bm := append([]bool(nil), secure...)
		bm[c] = !secure[c]
		if cfg.ProjectStubUpgrades && !secure[c] {
			for _, s := range g.Customers(c) {
				if g.IsStub(s) {
					bm[s] = true
				}
			}
		}
		flipped[k] = stateFrom(g, bm, cfg.StubsBreakTies)
	}
	base = make([][]float64, len(nodes))
	proj = make([][]float64, len(nodes))
	for k := range nodes {
		base[k] = make([]float64, n)
		proj[k] = make([]float64, n)
	}
	wk := newWorker(g, n)
	var tree routing.Tree
	for d := int32(0); d < int32(n); d++ {
		stc := wk.ws.ComputeStatic(d)
		tree.Clear(n)
		wk.ws.ResolveInto(&tree, stc, st.secure, st.breaks, nil, nil, cfg.Tiebreaker)
		accumulate(stc, &tree, weights, wk.accBase, wk.incBase)
		for k, c := range nodes {
			base[k][d] = wk.contribution(cfg.Model, stc, wk.accBase, wk.incBase, weights, c)
		}
		for k, c := range nodes {
			fs := flipped[k]
			wk.ws.ResolveInto(&tree, stc, fs.secure, fs.breaks, nil, nil, cfg.Tiebreaker)
			accumulate(stc, &tree, weights, wk.accProj, wk.incProj)
			proj[k][d] = wk.contribution(cfg.Model, stc, wk.accProj, wk.incProj, weights, c)
		}
	}
	return base, proj
}

// scanFixture is a partial deployment on a synthetic graph: the state a
// θ=30% outgoing run stops in, which leaves ISPs on both sides — so a
// scan over all of them projects turn-on and turn-off flips alike. The
// scanned set adds the content providers and a few stubs (secure and
// insecure) to every ISP, because EvaluateFlipPerDest accepts any node.
func scanFixture(t *testing.T) (g *asgraph.Graph, secure []bool, nodes []int32) {
	t.Helper()
	g = topogen.MustGenerate(topogen.Default(400, 11))
	g.SetCPTrafficFraction(0.10)
	res := MustNew(g, Config{
		Model:          Outgoing,
		Theta:          0.30,
		EarlyAdopters:  append(g.CPs(), asgraph.TopByDegree(g, 5, asgraph.ISP)...),
		StubsBreakTies: true,
	}).Run()
	secure = res.FinalSecure
	on, off := 0, 0
	for _, i := range g.ISPs() {
		if secure[i] {
			on++
		} else {
			off++
		}
	}
	if on < 5 || off < 5 {
		t.Fatalf("fixture state has %d secure and %d insecure ISPs; want a mix", on, off)
	}
	nodes = append(nodes, g.ISPs()...)
	nodes = append(nodes, g.CPs()...)
	var secStubs, insecStubs int
	for _, s := range g.Stubs() {
		if secure[s] && secStubs < 4 {
			secStubs++
			nodes = append(nodes, s)
		} else if !secure[s] && insecStubs < 4 {
			insecStubs++
			nodes = append(nodes, s)
		}
	}
	return g, secure, nodes
}

// TestScanFlipsMatchesNaiveReference: every (node, destination) row the
// scan emits — and every pair it omits, which must be 0/0 — is
// bit-equal to resolving the explicitly flipped state from scratch,
// across the configuration axes that change the flip set or the
// utility, at worker counts that do and do not divide the stripes
// evenly.
func TestScanFlipsMatchesNaiveReference(t *testing.T) {
	g, secure, nodes := scanFixture(t)
	n := g.N()
	slot := make(map[int32]int, len(nodes))
	for k, c := range nodes {
		slot[c] = k
	}
	for _, model := range []UtilityModel{Outgoing, Incoming} {
		for _, sbt := range []bool{true, false} {
			for _, psu := range []bool{false, true} {
				cfg := Config{Model: model, StubsBreakTies: sbt, ProjectStubUpgrades: psu,
					Tiebreaker: routing.HashTiebreaker{Seed: 5}}
				wantBase, wantProj := naiveFlipMatrix(g, secure, cfg, nodes)
				moved := 0
				for k := range nodes {
					for d := 0; d < n; d++ {
						if wantBase[k][d] != wantProj[k][d] {
							moved++
						}
					}
				}
				if moved == 0 {
					t.Errorf("%v sbt=%v psu=%v: no flip changes any contribution; the fixture exercises nothing", model, sbt, psu)
				}
				for _, workers := range []int{1, 2, 5} {
					cfg.Workers = workers
					name := fmt.Sprintf("%v/sbt=%v/psu=%v/workers=%d", model, sbt, psu, workers)
					gotBase := make([][]float64, len(nodes))
					gotProj := make([][]float64, len(nodes))
					for k := range nodes {
						gotBase[k] = make([]float64, n)
						gotProj[k] = make([]float64, n)
					}
					next := int32(0)
					err := ScanFlips(g, secure, cfg, nodes, func(d int32, rows []FlipRow) {
						if d != next {
							t.Fatalf("%s: fold called for destination %d, want %d", name, d, next)
						}
						next++
						last := -1
						for _, r := range rows {
							k := slot[r.Node]
							if k <= last {
								t.Fatalf("%s: destination %d rows out of nodes order", name, d)
							}
							last = k
							gotBase[k][d], gotProj[k][d] = r.Base, r.Proj
						}
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if int(next) != n {
						t.Fatalf("%s: fold saw %d destinations, want %d", name, next, n)
					}
					bad := 0
					for k, c := range nodes {
						for d := 0; d < n; d++ {
							if math.Float64bits(gotBase[k][d]) != math.Float64bits(wantBase[k][d]) ||
								math.Float64bits(gotProj[k][d]) != math.Float64bits(wantProj[k][d]) {
								if bad++; bad <= 5 {
									t.Errorf("%s: node %d (%v, secure=%v) dest %d: scan (%v, %v), reference (%v, %v)",
										name, c, g.Class(c), secure[c], d,
										gotBase[k][d], gotProj[k][d], wantBase[k][d], wantProj[k][d])
								}
							}
						}
					}
					if bad > 5 {
						t.Errorf("%s: %d pairs differ in all", name, bad)
					}
				}
			}
		}
	}
}

// TestEvaluateFlipPerDestIsOneNodeScan: the per-node entry point returns
// the reference's row for that node, zero-filled where the scan omits a
// pair.
func TestEvaluateFlipPerDestIsOneNodeScan(t *testing.T) {
	g, secure, _ := scanFixture(t)
	cfg := Config{Model: Incoming, StubsBreakTies: true, Tiebreaker: routing.HashTiebreaker{Seed: 5}}
	nodes := asgraph.TopByDegree(g, 3, asgraph.ISP)
	wantBase, wantProj := naiveFlipMatrix(g, secure, cfg, nodes)
	for k, c := range nodes {
		base, proj, err := EvaluateFlipPerDest(g, secure, cfg, c)
		if err != nil {
			t.Fatal(err)
		}
		for d := range base {
			if math.Float64bits(base[d]) != math.Float64bits(wantBase[k][d]) ||
				math.Float64bits(proj[d]) != math.Float64bits(wantProj[k][d]) {
				t.Fatalf("node %d dest %d: got (%v, %v), reference (%v, %v)",
					c, d, base[d], proj[d], wantBase[k][d], wantProj[k][d])
			}
		}
	}
}

// TestFlipHelpersValidateBeforeIndexing: a bitmap of the wrong length or
// a node outside the graph is an error from every flip entry point —
// before anything indexes the bitmap or builds an engine.
func TestFlipHelpersValidateBeforeIndexing(t *testing.T) {
	g := diamondGraph(t)
	n := g.N()
	noFold := func(int32, []FlipRow) { t.Error("fold called despite invalid input") }
	for _, tc := range []struct {
		name   string
		secure []bool
		node   int32
	}{
		{"short bitmap", make([]bool, n-1), 0},
		{"empty bitmap", nil, 0},
		{"long bitmap", make([]bool, n+3), 0},
		{"negative node", make([]bool, n), -1},
		{"node past the end", make([]bool, n), int32(n)},
	} {
		// Building an engine would create the static store directory.
		dir := filepath.Join(t.TempDir(), "statics")
		cfg := Config{StaticStoreDir: dir}
		if _, _, err := EvaluateFlip(g, tc.secure, cfg, tc.node); err == nil {
			t.Errorf("%s accepted by EvaluateFlip", tc.name)
		}
		if _, _, err := EvaluateFlipPerDest(g, tc.secure, cfg, tc.node); err == nil {
			t.Errorf("%s accepted by EvaluateFlipPerDest", tc.name)
		}
		if err := ScanFlips(g, tc.secure, cfg, []int32{tc.node}, noFold); err == nil {
			t.Errorf("%s accepted by ScanFlips", tc.name)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%s: an engine was built before the input was rejected", tc.name)
		}
	}
	// The scan applies New's configuration checks without an engine.
	ok := make([]bool, n)
	for name, cfg := range map[string]Config{
		"negative θ":            {Theta: -1},
		"jitter above 1":        {ThetaJitter: 2},
		"early adopter outside": {EarlyAdopters: []int32{99}},
	} {
		if err := ScanFlips(g, ok, cfg, []int32{0}, noFold); err == nil {
			t.Errorf("%s accepted by ScanFlips", name)
		}
	}
}
