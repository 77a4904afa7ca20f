package sim

import (
	"fmt"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

// DeriveBreaks derives the SecP tie-break flags from a secure bitmap the
// way the simulator does: secure ISPs and CPs always break ties on
// security, secure stubs only when stubsBreakTies (Section 6.7).
func DeriveBreaks(g *asgraph.Graph, secure []bool, stubsBreakTies bool) []bool {
	breaks := make([]bool, len(secure))
	for i, s := range secure {
		if s {
			breaks[i] = !g.IsStub(int32(i)) || stubsBreakTies
		}
	}
	return breaks
}

// stateFrom builds a deployState from a secure bitmap, deriving the SecP
// flags: secure ISPs and CPs always break ties, secure stubs only when
// stubsBreakTies.
func stateFrom(g *asgraph.Graph, secure []bool, stubsBreakTies bool) *deployState {
	st := newDeployState(g.N())
	for i, s := range secure {
		if s {
			st.set(g, int32(i), stubsBreakTies)
		}
	}
	return st
}

// checkBitmap rejects a secure bitmap that does not cover g's nodes. The
// helpers below run it (and checkNode) before anything indexes the
// bitmap or builds an engine.
func checkBitmap(g *asgraph.Graph, secure []bool) error {
	if len(secure) != g.N() {
		return fmt.Errorf("sim: secure bitmap has %d entries for %d ASes", len(secure), g.N())
	}
	return nil
}

// checkNode rejects a node index outside g.
func checkNode(g *asgraph.Graph, n int32) error {
	if n < 0 || int(n) >= g.N() {
		return fmt.Errorf("sim: node %d out of range", n)
	}
	return nil
}

// Utilities computes every ISP's utility in an arbitrary deployment
// state under cfg's utility model. Entries for non-ISPs are zero.
// It is exported for analyses outside the round loop (gadget studies,
// turn-off scans, figure harnesses).
func Utilities(g *asgraph.Graph, secure []bool, cfg Config) ([]float64, error) {
	if err := checkBitmap(g, secure); err != nil {
		return nil, err
	}
	s, err := New(g, cfg)
	if err != nil {
		return nil, err
	}
	st := stateFrom(g, secure, s.cfg.StubsBreakTies)
	uBase, _, _, err := s.computeRound(st, nil)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), uBase...), nil
}

// RoundUtilities computes one round of the utility engine in an
// arbitrary state: every ISP's base utility and — when projected is set
// — the projected utility of every candidate under the configured
// model's candidate rule (uProj[i] = uBase[i] for non-candidates).
// stats is non-nil only when Config.RecordStats is set.
//
// The returned slices are owned by the Sim and overwritten by its next
// round computation; like all Sim methods it must not be called
// concurrently.
func (s *Sim) RoundUtilities(secure []bool, projected bool) (uBase, uProj []float64, stats *RoundStats, err error) {
	if err := checkBitmap(s.g, secure); err != nil {
		return nil, nil, nil, err
	}
	if s.scratch == nil {
		s.scratch = newDeployState(s.g.N())
	}
	st := s.scratch
	for i, sec := range secure {
		if sec {
			st.set(s.g, int32(i), s.cfg.StubsBreakTies)
		} else {
			st.unset(int32(i))
		}
	}
	var cand []bool
	if projected {
		cand = s.candidates(st)
	}
	return s.computeRound(st, cand)
}

// EvaluateFlip returns ISP n's utility in the given state and its
// projected utility in the state where n alone flips its deployment
// action — the two sides of update rule (3).
func EvaluateFlip(g *asgraph.Graph, secure []bool, cfg Config, n int32) (base, proj float64, err error) {
	if err := checkBitmap(g, secure); err != nil {
		return 0, 0, err
	}
	if err := checkNode(g, n); err != nil {
		return 0, 0, err
	}
	s, err := New(g, cfg)
	if err != nil {
		return 0, 0, err
	}
	st := stateFrom(g, secure, s.cfg.StubsBreakTies)
	cand := make([]bool, g.N())
	cand[n] = true
	uBase, uProj, _, err := s.computeRound(st, cand)
	if err != nil {
		return 0, 0, err
	}
	return uBase[n], uProj[n], nil
}

// EvaluateFlipPerDest decomposes EvaluateFlip by destination: it returns
// node n's per-destination utility contributions in the current state
// and in the flipped state — the one-node case of ScanFlips.
func EvaluateFlipPerDest(g *asgraph.Graph, secure []bool, cfg Config, n int32) (base, proj []float64, err error) {
	base = make([]float64, g.N())
	proj = make([]float64, g.N())
	err = ScanFlips(g, secure, cfg, []int32{n}, func(d int32, rows []FlipRow) {
		for _, r := range rows {
			base[d], proj[d] = r.Base, r.Proj
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return base, proj, nil
}

// FlipRow is one scanned node's utility contribution toward one
// destination: Base in the scanned state, Proj in the state where Node
// alone flips its deployment action (with its insecure stub customers
// under ProjectStubUpgrades, as flipSetFor bundles them).
type FlipRow struct {
	Node       int32
	Base, Proj float64
}

// scanAhead is how many finished destinations a scan worker may queue
// before the fold catches up.
const scanAhead = 4

// ScanFlips evaluates, for every node in nodes and every destination,
// the two sides of update rule (3) decomposed by destination — the
// Section 7.3 turn-off analysis, and any other per-state all-pairs flip
// study. It is destination-major (Appendix C.3): each destination's
// static routing information (built routing.BatchWidth destinations at
// a time by routing.Workspace.Sweep), base resolution and base
// accumulation are paid once and every scanned node is read off them,
// with the engine's per-candidate ladder (see project) deciding which
// pairs need a projected tree at all.
//
// fold is called once per destination, in ascending destination order,
// on the calling goroutine, with that destination's rows in nodes
// order; rows is reused after fold returns. Pairs whose contribution is
// identically zero in every deployment state (the engine's zero-utility
// rule) are omitted — both sides are +0.0, and adding +0.0 to a sum that
// never holds -0.0 is the identity, so a caller summing rows gets the
// same float as one summing all pairs. Destinations are striped over
// cfg.Workers goroutines (d ≡ w mod W, as the engine does); because
// fold's call order is fixed, whatever it accumulates is bit-identical
// at any worker count.
func ScanFlips(g *asgraph.Graph, secure []bool, cfg Config, nodes []int32, fold func(d int32, rows []FlipRow)) error {
	if err := checkBitmap(g, secure); err != nil {
		return err
	}
	for _, c := range nodes {
		if err := checkNode(g, c); err != nil {
			return err
		}
	}
	n := g.N()
	cfg = cfg.withDefaults()
	if err := cfg.validate(n); err != nil {
		return err
	}
	st := stateFrom(g, secure, cfg.StubsBreakTies)
	weights := make([]float64, n)
	for i := int32(0); i < int32(n); i++ {
		weights[i] = g.Weight(i)
	}

	nw := cfg.Shards(n)
	outs := make([]chan []FlipRow, nw)
	free := make(chan []FlipRow, nw*(scanAhead+2))
	for w := range outs {
		outs[w] = make(chan []FlipRow, scanAhead)
		go func(w int) {
			wk := newWorker(g, n)
			var stripe []int32
			for d := int32(w); d < int32(n); d += int32(nw) {
				stripe = append(stripe, d)
			}
			wk.ws.Sweep(stripe, cfg.Tiebreaker, func(stc *routing.Static) {
				var rows []FlipRow
				select {
				case rows = <-free:
				default:
				}
				outs[w] <- wk.scanDest(stc, st, &cfg, weights, nodes, rows[:0])
			})
		}(w)
	}
	for d := int32(0); d < int32(n); d++ {
		rows := <-outs[int(d)%nw]
		fold(d, rows)
		select {
		case free <- rows:
		default:
		}
	}
	return nil
}

// scanDest appends to rows one FlipRow per scanned node for the
// destination of stc, its PrepareDest static built in wk.ws. The base
// side is one ResolveInto and one accumulate for the whole destination.
// The projected side is the engine's per-candidate ladder (project), and
// only a projection that actually moves a parent pays accumulateAt over
// the node's own subtree; every other pair has proj == base, because an
// identically-routed tree accumulates to the same bits. Unlike
// processDest's deltaAt, accumulateAt is bit-identical to a full
// accumulate + contribution over the projected tree, so every row
// equals what resolving the explicitly flipped state would give.
func (wk *worker) scanDest(stc *routing.Static, st *deployState, cfg *Config, weights []float64, nodes []int32, rows []FlipRow) []FlipRow {
	tree := &wk.baseTree
	wk.ws.ResolveInto(tree, stc, st.secure, st.breaks, nil, nil, cfg.Tiebreaker)
	accumulate(stc, tree, weights, wk.accBase, wk.incBase)
	pj := projection{stc: stc, tree: tree}
	for _, c := range nodes {
		moved, ok := wk.project(&pj, st, cfg, c)
		if !ok {
			continue
		}
		base := wk.contribution(cfg.Model, stc, wk.accBase, wk.incBase, weights, c)
		proj := base
		if moved != nil {
			proj = wk.accumulateAt(cfg.Model, stc, &wk.projTree, weights, c, moved)
			wk.ws.RevertFlips(&wk.projTree)
		}
		rows = append(rows, FlipRow{Node: c, Base: base, Proj: proj})
	}
	return rows
}
