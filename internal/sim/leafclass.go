package sim

import (
	"math"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

// Sibling-leaf destination classes (DESIGN.md §5k). A leaf is a stub
// with exactly one provider p and no peer. Two leaves d, d' of one p with
// equal deployment flags are exchanged by a graph automorphism that
// fixes the deployment state, and the tie-break Less(node, a, b) never
// sees a destination — so everything the engine computes for d' is what
// it computed for d, except p's own base contribution, which counts the
// other leaf among p's children. Within one shard and one compute call
// the first leaf of a class (p, secure, breaks) is its *filler*: the
// unchanged processDest runs for it into zeroed scratch accumulators,
// whose nonzeros are memoized. Every later sibling is *replayed*: the
// memo added verbatim, p's entry re-folded over the filler's child list
// with the two leaves swapped. A pure performance layer, pinned by
// TestLeafSiblingSymmetry and the tier lattice.

// leafProviders returns, per node, the provider of a leaf and -1 for
// every other node. Built once per graph by NewShardEngine.
func leafProviders(g *asgraph.Graph) []int32 {
	out := make([]int32, g.N())
	for d := range out {
		out[d] = -1
		if i := int32(d); g.IsStub(i) && len(g.Providers(i)) == 1 && len(g.Peers(i)) == 0 {
			out[d] = g.Providers(i)[0]
		}
	}
	return out
}

// leafKid is one child of the provider in the filler's base tree: its
// subtree weight and whether it enters p over a customer edge.
type leafKid struct {
	node int32
	prov bool
	acc  float64
}

type classKey struct { // a class within one shard
	prov           int32
	secure, breaks bool
}

// classMemo is what one filler left for its siblings this round.
type classMemo struct {
	stamp  uint64 // leafClasses.stamp it was filled under
	filler int32
	base   []contribEntry // nonzero uBase contributions, ascending node, p's excluded
	delta  []contribEntry // nonzero uDelta contributions, candidate order
	kids   []leafKid      // p's children in the filler's base tree, ascending node
}

// leafClasses is a worker's share of the tier: its shard's leaves that
// have a sibling in the shard, the stamped per-class memos of the current
// compute call, and the zeroed scratch accumulators a filler runs into.
type leafClasses struct {
	prov      []int32 // provider of each replayable leaf of this shard, else -1
	memos     map[classKey]*classMemo
	stamp     uint64
	base      []float64 // scratch uBase / uDelta: all-zero between fillers
	delta     []float64
	capturing bool   // the running processDest is a filler's: fill wk.kids
	onFill    func() // test hook: runs after every filler
}

// newLeafClasses builds the tier for the shard striping d ≡ shard (mod
// total). A leaf whose provider has no other leaf in the stripe has
// nobody to share with and stays on the plain path.
func newLeafClasses(leafProv []int32, shard, total int) *leafClasses {
	n := len(leafProv)
	count := make([]int32, n)
	for d := shard; d < n; d += total {
		if p := leafProv[d]; p >= 0 {
			count[p]++
		}
	}
	lc := &leafClasses{
		prov:  make([]int32, n),
		memos: make(map[classKey]*classMemo),
		stamp: 1, // a fresh memo's zero stamp is never current
		base:  make([]float64, n),
		delta: make([]float64, n),
	}
	for d := range lc.prov {
		lc.prov[d] = -1
	}
	for d := shard; d < n; d += total {
		if p := leafProv[d]; p >= 0 && count[p] >= 2 {
			lc.prov[d] = p
		}
	}
	return lc
}

// captureKids and captureStreamKids are processDest's two capture hooks,
// one per accumulation site: while a filler runs they record the
// provider's children in wk.kids (empty at all other times, so the copy
// processDest keeps beside rec.base is a filler's list or none). The
// destination's only neighbor is p, so order[0] is p and its children are
// exactly the run that follows — the whole Len-2 block.
func (wk *worker) captureKids(s *routing.Static, t *routing.Tree) {
	if wk.classes == nil || !wk.classes.capturing {
		return
	}
	order := s.Order()
	for k := 1; k < len(order) && t.Parent[order[k]] == order[0]; k++ {
		i := order[k]
		wk.kids = append(wk.kids, leafKid{i, s.Type[i] == routing.ProviderRoute, wk.accBase[i]})
	}
}

func (wk *worker) captureStreamKids(sr *routing.StreamStatic) {
	if wk.classes == nil || !wk.classes.capturing {
		return
	}
	order, parents, types := sr.Order(), sr.Parents(), sr.Types()
	for k := 1; k < len(order) && parents[k] == order[0]; k++ {
		wk.kids = append(wk.kids, leafKid{order[k], types[k] == routing.ProviderRoute, wk.accBase[order[k]]})
	}
}

// serveDest is the per-destination entry of the serving ladder. Leaves
// with a sibling take the class rung; everything else is processDest.
func (wk *worker) serveDest(d int32, rc *roundCtx) {
	lc := wk.classes
	if lc == nil || lc.prov[d] < 0 {
		wk.processDest(d, rc)
		return
	}
	p, st := lc.prov[d], rc.st
	key := classKey{p, st.secure[d], st.breaks[d]}
	m := lc.memos[key]
	if m == nil {
		m = &classMemo{}
		lc.memos[key] = m
	}
	valid := m.stamp == lc.stamp
	if wk.dyn.get(d) != nil {
		// A record must be advanced every round: it keeps the record
		// path, as the filler if the class still needs one.
		if valid {
			wk.processDest(d, rc)
			return
		}
	} else {
		// An insecure untouchable leaf replays its own sidecar first, as
		// without the tier — no memo needed, none consumed.
		if !st.secure[d] && (len(rc.candList) == 0 || wk.destUntouchable(d, rc)) && wk.replaySidecar(d, rc) {
			return
		}
		if valid {
			wk.replayClass(d, p, m, rc)
			return
		}
	}
	wk.fillClass(d, p, m, rc)
}

// fillClass runs the unchanged processDest for d — whichever tier
// serves it — with the worker's accumulators swapped for the zeroed
// scratch pair, then moves the nonzeros into the real accumulators and
// the class memo. processDest adds to each index at most once per
// destination, so scratch holds the addends themselves and adding them
// on is the float operation the direct path performs. A path that
// accumulated nothing and has no recorded child list leaves the memo
// invalid; the next sibling fills it.
func (wk *worker) fillClass(d, p int32, m *classMemo, rc *roundCtx) {
	lc := wk.classes
	uBase, uDelta := wk.uBase, wk.uDelta
	wk.uBase, wk.uDelta = lc.base, lc.delta
	lc.capturing = true
	wk.processDest(d, rc)
	lc.capturing = false
	wk.uBase, wk.uDelta = uBase, uDelta

	m.base, m.delta = m.base[:0], m.delta[:0]
	for _, i := range wk.isps {
		if v := lc.base[i]; v != 0 {
			lc.base[i] = 0
			uBase[i] += v
			if i != p {
				m.base = append(m.base, contribEntry{i, v})
			}
		}
	}
	for _, c := range rc.candList {
		if v := lc.delta[c]; v != 0 {
			lc.delta[c] = 0
			uDelta[c] += v
			m.delta = append(m.delta, contribEntry{c, v})
		}
	}
	kids := wk.kids
	if rec := wk.dyn.get(d); len(kids) == 0 && rec != nil {
		kids = rec.kids // a clean or baseValid replay: the list recorded with rec.base
	}
	if len(kids) > 0 {
		m.kids = append(m.kids[:0], kids...)
		m.filler, m.stamp = d, lc.stamp
	}
	wk.kids = wk.kids[:0]
	if lc.onFill != nil {
		lc.onFill()
	}
}

// replayClass serves leaf d from its class memo, and keeps the durable
// side effects of the path it skipped: its own sidecar when one is
// wanted (so later rounds, Runs and processes replay d without the
// class) and, with a disk tier attached, its blob — the store stays
// complete for every destination, at the price of the BFS once.
func (wk *worker) replayClass(d, p int32, m *classMemo, rc *roundCtx) {
	for _, e := range m.base {
		wk.uBase[e.node] += e.val
	}
	for _, e := range m.delta {
		wk.uDelta[e.node] += e.val
	}
	g := wk.ws.Graph()
	var vp float64
	if g.IsISP(p) {
		vp = foldLeaf(rc.cfg.Model, m.kids, rc.weights[p], d, m.filler, rc.weights[m.filler])
		wk.uBase[p] += vp
	}
	wk.stats.classReplays++

	if kind := uint8(rc.cfg.Model); !rc.st.secure[d] && wk.sidecarWanted(kind, d) {
		// The memo's entries with p's merged in at its place in the
		// ascending node order (vp is zeroed once placed).
		entry := func(i int32, v float64) routing.SidecarEntry {
			return routing.SidecarEntry{Node: i, Bits: math.Float64bits(v)}
		}
		wk.scEntries = wk.scEntries[:0]
		for _, e := range m.base {
			if vp != 0 && p < e.node {
				wk.scEntries, vp = append(wk.scEntries, entry(p, vp)), 0
			}
			wk.scEntries = append(wk.scEntries, entry(e.node, e.val))
		}
		if vp != 0 {
			wk.scEntries = append(wk.scEntries, entry(p, vp))
		}
		wk.storeSidecar(kind, d, g.N())
	}
	if wk.disk != nil && !wk.disk.Has(d) {
		if wk.statics != nil {
			wk.stats.staticMisses++ // a BFS ran, counted as fetchStatic counts it
		}
		if wk.disk.PutStatic(wk.ws.PrepareDest(d, rc.cfg.Tiebreaker)) {
			wk.stats.staticDiskWrites++
		}
	}
}

// foldLeaf returns provider p's base contribution toward leaf self from
// p's children in sibling filler's tree: the same children with self
// removed and the filler (a provider-route leaf of weight wf) inserted.
// All sit at Len 2, where order position ascends with node id, so
// accumulate's reverse pass reaches them in descending id — the fold is
// that float sequence: acc[p] from w[p], inc[p] from 0, a child at a time.
func foldLeaf(model UtilityModel, kids []leafKid, wp float64, self, filler int32, wf float64) float64 {
	acc, inc := wp, 0.0
	placed := false
	for k := len(kids) - 1; k >= 0; k-- {
		c := kids[k]
		if !placed && filler > c.node {
			acc += wf
			inc += wf
			placed = true
		}
		if c.node == self {
			continue
		}
		acc += c.acc
		if c.prov {
			inc += c.acc
		}
	}
	if !placed {
		acc += wf
		inc += wf
	}
	if model == Outgoing {
		return acc - wp
	}
	return inc
}
