package sim

import (
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
// the first leaf of a class (p, secure, breaks) is its *filler*: its
// own rung runs for it and records in the memo every addend it adds.
// Every later sibling is *replayed*: the memo added verbatim, p's entry
// re-folded over the filler's child list with the two leaves swapped. A
// pure performance layer, pinned by TestLeafSiblingSymmetry and the tier
// lattice.

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
	stamp  uint64 // leafClasses.stamp of the plan that named its filler
	prov   int32  // the class's provider
	filler int32
	base   []contribEntry // nonzero uBase contributions, ascending node, p's excluded
	delta  []contribEntry // nonzero uDelta contributions, candidate order
	kids   []leafKid      // p's children in the filler's base tree, ascending node; empty until filled
}

// leafClasses is a worker's share of the tier: its shard's leaves that
// have a sibling in the shard and the stamped per-class memos of the
// current compute call.
type leafClasses struct {
	prov  []int32 // provider of each replayable leaf of this shard, else -1
	memos map[classKey]*classMemo
	stamp uint64
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

// memo returns the memo of class key, made on first use.
func (lc *leafClasses) memo(key classKey) *classMemo {
	m := lc.memos[key]
	if m == nil {
		m = &classMemo{prov: key.prov}
		lc.memos[key] = m
	}
	return m
}

// addBase records base contributions its filler adds, minus the
// provider's, which every sibling re-folds. A nil memo — the destination
// fills no class — records nothing.
func (m *classMemo) addBase(entries []contribEntry) {
	if m == nil {
		return
	}
	for _, e := range entries {
		if e.node != m.prov {
			m.base = append(m.base, e)
		}
	}
}

// addDelta records candidate c's projected delta v its filler adds.
func (m *classMemo) addDelta(c int32, v float64) {
	if m != nil && v != 0 {
		m.delta = append(m.delta, contribEntry{c, v})
	}
}

// appendKids is processDest's capture at its accumulation site when d
// fills its class: it appends the provider's children in d's base tree
// to kids. The destination's only neighbor is p, so order[0] is p and
// its children are exactly the run that follows — the whole Len-2 block.
func appendKids(kids []leafKid, s *routing.Static, t *routing.Tree, acc []float64) []leafKid {
	order := s.Order()
	for k := 1; k < len(order) && t.Parent[order[k]] == order[0]; k++ {
		i := order[k]
		kids = append(kids, leafKid{i, s.Type[i] == routing.ProviderRoute, acc[i]})
	}
	return kids
}

// fillClass serves d through processDest, which accumulates d's base
// tree even when d's record could replay it, captures the provider's
// child list into the memo there, and records in the memo each addend
// it adds: the nonzero base contributions (ascending node) and candidate
// deltas (candidate order) a sibling replays. Every index takes one +=
// per destination, so the memo holds the addends themselves.
func (wk *worker) fillClass(d int32, rc *roundCtx, pl *destPlan) {
	m := pl.memo
	m.base, m.delta, m.filler = m.base[:0], m.delta[:0], d
	wk.processDest(d, rc, pl)
}

// replayClass serves leaf d from its class memo, and keeps the durable
// side effects of the path it skipped: its own sidecar when the plan
// says one is wanted (so later rounds, Runs and processes replay d
// without the class) and, with a disk tier attached, its blob, spliced
// from the filler's (routing.SpliceLeafBlob) — never built, so no BFS
// and no pack. Without the filler's blob on disk d waits for a miss.
func (wk *worker) replayClass(d int32, rc *roundCtx, pl *destPlan) {
	m, p := pl.memo, wk.classes.prov[d]
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
	wk.stats.ClassReplays++

	if pl.recordSC {
		// The memo's entries with p's merged in at its place in the
		// ascending node order (vp is zeroed once placed).
		wk.contribs = wk.contribs[:0]
		for _, e := range m.base {
			if vp != 0 && p < e.node {
				wk.contribs, vp = append(wk.contribs, contribEntry{p, vp}), 0
			}
			wk.contribs = append(wk.contribs, e)
		}
		if vp != 0 {
			wk.contribs = append(wk.contribs, contribEntry{p, vp})
		}
		wk.storeSidecar(uint8(rc.cfg.Model), d, wk.contribs)
	}
	if wk.disk == nil || wk.disk.Has(d) {
		return
	}
	if fb := wk.disk.LookupInto(m.filler, &wk.diskBuf); fb != nil {
		b, ok := routing.SpliceLeafBlob(wk.spliceBuf[:0], fb, g, m.filler, d, p)
		if wk.spliceBuf = b; ok && wk.disk.Put(d, b) {
			wk.stats.StaticDiskWrites++
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
