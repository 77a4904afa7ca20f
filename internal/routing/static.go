// Package routing computes BGP routes over an AS graph under the standard
// Gao-Rexford policy model used by the paper (Appendix A):
//
//	LP   prefer customer routes over peer routes over provider routes,
//	SP   among those, prefer shortest,
//	SecP if the deciding AS is secure, prefer fully-secure paths,
//	TB   break remaining ties deterministically on the next hop.
//
// Export follows GR2: an AS announces a route to a neighbor only if the
// neighbor or the route's next hop is its customer (so only customer
// routes propagate to peers and providers; customers receive everything).
//
// The implementation follows the paper's Appendix C. Observation C.1
// notes that the local-preference class and the path length of every
// node's best route are independent of which ASes have deployed S*BGP, so
// they are computed once per destination (Static, a three-stage BFS in
// O(V+E)); the security-dependent choice among the equally-good next hops
// (the "tiebreak set") is then resolved per deployment state by an O(t·V)
// pass (Resolve, the paper's "fast routing tree algorithm").
package routing

import (
	"slices"

	"sbgp/internal/asgraph"
)

// RouteType is the local-preference class of a node's best route.
type RouteType uint8

const (
	// NoRoute means the destination is unreachable under GR policies.
	NoRoute RouteType = iota
	// SelfRoute marks the destination node itself.
	SelfRoute
	// CustomerRoute: the next hop is a customer.
	CustomerRoute
	// PeerRoute: the next hop is a peer.
	PeerRoute
	// ProviderRoute: the next hop is a provider.
	ProviderRoute
)

// String returns a short name for the route type.
func (t RouteType) String() string {
	switch t {
	case NoRoute:
		return "none"
	case SelfRoute:
		return "self"
	case CustomerRoute:
		return "customer"
	case PeerRoute:
		return "peer"
	case ProviderRoute:
		return "provider"
	default:
		return "invalid"
	}
}

// Static holds the state-independent routing information for one
// destination (Observation C.1): every node's best-route class, length,
// and tiebreak set (the equally-good next hops among which the security
// criterion and the final tie-break choose).
type Static struct {
	Dest int32
	// Type[i] is the local-preference class of node i's best route.
	Type []RouteType
	// Len[i] is the AS-path length (hops) of node i's best route;
	// 0 for the destination, -1 when Type[i] == NoRoute.
	Len []int32
	// Tiebreak sets in CSR form, indexed by order position: row k =
	// tbAdj[tbOff[k]:tbOff[k+1]] lists the next hops of node order[k]'s
	// equally-good best routes. Every member b of node i's set satisfies
	// Len[b] == Len[i]-1. Position indexing keeps the offsets array
	// O(reachable) — a node-indexed CSR would force an O(N) rebuild per
	// destination even for tiny reachable sets.
	tbOff []int32
	tbAdj []int32
	// order lists all reachable nodes except the destination in
	// ascending Len (ascending node id within a length), the processing
	// order for Resolve.
	order []int32
	// pos[i] is node i's index in order (-1 for the destination and
	// unreachable nodes), used by change propagation to schedule
	// re-decisions in order and by Tiebreak to find a node's CSR row.
	pos []int32
	// win, when non-nil, holds the state-independent tiebreak winner of
	// every reachable node's tiebreak set (filled by PrepareDest).
	win []int32
	// Delta-resolution dependents index, present once deltaReady
	// (PrepareDelta): the transpose of the tiebreak adjacency,
	// revAdj[revOff[b]:revOff[b+1]] listing the nodes whose tiebreak set
	// contains b. Optional — ApplyFlips derives the rows from the graph
	// without it. Like everything else in a Static it depends only on
	// (graph, destination), so it lives here — not in the Workspace — and
	// snapshots carry it across rounds.
	revOff     []int32
	revAdj     []int32
	deltaReady bool
	// provParents, when provReady, memoizes ProviderParents; provBits is
	// the same set as a node-indexed bitset (built with the list).
	provParents []int32
	provBits    []uint64
	provReady   bool
	// supOut/supIn memoize the per-model utility support lists
	// (SupportOutgoing / SupportIncoming).
	supOut      []int32
	supOutReady bool
	supIn       []int32
	supInReady  bool
}

// Tiebreak returns the tiebreak set of node i: the next hops of all of
// i's equally-good best routes. It is empty for the destination and
// unreachable nodes. The slice aliases internal storage.
func (s *Static) Tiebreak(i int32) []int32 {
	p := s.pos[i]
	if p < 0 {
		return nil
	}
	return s.tbAdj[s.tbOff[p]:s.tbOff[p+1]]
}

// Order returns all reachable nodes except the destination in ascending
// best-route length. The slice aliases internal storage.
func (s *Static) Order() []int32 { return s.order }

// ProviderParents returns every node listed in the tiebreak set of some
// node whose best route is provider-class: the only nodes that can ever
// receive traffic over a customer edge for this destination, in any
// deployment state (parents are always drawn from tiebreak sets). The
// list is state-independent, computed on first call and memoized; it
// may contain duplicates. The slice aliases internal storage.
func (s *Static) ProviderParents() []int32 {
	if !s.provReady {
		s.provParents = s.provParents[:0]
		nw := (len(s.Type) + 63) / 64
		if cap(s.provBits) < nw {
			s.provBits = make([]uint64, nw)
		}
		s.provBits = s.provBits[:nw]
		for i := range s.provBits {
			s.provBits[i] = 0
		}
		for k, i := range s.order {
			if s.Type[i] == ProviderRoute {
				for _, b := range s.tbAdj[s.tbOff[k]:s.tbOff[k+1]] {
					s.provParents = append(s.provParents, b)
					s.provBits[b>>6] |= 1 << uint(b&63)
				}
			}
		}
		s.provReady = true
	}
	return s.provParents
}

// IsProviderParent reports whether node i appears in the tiebreak set of
// some node with a provider-class best route — the state-independent
// test for whether i can ever receive traffic over a customer edge for
// this destination (its incoming-model contribution is identically zero
// otherwise).
func (s *Static) IsProviderParent(i int32) bool {
	if !s.provReady {
		s.ProviderParents()
	}
	return s.provBits[i>>6]&(1<<uint(i&63)) != 0
}

// SupportOutgoing filters list (ascending node ids, typically the
// graph's ISP index) down to the members whose outgoing-model utility
// contribution (Eq. 1) can be nonzero for this destination: those whose
// best route is customer-class, a state-independent property
// (Observation C.1). Memoized on first call; every later call must pass
// the same list. The result aliases internal storage and preserves the
// ascending order of list.
func (s *Static) SupportOutgoing(list []int32) []int32 {
	if !s.supOutReady {
		s.supOut = s.supOut[:0]
		for _, i := range list {
			if s.Type[i] == CustomerRoute {
				s.supOut = append(s.supOut, i)
			}
		}
		s.supOutReady = true
	}
	return s.supOut
}

// SupportIncoming filters list (ascending node ids, typically the
// graph's ISP index) down to the members whose incoming-model utility
// contribution (Eq. 2) can be nonzero for this destination: the
// provider parents, the only nodes that can receive traffic over a
// customer edge in any deployment state. Memoized on first call; every
// later call must pass the same list. The result aliases internal
// storage and preserves the ascending order of list.
func (s *Static) SupportIncoming(list []int32) []int32 {
	if !s.supInReady {
		if !s.provReady {
			s.ProviderParents()
		}
		s.supIn = s.supIn[:0]
		for _, i := range list {
			if s.provBits[i>>6]&(1<<uint(i&63)) != 0 {
				s.supIn = append(s.supIn, i)
			}
		}
		s.supInReady = true
	}
	return s.supIn
}

// Pos returns node i's index in Order(), or -1 for the destination and
// unreachable nodes.
func (s *Static) Pos(i int32) int32 { return s.pos[i] }

// HasWinners reports whether s carries precomputed plain-TB winners
// (built by PrepareDest, not ComputeStatic). Unflipped resolutions
// against such a Static take ResolveInto's self-sufficient fast path,
// which needs no Tree.Clear when switching destinations.
func (s *Static) HasWinners() bool { return s.win != nil }

// Finalize-path overrides for differential tests (see computeStatic).
const (
	finalizeAuto = iota
	finalizeDense
	finalizeSparse
)

// Workspace holds reusable scratch buffers so that per-destination
// computations do not allocate. A Workspace may be used by one goroutine
// at a time; create one per worker.
type Workspace struct {
	g *asgraph.Graph

	static Static

	// scratch for ComputeStatic, all flat (struct-of-arrays): the
	// stage-1 BFS queue (kept as the customer-routed settled list), the
	// stage-2 claim list, the packed stage-3 claim list (whose level
	// segments double as the relaxation frontier — no separate frontier
	// slices), a counting-sort level index over path lengths (lvlOff,
	// sized n+2 once — path lengths never exceed n-1, so it is never
	// regrown), the per-level claim boundaries (lvlEnds), and the packed
	// sort keys of the sparse finalize path.
	queue    []int32
	peerQ    []int32
	provKeys []int64
	lvlOff   []int32
	lvlEnds  []int32
	keys     []int64

	// reach is a node-indexed claimed bitset, the hot-loop form of
	// "Type != NoRoute" for the current destination: at 1 bit per node it
	// stays L1-resident at any graph size, where the Type byte array the
	// claim tests would otherwise read does not. lvl8 packs Len+1 into a
	// byte (0 = unreachable, 255 = saturated), the equally cache-compact
	// form of Len for the tiebreak-CSR equality tests; rows fall back to
	// Len when any path is long enough to saturate. Both are maintained
	// under the same cleared-outside-the-reachable-set invariant as
	// Type/Len.
	reach []uint64
	lvl8  []uint8
	// neg1 is a constant all:-1 template, so dense un-marking of the
	// int32 arrays runs at memmove speed instead of a scalar fill loop.
	neg1 []int32

	// forceFinalize pins computeStatic's finalize path (dense scan vs
	// sparse sort) for differential tests; zero picks by reachable size.
	forceFinalize int

	// scratch for Resolve
	tree       Tree
	secScratch []bool
	brkScratch []bool
	winBuf     []int32

	// scratch for delta resolution (PrepareDelta / ApplyFlips):
	// counting-sort cursor, pending-position bitset and undo log. The
	// dependents index itself lives on the Static being resolved.
	revCur []int32
	pend   []uint64
	undo   []undoEntry

	// scratch for the batched projection predictor (PrepareFlipEffects):
	// order-position-indexed move bitset, and the positions of the rows
	// wider than one candidate.
	effBits []uint64
	widePos []int32
}

// NewWorkspace returns a Workspace sized for graph g.
func NewWorkspace(g *asgraph.Graph) *Workspace {
	n := g.N()
	w := &Workspace{g: g}
	w.static = Static{
		Dest:  -1,
		Type:  make([]RouteType, n),
		Len:   make([]int32, n),
		tbOff: make([]int32, 1, n+1),
		tbAdj: make([]int32, 0, 4*n),
		order: make([]int32, 0, n),
		pos:   make([]int32, n),
	}
	for i := 0; i < n; i++ {
		w.static.Len[i] = -1
		w.static.pos[i] = -1
	}
	w.queue = make([]int32, 0, n)
	w.lvlOff = make([]int32, n+2)
	w.reach = make([]uint64, (n+63)/64)
	w.lvl8 = make([]uint8, n)
	w.winBuf = make([]int32, n)
	w.neg1 = make([]int32, n)
	for i := range w.winBuf {
		w.winBuf[i] = -1
		w.neg1[i] = -1
	}
	w.tree = Tree{
		Parent: make([]int32, n),
		Secure: make([]bool, n),
	}
	return w
}

// Graph returns the graph this workspace was created for.
func (w *Workspace) Graph() *asgraph.Graph { return w.g }

// ComputeStatic computes the state-independent routing information for
// destination d (Observation C.1) with the three-stage BFS of [15]:
// customer routes first (BFS from d along provider edges), then peer
// routes (one peer hop onto a customer route), then provider routes
// (ascending-length relaxation down customer edges). The returned Static
// is owned by the workspace and is invalidated by the next call.
//
// Cost is O(reachable + incident edges) per destination, not O(N): the
// workspace maintains the invariant that Type/Len/pos/winBuf hold their
// "no destination" values (NoRoute/-1/-1/-1) everywhere outside the
// previous call's reachable set, so each call un-marks exactly the
// entries the previous one wrote (a full sequential clear is used
// instead only when the previous reachable set covered most of the
// graph, where it is cheaper). All later passes — stage-2 peer claims,
// stage-3 seeding, the order sort, the pos fill and the tiebreak-CSR
// build — run over the compact claim lists collected during the stages,
// never over all N nodes (the dense finalize path's single id-ascending
// scan being the one deliberate exception, chosen only when the
// reachable set is a large fraction of N).
func (w *Workspace) ComputeStatic(d int32) *Static {
	return w.computeStatic(d, nil, false)
}

// computeStatic is the shared body of ComputeStatic and PrepareDest;
// wantWin additionally fills the tiebreak-winner array under tb, fused
// into the CSR build pass so the rows are scanned once.
func (w *Workspace) computeStatic(d int32, tb Tiebreaker, wantWin bool) *Static {
	g := w.g
	n := int32(g.N())
	s := &w.static

	w.unmarkPrev()
	s.Dest = d
	s.win = nil
	s.deltaReady = false
	s.provReady = false
	s.supOutReady = false
	s.supInReady = false
	s.Type[d] = SelfRoute
	s.Len[d] = 0
	reach := w.reach
	lvl8 := w.lvl8
	reach[d>>6] |= 1 << uint(d&63)
	lvl8[d] = 1
	// pack8 is the lvl8 encoding of length l: l+1, saturating at 255.
	pack8 := func(l int32) uint8 {
		if l >= 254 {
			return 255
		}
		return uint8(l + 1)
	}

	// Stage 1: customer routes. A node i has a customer route iff there
	// is a chain of provider edges from d up to i (each node on the chain
	// is a customer of the next). BFS from d expanding along Providers().
	// The queue doubles as the settled list: entries come out in
	// nondecreasing Len, with d (the only SelfRoute) at the head.
	q := w.queue[:0]
	q = append(q, d)
	for head := 0; head < len(q); head++ {
		u := q[head]
		nl := s.Len[u] + 1
		l8 := pack8(nl)
		for _, p := range g.Providers(u) {
			if reach[p>>6]&(1<<uint(p&63)) == 0 {
				reach[p>>6] |= 1 << uint(p&63)
				s.Type[p] = CustomerRoute
				s.Len[p] = nl
				lvl8[p] = l8
				q = append(q, p)
			}
		}
	}
	maxLen := s.Len[q[len(q)-1]]

	// Stage 2: peer routes. A node with no customer route may take one
	// peering hop onto a neighbor's customer route (GR2 lets a node
	// export customer routes to peers); its length is 1 + the minimum
	// settled-peer length. Scanning the settled list in its nondecreasing
	// Len order and claiming each still-unclaimed peer realizes exactly
	// that minimum — the first settled node to reach a peer is one of its
	// shortest — while touching only settled nodes' peer edges, never all
	// N nodes. Claims come out in nondecreasing Len too (Len[u]+1 over
	// nondecreasing Len[u]), which stage 3 exploits.
	pq := w.peerQ[:0]
	for _, u := range q {
		lu := s.Len[u] + 1
		l8 := pack8(lu)
		for _, p := range g.Peers(u) {
			if reach[p>>6]&(1<<uint(p&63)) == 0 {
				reach[p>>6] |= 1 << uint(p&63)
				s.Type[p] = PeerRoute
				s.Len[p] = lu
				lvl8[p] = l8
				pq = append(pq, p)
			}
		}
	}
	if len(pq) > 0 {
		if l := s.Len[pq[len(pq)-1]]; l > maxLen {
			maxLen = l
		}
	}

	// Stage 3: provider routes, by ascending total length. A node's
	// provider exports its own best route of any class (GR2 allows
	// everything to customers), so the candidate length via provider b is
	// Len[b]+1. A relaxation from level l can only claim nodes at level
	// l+1, so a two-slice frontier (current level, next level) suffices;
	// the settled stage-1/2 seeds are already grouped by length (both
	// lists are Len-sorted) and are drained alongside the frontier of
	// their level. Because every relaxation source is processed at its
	// final length and levels only ascend, the first claim of a node is
	// already its shortest provider route — no later relaxation can
	// improve it, so a claim is final and the frontier never holds stale
	// entries. Fresh claims are collected in provKeys, packed as
	// (Len<<32 | id) — each node at most once, on its NoRoute→claim
	// transition — completing the compact reachable list with the levels
	// the finalize passes need, free of random Len reads.
	maxFinal := maxLen
	pv := w.provKeys[:0]
	// The frontier needs no storage of its own: claims land in pv
	// grouped by level, so pv[fs:fe] — the claims of the previous
	// iteration — IS the level-l frontier (ids in the low key halves),
	// and claims made while draining it accumulate past fe for the next
	// iteration. lvlEnds[l] records len(pv) after the level-l drain;
	// consecutive boundaries delimit the per-level claim groups, handing
	// the dense finalize its level counts with no per-entry pass. The
	// claim body is spelled out in each drain rather than shared through
	// a closure: the closure would capture pv by reference (it appends),
	// boxing the hottest slice of the pass behind a pointer.
	lvlEnds := w.lvlEnds[:0]
	fs := 0
	for l, i1, i2 := int32(0), 0, 0; i1 < len(q) || i2 < len(pq) || fs < len(pv); l++ {
		// pv[fs:fe] = claims appended during iteration l-1, all Len l.
		// Everything appended from fe on during this iteration — by the
		// seed drains and the frontier drain alike — has Len l+1 and
		// forms the next frontier.
		fe := len(pv)
		nl := l + 1
		l8 := pack8(nl)
		key := int64(nl) << 32
		for i1 < len(q) && s.Len[q[i1]] == l {
			for _, c := range g.Customers(q[i1]) {
				if reach[c>>6]&(1<<uint(c&63)) == 0 {
					reach[c>>6] |= 1 << uint(c&63)
					s.Type[c] = ProviderRoute
					s.Len[c] = nl
					lvl8[c] = l8
					pv = append(pv, key|int64(c))
				}
			}
			i1++
		}
		for i2 < len(pq) && s.Len[pq[i2]] == l {
			for _, c := range g.Customers(pq[i2]) {
				if reach[c>>6]&(1<<uint(c&63)) == 0 {
					reach[c>>6] |= 1 << uint(c&63)
					s.Type[c] = ProviderRoute
					s.Len[c] = nl
					lvl8[c] = l8
					pv = append(pv, key|int64(c))
				}
			}
			i2++
		}
		for idx := fs; idx < fe; idx++ {
			for _, c := range g.Customers(int32(uint32(pv[idx]))) {
				if reach[c>>6]&(1<<uint(c&63)) == 0 {
					reach[c>>6] |= 1 << uint(c&63)
					s.Type[c] = ProviderRoute
					s.Len[c] = nl
					lvl8[c] = l8
					pv = append(pv, key|int64(c))
				}
			}
		}
		if len(pv) > fe && nl > maxFinal {
			maxFinal = nl
		}
		lvlEnds = append(lvlEnds, int32(len(pv)))
		fs = fe
	}
	w.lvlEnds = lvlEnds

	// Processing order: ascending final length, ascending node id within
	// a length — exactly a counting sort over the reachable lists. Two
	// equivalent builds: when the reachable set is a large fraction of
	// the graph, count per level and scatter with one id-ascending scan
	// (the classic dense form); otherwise sort packed (Len, id) keys in
	// O(R log R), never touching the other N-R nodes. Both produce the
	// identical byte sequence.
	nOrder := len(q) - 1 + len(pq) + len(pv)
	if cap(s.order) < nOrder {
		s.order = make([]int32, 0, nOrder)
	}
	s.order = s.order[:nOrder]
	dense := nOrder >= int(n)/8
	switch w.forceFinalize {
	case finalizeDense:
		dense = true
	case finalizeSparse:
		dense = false
	}
	if dense {
		lvl := w.lvlOff[:maxFinal+2]
		for i := range lvl {
			lvl[i] = 0
		}
		for _, i := range q[1:] {
			lvl[s.Len[i]+1]++
		}
		for _, i := range pq {
			lvl[s.Len[i]+1]++
		}
		prev := int32(0)
		for li, end := range lvlEnds {
			if end != prev {
				lvl[li+2] += end - prev // level-li claims have Len li+1
				prev = end
			}
		}
		for l := 0; l+1 < len(lvl); l++ {
			lvl[l+1] += lvl[l]
		}
		// Scatter, reusing lvl as the per-level cursor.
		for i := int32(0); i < n; i++ {
			if i != d && s.Type[i] != NoRoute {
				l := s.Len[i]
				s.order[lvl[l]] = i
				lvl[l]++
			}
		}
	} else {
		keys := w.keys[:0]
		for _, i := range q[1:] {
			keys = append(keys, int64(s.Len[i])<<32|int64(i))
		}
		for _, i := range pq {
			keys = append(keys, int64(s.Len[i])<<32|int64(i))
		}
		keys = append(keys, pv...)
		slices.Sort(keys)
		for k, key := range keys {
			s.order[k] = int32(key & 0xffffffff)
		}
		w.keys = keys[:0]
	}
	w.queue, w.peerQ, w.provKeys = q[:0], pq[:0], pv[:0]

	// One fused pass over the order: position fill, tiebreak CSR rows
	// (members of node i's set are the next hops consistent with
	// (Type[i], Len[i])), and — for PrepareDest — the plain-TB winner of
	// each freshly built row. The length-equality tests read the packed
	// byte levels (L1-resident at any graph size) whenever no length
	// saturated the byte encoding; Len[p] == li ≥ 0 — equivalently
	// lvl8[p] == li+1 — already implies p is reachable (both encodings
	// are sentinels otherwise), so provider rows need no Type load at
	// all: any reachable provider at length Len[i]-1 is a valid next hop
	// (providers export their best route of any class to customers).
	useLvl8 := maxFinal < 254
	s.tbAdj = s.tbAdj[:0]
	s.tbOff = s.tbOff[:nOrder+1]
	s.tbOff[0] = 0
	for k, i := range s.order {
		s.pos[i] = int32(k)
		start := len(s.tbAdj)
		li8 := lvl8[i] - 1 // == pack8(Len[i]-1) when useLvl8
		switch s.Type[i] {
		case CustomerRoute:
			if useLvl8 {
				for _, c := range g.Customers(i) {
					if lvl8[c] == li8 && (s.Type[c] == CustomerRoute || s.Type[c] == SelfRoute) {
						s.tbAdj = append(s.tbAdj, c)
					}
				}
			} else {
				li := s.Len[i] - 1
				for _, c := range g.Customers(i) {
					if s.Len[c] == li && (s.Type[c] == CustomerRoute || s.Type[c] == SelfRoute) {
						s.tbAdj = append(s.tbAdj, c)
					}
				}
			}
		case PeerRoute:
			if useLvl8 {
				for _, p := range g.Peers(i) {
					if lvl8[p] == li8 && (s.Type[p] == CustomerRoute || s.Type[p] == SelfRoute) {
						s.tbAdj = append(s.tbAdj, p)
					}
				}
			} else {
				li := s.Len[i] - 1
				for _, p := range g.Peers(i) {
					if s.Len[p] == li && (s.Type[p] == CustomerRoute || s.Type[p] == SelfRoute) {
						s.tbAdj = append(s.tbAdj, p)
					}
				}
			}
		case ProviderRoute:
			if useLvl8 {
				for _, p := range g.Providers(i) {
					if lvl8[p] == li8 {
						s.tbAdj = append(s.tbAdj, p)
					}
				}
			} else {
				li := s.Len[i] - 1
				for _, p := range g.Providers(i) {
					if s.Len[p] == li {
						s.tbAdj = append(s.tbAdj, p)
					}
				}
			}
		}
		end := len(s.tbAdj)
		s.tbOff[k+1] = int32(end)
		if wantWin {
			// Singleton rows (the overwhelming majority, paper Fig. 10)
			// admit no choice; only wider rows pay a tiebreak scan.
			best := s.tbAdj[start]
			if end-start > 1 {
				for _, b := range s.tbAdj[start+1 : end] {
					if tb.Less(i, b, best) {
						best = b
					}
				}
			}
			w.winBuf[i] = best
		}
	}
	if wantWin {
		s.win = w.winBuf
	}
	return s
}

// unmarkPrev un-marks the previous destination's entries, restoring
// the all-clear invariant in O(previous reachable): every per-node
// array back at its sentinel (NoRoute/-1/-1/-1, reach and lvl8 clear)
// for exactly what the previous build — or packed decode — marked.
// When the previous reachable set covered most of the graph,
// sequential full clears are cheaper than scattered stores.
func (w *Workspace) unmarkPrev() {
	s := &w.static
	prev := s.Dest
	if prev < 0 {
		return
	}
	if len(s.order) >= w.g.N()/4 {
		clear(s.Type) // NoRoute is the zero value
		clear(w.reach)
		clear(w.lvl8)
		// -1 is not the zero value, so these would be scalar fill
		// loops; copying from a constant -1 template runs at memmove
		// speed instead.
		copy(s.Len, w.neg1)
		copy(s.pos, w.neg1)
		copy(w.winBuf, w.neg1)
	} else {
		for _, i := range s.order {
			s.Type[i] = NoRoute
			s.Len[i] = -1
			s.pos[i] = -1
			w.winBuf[i] = -1
			w.reach[i>>6] &^= 1 << uint(i&63)
			w.lvl8[i] = 0
		}
		s.Type[prev] = NoRoute
		s.Len[prev] = -1
		w.reach[prev>>6] &^= 1 << uint(prev&63)
		w.lvl8[prev] = 0
	}
}

// PrepareDest is ComputeStatic plus precomputation of every node's
// state-independent tiebreak winner under tb (the next hop the plain TB
// step would pick). Resolutions against the returned Static then cost
// O(1) per node for the TB step, which matters when one destination is
// resolved once per candidate ISP each round.
//
// The winner array is full-length with -1 for the destination and
// unreachable nodes — exactly a cleared Tree's Parent entries — so
// ResolveInto can seed a tree's parents with one whole-array copy. The
// workspace maintains the -1 entries across calls (computeStatic's
// un-marking covers the winner buffer), so no O(N) refill happens here.
func (w *Workspace) PrepareDest(d int32, tb Tiebreaker) *Static {
	return w.computeStatic(d, tb, true)
}
