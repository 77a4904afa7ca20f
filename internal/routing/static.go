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
// pass (ResolveInto, the paper's "fast routing tree algorithm").
package routing

import (
	"math/bits"

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
	// order for ResolveInto.
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

// Workspace holds reusable scratch buffers so that per-destination
// computations do not allocate. A Workspace may be used by one goroutine
// at a time; create one per worker.
type Workspace struct {
	g *asgraph.Graph

	static Static

	// The width-1 batch ComputeStatic and PrepareDest build through,
	// made on first use.
	one     *StaticBatch
	oneDest [1]int32
	// neg1 is a constant all:-1 template, so dense un-marking of the
	// int32 arrays runs at memmove speed instead of a scalar fill loop.
	neg1 []int32

	// winBuf backs the precomputed tiebreak winners of the prepared
	// static (PrepareDest, DecodePacked).
	winBuf []int32

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
	w.winBuf = make([]int32, n)
	w.neg1 = make([]int32, n)
	for i := range w.winBuf {
		w.winBuf[i] = -1
		w.neg1[i] = -1
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
// It is a width-1 StaticBatch build and its finalize, so cost is
// O(reachable + incident edges) per destination, not O(N): the batch
// and the workspace both un-mark exactly what the previous build marked.
func (w *Workspace) ComputeStatic(d int32) *Static {
	return w.PrepareLane(w.buildOne(d, nil), 0)
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
// workspace maintains the -1 entries across calls (the finalize's
// un-marking covers the winner buffer), so no O(N) refill happens here.
func (w *Workspace) PrepareDest(d int32, tb Tiebreaker) *Static {
	return w.PrepareLane(w.buildOne(d, tb), 0)
}

// buildOne runs the workspace's own width-1 batch for d.
func (w *Workspace) buildOne(d int32, tb Tiebreaker) *StaticBatch {
	if w.one == nil {
		w.one = NewStaticBatch(w.g, 1)
	}
	w.oneDest[0] = d
	w.one.Build(w.oneDest[:], tb)
	return w.one
}

// Sweep calls fn with the static of every destination in dests, in
// order, built BatchWidth at a time through one StaticBatch: fn sees
// what ComputeStatic (tb nil) or PrepareDest (tb set) would return for
// the destination, and the static is invalidated once fn returns.
func (w *Workspace) Sweep(dests []int32, tb Tiebreaker, fn func(s *Static)) {
	if len(dests) == 0 {
		return
	}
	b := NewStaticBatch(w.g, min(len(dests), BatchWidth))
	for lo := 0; lo < len(dests); lo += BatchWidth {
		b.Build(dests[lo:min(lo+BatchWidth, len(dests))], tb)
		for k := range b.Dests() {
			fn(w.PrepareLane(b, k))
		}
	}
}

// PrepareLane finalizes lane k of b's last Build(dests, tb) into the
// workspace's Static — what PrepareDest(dests[k], tb) returns bit for
// bit, or ComputeStatic(dests[k]) when tb was nil — and returns it,
// invalidated by the next build or decode on w. b must be built on w's
// graph; its claims are only read, so its lanes finalize in any order,
// any number of times.
//
// The lane's rows are copied out: the order (ascending length,
// ascending node id within a length, the order the lane's rows are
// already in), positions, types and lengths, the tiebreak CSR rows and,
// under a tiebreaker, every row's plain-TB winner. No graph adjacency is
// read and no tiebreaker is called here. The workspace keeps
// Type/Len/pos/winBuf at their "no destination" values
// (NoRoute/-1/-1/-1) outside the previous static's reachable set, so
// each call un-marks exactly what the previous one wrote and then marks
// only this lane's reachable nodes.
func (w *Workspace) PrepareLane(b *StaticBatch, k int) *Static {
	s := &w.static
	w.unmarkPrev()
	d := b.dests[k]
	s.Dest = d
	s.win = nil
	s.deltaReady = false
	s.provReady = false
	s.supOutReady = false
	s.supInReady = false
	s.Type[d] = SelfRoute
	s.Len[d] = 0

	nr := int(b.laneLen[k])
	wantWin := b.tb != nil
	rows, adj, winBuf := b.rows, b.adj, w.winBuf
	pos, typ, length := s.pos, s.Type, s.Len
	if cap(s.order) < nr {
		s.order = make([]int32, 0, nr)
	}
	order := s.order[:nr]
	s.order = order
	tbAdj := s.tbAdj[:0]
	tbOff := s.tbOff[:nr+1]
	tbOff[0] = 0
	j := int32(0)
	for c := 0; c*64 < len(b.rowLanes); c++ {
		word := b.rowLanes[c*64+k]
		if word == ^uint64(0) {
			// 64 consecutive rows, every one in the lane (every word but
			// the last at width 1): their members are one run of adj.
			run := rows[c<<6 : c<<6+65]
			shift := int32(len(tbAdj)) - run[0].lo
			tbAdj = append(tbAdj, adj[run[0].lo:run[64].lo]...)
			for q := range run[:64] {
				r := &run[q]
				i := r.node
				order[j] = i
				pos[i] = j
				typ[i] = RouteType(r.lt & 7)
				length[i] = r.lt >> 3
				j++
				tbOff[j] = run[q+1].lo + shift
			}
			if wantWin {
				for _, r := range run[:64] {
					winBuf[r.node] = r.win
				}
			}
			continue
		}
		for ; word != 0; word &= word - 1 {
			v := c<<6 | bits.TrailingZeros64(word)
			r := &rows[v]
			i := r.node
			order[j] = i
			pos[i] = j
			typ[i] = RouteType(r.lt & 7)
			length[i] = r.lt >> 3
			// A singleton row's one member is its win: no read of adj.
			// Wider rows are short, so they copy in a loop rather than
			// through a memmove call.
			if lo, hi := r.lo, rows[v+1].lo; hi-lo == 1 {
				tbAdj = append(tbAdj, r.win)
			} else {
				for _, p := range adj[lo:hi] {
					tbAdj = append(tbAdj, p)
				}
			}
			if wantWin {
				winBuf[i] = r.win
			}
			j++
			tbOff[j] = int32(len(tbAdj))
		}
	}
	s.tbAdj, s.tbOff = tbAdj, tbOff
	if wantWin {
		s.win = winBuf
	}
	return s
}

// unmarkPrev un-marks the previous destination's entries, restoring
// the all-clear invariant in O(previous reachable): Type, Len, pos and
// winBuf back at NoRoute/-1/-1/-1 for exactly the nodes the previous
// PrepareLane — or packed decode — marked, the previous order plus its
// destination. When that reachable set covered most of the graph,
// sequential full clears are cheaper than scattered stores.
func (w *Workspace) unmarkPrev() {
	s := &w.static
	prev := s.Dest
	if prev < 0 {
		return
	}
	if len(s.order) >= w.g.N()/4 {
		clear(s.Type) // NoRoute is the zero value
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
		}
		s.Type[prev] = NoRoute
		s.Len[prev] = -1
	}
}
