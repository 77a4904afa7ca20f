package routing

import (
	"math/bits"
	"slices"

	"sbgp/internal/asgraph"
)

// BatchWidth is the most destinations one StaticBatch sweep serves: one
// lane per bit of a uint64 mask.
const BatchWidth = 64

// StaticBatch runs the three-stage BFS of ComputeStatic for up to
// BatchWidth destinations in one sweep over the graph (multi-source BFS
// in the style of Then et al., "The More the Merrier", PVLDB 8(4)
// 2014). Each destination is a lane, a bit of a uint64: per node, seen
// holds the lanes that have claimed it and next the lanes claiming it at
// the level being built, and every level of every stage is a list of
// (node, lane mask) claims. A node reached at the same length in many
// lanes has its adjacency scanned once for all of them, which is where
// the sweep saves over one BFS per destination.
//
// The tiebreak rows ride the same claims. After the sweep, one pass
// sorts the claims by (level, node) and gives each its claim row: the
// class neighbours holding a claim one level closer, each with the
// lanes in which it is a next hop, plus the row's plain-TB winners —
// one for a lane-uniform row, one per winning member otherwise. A node
// claimed in many lanes has its adjacency scanned once here too.
// Workspace.PrepareLane (and Sweep) then finalize one lane at a time by
// copying its claims' rows out into the workspace's Static: the order,
// positions, tiebreak rows and winners that ComputeStatic and
// PrepareDest produce — the same bytes, since those two are width-1
// batches themselves.
//
// A StaticBatch may be used by one goroutine at a time; its claims stay
// valid until the next Build.
type StaticBatch struct {
	g     *asgraph.Graph
	n     int
	dests []int32 // lane k's destination is dests[k]
	tb    Tiebreaker

	seen []uint64 // node-indexed: lanes that have claimed the node
	next []uint64 // node-indexed: lanes claiming it at the open level
	// Node bitsets: full marks seen[i] == every lane, any seen[i] != 0.
	// They are the claim tests' first look, at 1 bit per node
	// cache-resident where seen is not — at width 1 they are the whole
	// test, as in a scalar BFS.
	full []uint64
	any  []uint64

	// The claims of every level of every stage, in build order: stage 1
	// (customer routes), then stage 2 (peer), then stage 3 (provider).
	// Level l of a stage is node[off[l]:off[l+1]] and mask[...] with off
	// its stage's offsets; stage-1 level 0 holds the destinations and
	// the other stages' level 0 is empty.
	node []int32
	mask []uint64
	cust []int32
	peer []int32
	prov []int32

	// The claims again, sorted by (level, node): level l is positions
	// lvlStart[l]..lvlStart[l+1]-1, and sorted, sNode and sMask hold each
	// one's build-order index, node and lanes. Then their rows: a claim
	// whose row is the same in all its lanes has one laneRow, any other
	// one per group of its lanes that share a tiebreak set. rowLanes[v]
	// holds the lanes row v serves until laneRowBits transposes each
	// block of 64 rows in place; then word 64c+k is lane k's bitmap of
	// rows 64c..64c+63. Lane k's rows, in claim order — lane k's order —
	// are the set bits of its words, laneLen[k] of them.
	sorted   []int32
	sNode    []int32
	sMask    []uint64
	lvlStart []int32
	rows     []laneRow
	adj      []int32
	rowLanes []uint64
	laneLen  [BatchWidth]int32

	// Scratch of the sort and the row pass. The sort chains each node's
	// claims off head (-1 ends a chain), one word per build-order claim:
	// the next claim of the same node in its low half, the claim's level
	// in its high half. at and atCS are node-indexed: the lanes holding
	// a claim of any class, and a customer (or self) claim, at the level
	// below the one whose rows are being built; a one-lane batch has
	// neither. The node bitsets atAny/atFull and csAny/csFull mark
	// at[i] (atCS[i]) nonzero and every lane: the member tests' first
	// look, as full and any are the sweep's. cand and candMask are the
	// members of the claim row being split and the lanes of each, groups
	// its lane groups. head is all -1 and the at tables all clear between
	// builds.
	head     []int32
	at       []uint64
	atCS     []uint64
	atAny    []uint64
	atFull   []uint64
	csAny    []uint64
	csFull   []uint64
	cand     []int32
	candMask []uint64
	groups   []uint64

	lanes uint64 // every lane's bit
}

// laneRow is what a claim gives each lane it serves: the node's tiebreak
// set adj[lo:next.lo], next being the laneRow after it, its type and
// length packed as lt = level<<3 | type, and win, the set's winner under
// a tiebreaker and its first member otherwise — for a singleton set, the
// member either way. Sixteen bytes keep the rows cache-compact; the rows
// end with a sentinel that holds only lo.
type laneRow struct {
	node int32
	lt   int32
	lo   int32
	win  int32
}

// NewStaticBatch returns a batch of up to width lanes (1..BatchWidth)
// for graph g. Its fixed state is, per node, a chain head and two lane
// masks, four above one lane; the claim tables grow with the first
// builds and are reused.
func NewStaticBatch(g *asgraph.Graph, width int) *StaticBatch {
	if width < 1 || width > BatchWidth {
		panic("routing: StaticBatch width out of range")
	}
	n := g.N()
	b := &StaticBatch{
		g:      g,
		n:      n,
		dests:  make([]int32, 0, width),
		seen:   make([]uint64, n),
		next:   make([]uint64, n),
		full:   make([]uint64, (n+63)/64),
		any:    make([]uint64, (n+63)/64),
		head:   make([]int32, n),
		atAny:  make([]uint64, (n+63)/64),
		atFull: make([]uint64, (n+63)/64),
		csAny:  make([]uint64, (n+63)/64),
		csFull: make([]uint64, (n+63)/64),
	}
	for i := range b.head {
		b.head[i] = -1
	}
	if width > 1 {
		// Every claim of a one-lane batch holds every lane, so its
		// full bits answer every member test and it never reads these.
		b.at, b.atCS = make([]uint64, n), make([]uint64, n)
	}
	return b
}

// Dests returns the destinations of the last Build, lane k at index k.
// The slice aliases internal storage.
func (b *StaticBatch) Dests() []int32 { return b.dests }

// Build runs stages 1–3 of the static build for dests, one lane each
// (at most the batch's width), and then the claim rows every lane's
// finalize copies out, with winners under tb (none when tb is nil):
//
//   - stage 1, customer routes: a level-synchronous BFS from every
//     destination up provider edges;
//   - stage 2, peer routes: each stage-1 level, in ascending order,
//     claims its still-unclaimed peers one level deeper — the first
//     claim of a node is one of its shortest;
//   - stage 3, provider routes: ascending-length relaxation down
//     customer edges, level l's stage-1, stage-2 and stage-3 claims
//     together claiming level l+1.
//
// A claim is final the moment it is made (levels only ascend), and a
// lane sees exactly the claims its own scalar BFS would make: every
// mask operation is per bit, so lanes never interact.
func (b *StaticBatch) Build(dests []int32, tb Tiebreaker) {
	b.sweep(dests)
	b.claimRows(tb)
}

// sweep runs the three stages of Build.
func (b *StaticBatch) sweep(dests []int32) {
	if len(dests) == 0 || len(dests) > cap(b.dests) {
		panic("routing: StaticBatch.Build needs 1 to width destinations")
	}
	b.unmark()
	b.dests = append(b.dests[:0], dests...)
	b.lanes = ^uint64(0) >> uint(BatchWidth-len(dests))
	b.node, b.mask = b.node[:0], b.mask[:0]

	// Stage 1: customer routes, level 0 being the destinations (merged
	// into one claim should two lanes share one).
	b.cust = append(b.cust[:0], 0)
	for k, d := range dests {
		bit := uint64(1) << uint(k)
		b.any[d>>6] |= 1 << uint(d&63)
		if b.seen[d] |= bit; b.seen[d] == b.lanes {
			b.full[d>>6] |= 1 << uint(d&63)
		}
		if b.next[d] == 0 {
			b.node = append(b.node, d)
			b.mask = append(b.mask, 0)
		}
		b.next[d] |= bit
	}
	b.seal(0) // every level-0 entry is pending
	b.cust = append(b.cust, int32(len(b.node)))
	for l := 0; b.cust[l+1] > b.cust[l]; l++ {
		b.claimLevel(l+1, CustomerRoute, b.cust)
		b.cust = append(b.cust, int32(len(b.node)))
	}

	// Stage 2: peer routes, one hop off each stage-1 level in turn.
	start := int32(len(b.node))
	b.peer = append(b.peer[:0], start, start)
	for l := 0; l+1 < len(b.cust); l++ {
		b.claimLevel(l+1, PeerRoute, b.cust)
		b.peer = append(b.peer, int32(len(b.node)))
	}

	// Stage 3: provider routes. Every level-l claim of any stage relaxes
	// down its customer edges into level l+1; the loop ends once no
	// stage has a level l left.
	start = int32(len(b.node))
	b.prov = append(b.prov[:0], start, start)
	for l := 0; l+1 < len(b.cust) || l+1 < len(b.peer) || b.prov[l+1] > b.prov[l]; l++ {
		b.claimLevel(l+1, ProviderRoute, b.cust, b.peer, b.prov)
		b.prov = append(b.prov, int32(len(b.node)))
	}
}

// claimLevel makes level l's claims of route type t: from the level-l-1
// claims of each of the stage offsets srcs, along the edges t's routes
// arrive over — provider edges up for customer routes, peer edges
// across for peer routes, customer edges down for provider routes —
// claiming for every lane its sources hold and the target lacks.
//
// The claim tests read the full and any bitsets first. A node no lane
// has claimed (any clear) takes the source's whole mask without a load
// of seen; one every lane has claimed (full set) is skipped outright. A
// claim for every lane at once — every claim at width 1 — is complete
// on arrival: its entry is appended with its mask and seen is never
// read for the node again. Only partial claims accumulate in next,
// merging every lane that reaches the node at this level into one entry
// whose mask the level's seal fills in.
func (b *StaticBatch) claimLevel(l int, t RouteType, srcs ...[]int32) {
	g := b.g
	seen, next, full, any := b.seen, b.next, b.full, b.any
	lanes := b.lanes
	node, mask := b.node, b.mask
	first := len(node)
	pending := false
	for _, off := range srcs {
		if l >= len(off) {
			continue
		}
		for idx := off[l-1]; idx < off[l]; idx++ {
			var adj []int32
			switch t {
			case CustomerRoute:
				adj = g.Providers(node[idx])
			case PeerRoute:
				adj = g.Peers(node[idx])
			default:
				adj = g.Customers(node[idx])
			}
			m := mask[idx]
			for _, c := range adj {
				w, bit := c>>6, uint64(1)<<uint(c&63)
				if full[w]&bit != 0 {
					continue
				}
				if any[w]&bit == 0 {
					any[w] |= bit
					if m == lanes {
						full[w] |= bit
						node = append(node, c)
						mask = append(mask, m)
					} else {
						seen[c] = m
						node = append(node, c)
						mask = append(mask, 0)
						next[c] = m
						pending = true
					}
					continue
				}
				nm := m &^ seen[c]
				if nm == 0 {
					continue
				}
				if seen[c] |= nm; seen[c] == lanes {
					full[w] |= bit
				}
				if next[c] == 0 {
					node = append(node, c)
					mask = append(mask, 0)
					pending = true
				}
				next[c] |= nm
			}
		}
	}
	b.node, b.mask = node, mask
	if pending {
		b.seal(first)
	}
}

// seal closes the open level, whose claims start at node[first]: the
// pending entries (mask 0) take their merged lane masks out of next.
func (b *StaticBatch) seal(first int) {
	for idx := first; idx < len(b.node); idx++ {
		if b.mask[idx] == 0 {
			p := b.node[idx]
			b.mask[idx] = b.next[p]
			b.next[p] = 0
		}
	}
}

// unmark restores the all-clear invariant of seen, full and any for
// exactly what the previous build claimed — through its claim lists, or
// with sequential clears once those would touch most of the state.
func (b *StaticBatch) unmark() {
	if len(b.dests) == 0 {
		return
	}
	if len(b.node) >= b.n/8 {
		clear(b.seen)
		clear(b.full)
		clear(b.any)
		return
	}
	for _, p := range b.node {
		b.seen[p] = 0
		b.full[p>>6] = 0
		b.any[p>>6] = 0
	}
}

// claimRows sorts the last sweep's claims by (level, node) and builds
// every claim's rows, with winners under tb (none when tb is nil), and
// every lane's row list.
//
// The row pass walks the levels in ascending order with at and atCS
// holding the lanes of the level below. A claim of node i with lanes m,
// whose route arrives over class neighbours p, takes as members the p
// with rm = m & at(p) nonzero: rm is exactly the lanes in which p has
// the length and class of a next hop of i, since a node holds one claim
// per lane. Customer and peer routes arrive from customer (or self)
// claims (atCS), provider routes from a claim of any class (at). When
// every member has rm == m the row is lane-uniform: one laneRow and one
// winner serve all of m. Otherwise the members' masks split m into the
// groups of lanes that agree on every member, and each group gets its
// own laneRow of the members it holds and their winner.
//
// The passes are split into small methods on purpose: as one function
// their loops kept too many values live to stay in registers.
func (b *StaticBatch) claimRows(tb Tiebreaker) {
	b.tb = tb
	levels := b.sortClaims()
	// A batch makes about 1.5 rows and 2 members per claim (fewer at
	// width 1): grow the tables once, not by many appends whose dropped
	// arrays would stay in the heap.
	c := len(b.node)
	b.rows = slices.Grow(b.rows[:0], c+c/2+1)
	b.adj = slices.Grow(b.adj[:0], 2*c)
	b.rowLanes = slices.Grow(b.rowLanes[:0], c+c/2+64)
	partial := b.markLevel(0)
	for l := 1; l < levels; l++ {
		b.rowLevel(l, tb)
		b.unmarkLevel(l-1, partial)
		partial = b.markLevel(l)
	}
	b.unmarkLevel(levels-1, partial)
	b.rows = append(b.rows, laneRow{lo: int32(len(b.adj))})
	b.laneRowBits()
}

// sortClaims fills sorted with the sweep's claims in (level, node)
// order and lvlStart with the levels' bounds, and returns the level
// count. It chains each node's claims off head and walks the nodes in
// ascending id through the any bitset, dealing the claims into their
// levels: O(claims + N/64), with no comparison sort.
func (b *StaticBatch) sortClaims() int {
	node, mask := b.node, b.mask
	n := len(node)
	if cap(b.sorted) < n {
		c := n + n/8
		b.sorted = make([]int32, c)
		b.sNode = make([]int32, c)
		b.sMask = make([]uint64, c)
	}
	// The chain lives in rowLanes' buffer, which the row pass refills.
	chain, head := slices.Grow(b.rowLanes[:0], n)[:n], b.head
	b.rowLanes = chain[:0]
	sorted, sNode, sMask := b.sorted[:n], b.sNode[:n], b.sMask[:n]
	b.sorted, b.sNode, b.sMask = sorted, sNode, sMask

	// Count each level's claims and chain each node's.
	levels := max(len(b.cust), len(b.peer), len(b.prov)) - 1
	if cap(b.lvlStart) < levels+1 {
		b.lvlStart = make([]int32, levels+1+levels/8)
	}
	start := b.lvlStart[:levels+1]
	b.lvlStart = start
	clear(start)
	for _, off := range [...][]int32{b.cust, b.peer, b.prov} {
		for l := 0; l+1 < len(off); l++ {
			start[l+1] += off[l+1] - off[l]
			for idx := off[l]; idx < off[l+1]; idx++ {
				p := node[idx]
				chain[idx] = uint64(uint32(head[p])) | uint64(l)<<32
				head[p] = idx
			}
		}
	}
	for l := 1; l <= levels; l++ {
		start[l] += start[l-1]
	}
	// Deal the claims out in ascending node id; start[l] serves as level
	// l's cursor and ends at level l+1's start, shifted back below.
	for w, word := range b.any {
		for ; word != 0; word &= word - 1 {
			p := w<<6 | bits.TrailingZeros64(word)
			for idx := head[p]; idx >= 0; {
				link := chain[idx]
				l := link >> 32
				s := start[l]
				start[l]++
				sorted[s], sNode[s], sMask[s] = idx, int32(p), mask[idx]
				idx = int32(uint32(link))
			}
			head[p] = -1
		}
	}
	copy(start[1:], start[:levels])
	start[0] = 0
	return levels
}

// markLevel sets the at tables for level l's claims and reports whether
// any of them lacks some lane. A claim of every lane sets only the
// bitsets: a node's claims have disjoint lanes, so it is the node's only
// claim at the level and its full bit answers every test.
func (b *StaticBatch) markLevel(l int) (partial bool) {
	lo, hi, lanes := b.lvlStart[l], b.lvlStart[l+1], b.lanes
	csEnd := b.cust[len(b.cust)-1]
	at, atCS, atAny, atFull, csAny, csFull := b.at, b.atCS, b.atAny, b.atFull, b.csAny, b.csFull
	sNode, sMask := b.sNode[lo:hi], b.sMask[lo:hi]
	for s, idx := range b.sorted[lo:hi] {
		p, m := sNode[s], sMask[s]
		w, bit := p>>6, uint64(1)<<uint(p&63)
		cs := idx < csEnd
		atAny[w] |= bit
		if cs {
			csAny[w] |= bit
		}
		if m == lanes {
			atFull[w] |= bit
			if cs {
				csFull[w] |= bit
			}
			continue
		}
		partial = true
		if at[p] |= m; at[p] == lanes {
			atFull[w] |= bit
		}
		if cs {
			if atCS[p] |= m; atCS[p] == lanes {
				csFull[w] |= bit
			}
		}
	}
	return partial
}

// unmarkLevel clears what markLevel(l) set: at and atCS claim by claim
// when some claim was partial, and the bitsets whole once the level has
// more claims than they have words, claim by claim below that.
func (b *StaticBatch) unmarkLevel(l int, partial bool) {
	lo, hi := b.lvlStart[l], b.lvlStart[l+1]
	sNode := b.sNode[lo:hi]
	if partial {
		for _, p := range sNode {
			b.at[p], b.atCS[p] = 0, 0
		}
	}
	if len(sNode) >= len(b.atAny) {
		clear(b.atAny)
		clear(b.atFull)
		clear(b.csAny)
		clear(b.csFull)
		return
	}
	for _, p := range sNode {
		w := p >> 6
		b.atAny[w], b.atFull[w], b.csAny[w], b.csFull[w] = 0, 0, 0, 0
	}
}

// rowLevel builds the rows of level l's claims. The lane-uniform rows
// are built inline; splitRow takes the rest.
func (b *StaticBatch) rowLevel(l int, tb Tiebreaker) {
	g := b.g
	csEnd, peerEnd := b.cust[len(b.cust)-1], b.peer[len(b.peer)-1]
	adj, rows, rowLanes := b.adj, b.rows, b.rowLanes
	at, atCS, atAny, atFull, csAny, csFull := b.at, b.atCS, b.atAny, b.atFull, b.csAny, b.csFull
	lt := int32(l) << 3
	lo, hi := b.lvlStart[l], b.lvlStart[l+1]
	sorted, sNode, sMask := b.sorted[lo:hi], b.sNode[lo:hi], b.sMask[lo:hi]
	for s, idx := range sorted {
		i, m := sNode[s], sMask[s]
		var nb []int32
		var t RouteType
		from, any, full := atCS, csAny, csFull
		switch {
		case idx < csEnd:
			nb, t = g.Customers(i), CustomerRoute
		case idx < peerEnd:
			nb, t = g.Peers(i), PeerRoute
		default:
			nb, t = g.Providers(i), ProviderRoute
			from, any, full = at, atAny, atFull
		}
		start := len(adj)
		split := false
		for _, p := range nb {
			if rm := member(p, m, from, any, full); rm != 0 {
				split = split || rm != m
				adj = append(adj, p)
			}
		}
		if split {
			b.adj, b.rows, b.rowLanes = adj[:start], rows, rowLanes
			b.splitRow(i, lt|int32(t), m, nb, from, any, full, tb)
			adj, rows, rowLanes = b.adj, b.rows, b.rowLanes
			continue
		}
		win := adj[start]
		if tb != nil && len(adj)-start > 1 {
			win = winner(i, adj[start:], tb)
		}
		// Fill the row in place: a literal is built on the stack in
		// 4-byte stores and copied out in wider loads, which stall on
		// store forwarding.
		rows = append(rows, laneRow{})
		r := &rows[len(rows)-1]
		r.node, r.lt, r.lo, r.win = i, lt|int32(t), int32(start), win
		rowLanes = append(rowLanes, m)
	}
	b.adj, b.rows, b.rowLanes = adj, rows, rowLanes
}

// member returns the lanes of m in which class neighbour p is a next
// hop: m & from[p], the bitsets any and full marking from[p] nonzero and
// every lane, so a clear any bit needs no load of from.
func member(p int32, m uint64, from, any, full []uint64) uint64 {
	w, bit := p>>6, uint64(1)<<uint(p&63)
	switch {
	case any[w]&bit == 0:
		return 0
	case full[w]&bit != 0:
		return m
	}
	return m & from[p]
}

// winner returns the member of node i's row that tb prefers. Out of
// line, its interface calls leave the row pass's registers alone; the
// row pass calls it only for rows wider than one (paper Fig. 10: most
// tiebreak sets are singletons).
func winner(i int32, row []int32, tb Tiebreaker) int32 {
	win := row[0]
	for _, p := range row[1:] {
		if tb.Less(i, p, win) {
			win = p
		}
	}
	return win
}

// laneRowBits transposes rowLanes in place, 64 rows at a time, into
// every lane's row bitmap, and counts each lane's rows. A block whose
// rows all serve every lane — every block at width 1 — needs no
// transpose.
func (b *StaticBatch) laneRowBits() {
	nr := len(b.rowLanes)
	for len(b.rowLanes)%64 != 0 {
		b.rowLanes = append(b.rowLanes, 0)
	}
	b.laneLen = [BatchWidth]int32{}
	for c := 0; c*64 < nr; c++ {
		blk := (*[64]uint64)(b.rowLanes[c*64:])
		rows := min(64, nr-c*64)
		all := b.lanes
		for _, m := range blk[:rows] {
			all &= m
		}
		if all == b.lanes {
			valid := ^uint64(0) >> uint(64-rows)
			for k := range blk {
				blk[k] = 0
				if b.lanes&(1<<uint(k)) != 0 {
					blk[k] = valid
					b.laneLen[k] += int32(rows)
				}
			}
			continue
		}
		transpose64(blk)
		for k, w := range blk[:len(b.dests)] {
			b.laneLen[k] += int32(bits.OnesCount64(w))
		}
	}
}

// transpose64 transposes the 64×64 bit matrix whose row r is a[r], bit
// c being column c: afterwards a[c] bit r is what a[r] bit c was. Each
// round swaps the off-diagonal blocks of every 2j×2j block (Warren,
// Hacker's Delight, §7-3).
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}

// splitRow builds the rows of a claim of node i, lanes m and packed
// type and length lt whose members, drawn from nb by from and its
// bitsets any and full, differ among its lanes: it splits m into the
// groups of lanes that agree on every member and gives each group a
// laneRow of the members it holds, with their winner under tb.
func (b *StaticBatch) splitRow(i, lt int32, m uint64, nb []int32, from, any, full []uint64, tb Tiebreaker) {
	cand, candMask := b.cand[:0], b.candMask[:0]
	groups := append(b.groups[:0], m)
	for _, p := range nb {
		rm := member(p, m, from, any, full)
		if rm == 0 {
			continue
		}
		cand = append(cand, p)
		candMask = append(candMask, rm)
		for gi, n0 := 0, len(groups); gi < n0; gi++ {
			if in := groups[gi] & rm; in != 0 && in != groups[gi] {
				groups = append(groups, groups[gi]&^rm)
				groups[gi] = in
			}
		}
	}
	b.cand, b.candMask, b.groups = cand, candMask, groups
	for _, lanes := range groups {
		lo := len(b.adj)
		for q, p := range cand {
			if candMask[q]&lanes != 0 {
				b.adj = append(b.adj, p)
			}
		}
		win := b.adj[lo]
		if tb != nil && len(b.adj)-lo > 1 {
			win = winner(i, b.adj[lo:], tb)
		}
		v := int32(len(b.rows))
		b.rows = append(b.rows, laneRow{})
		r := &b.rows[v]
		r.node, r.lt, r.lo, r.win = i, lt, int32(lo), win
		b.rowLanes = append(b.rowLanes, lanes)
	}
}
