package routing

import (
	"math/bits"

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
// Build writes, per lane, a destination-major byte row of levels (Len+1,
// 255 once saturated, 0 unreachable) and one of route types.
// Workspace.PrepareLane (and Sweep) then finalize one lane at a time
// from those rows into the workspace's Static: the order, positions,
// tiebreak rows and winners that ComputeStatic and PrepareDest produce
// — the same bytes, since those two are width-1 batches themselves.
//
// A StaticBatch may be used by one goroutine at a time; its rows stay
// valid until the next Build.
type StaticBatch struct {
	g     *asgraph.Graph
	n     int
	dests []int32 // lane k's destination is dests[k]

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

	// Destination-major rows, lane k at [k*n, (k+1)*n): Len+1 saturating
	// at 255, and the route type. Zero outside each lane's reachable set
	// between builds (Build un-marks what the previous build wrote).
	lvl8 []uint8
	typ  []RouteType

	lanes    uint64            // every lane's bit
	cnt      [BatchWidth]int32 // reachable nodes per lane, destination included
	sat      uint64            // lanes with some length ≥ 254: lvl8 saturated
	maxLevel int32             // longest length in any lane
}

// NewStaticBatch returns a batch of up to width lanes (1..BatchWidth)
// for graph g. Its state is ≈2·width·N bytes of rows plus two lane
// masks per node.
func NewStaticBatch(g *asgraph.Graph, width int) *StaticBatch {
	if width < 1 || width > BatchWidth {
		panic("routing: StaticBatch width out of range")
	}
	n := g.N()
	return &StaticBatch{
		g:     g,
		n:     n,
		dests: make([]int32, 0, width),
		seen:  make([]uint64, n),
		next:  make([]uint64, n),
		full:  make([]uint64, (n+63)/64),
		any:   make([]uint64, (n+63)/64),
		lvl8:  make([]uint8, width*n),
		typ:   make([]RouteType, width*n),
	}
}

// Dests returns the destinations of the last Build, lane k at index k.
// The slice aliases internal storage.
func (b *StaticBatch) Dests() []int32 { return b.dests }

// pack8 is the lvl8 encoding of length l: l+1, saturating at 255.
func pack8(l int32) uint8 {
	if l >= 254 {
		return 255
	}
	return uint8(l + 1)
}

// Build runs stages 1–3 of the static build for dests, one lane each
// (at most the batch's width), and leaves each lane's rows for the
// finalize:
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
func (b *StaticBatch) Build(dests []int32) {
	if len(dests) == 0 || len(dests) > cap(b.dests) {
		panic("routing: StaticBatch.Build needs 1 to width destinations")
	}
	b.unmark()
	b.dests = append(b.dests[:0], dests...)
	b.lanes = ^uint64(0) >> uint(BatchWidth-len(dests))
	b.sat, b.maxLevel = 0, 0
	b.node, b.mask = b.node[:0], b.mask[:0]

	// Stage 1: customer routes, level 0 being the destinations (merged
	// into one claim should two lanes share one).
	b.cust = append(b.cust[:0], 0)
	for k, d := range dests {
		b.cnt[k] = 0
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
		j := k*b.n + int(d)
		b.typ[j], b.lvl8[j] = SelfRoute, 1
		b.cnt[k]++
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
	g, n := b.g, b.n
	seen, next, full, any := b.seen, b.next, b.full, b.any
	lvl8, typ := b.lvl8, b.typ
	lanes := b.lanes
	l8 := pack8(int32(l))
	node, mask := b.node, b.mask
	first := len(node)
	var all uint64
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
				nm := m
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
				} else {
					if nm = m &^ seen[c]; nm == 0 {
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
				all |= nm
				for ; nm != 0; nm &= nm - 1 {
					k := bits.TrailingZeros64(nm)
					j := k*n + int(c)
					typ[j] = t
					lvl8[j] = l8
					b.cnt[k]++
				}
			}
		}
	}
	b.node, b.mask = node, mask
	if pending {
		b.seal(first)
	}
	if all != 0 {
		b.maxLevel = max(b.maxLevel, int32(l))
		if l >= 254 {
			b.sat |= all
		}
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

// unmark restores the all-clear invariant of seen and the rows for
// exactly what the previous build claimed — through its claim lists,
// or with sequential clears once those would touch most of the state.
func (b *StaticBatch) unmark() {
	lanes := len(b.dests)
	if lanes == 0 {
		return
	}
	n := b.n
	if len(b.node) >= n/8 {
		clear(b.seen)
		clear(b.full)
		clear(b.any)
	} else {
		for _, p := range b.node {
			b.seen[p] = 0
			b.full[p>>6] = 0
			b.any[p>>6] = 0
		}
	}
	var marked int
	for k := 0; k < lanes; k++ {
		marked += int(b.cnt[k])
	}
	if marked >= lanes*n/8 {
		clear(b.lvl8[:lanes*n])
		clear(b.typ[:lanes*n])
		return
	}
	for idx, p := range b.node {
		for m := b.mask[idx]; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)*n + int(p)
			b.lvl8[j] = 0
			b.typ[j] = NoRoute
		}
	}
}
