package routing

// Tree is the routing tree toward one destination in one deployment
// state: every reachable node's chosen next hop and whether its chosen
// path is fully secure.
type Tree struct {
	Dest int32
	// Parent[i] is node i's chosen next hop toward Dest; -1 for the
	// destination itself and for unreachable nodes.
	Parent []int32
	// Secure[i] reports whether node i's chosen path to Dest is fully
	// secure (every AS on the path, including i and Dest, is secure).
	Secure []bool
}

// Clear resets the tree for a graph of n nodes: every parent becomes -1
// and every secure flag false. ResolveInto only writes entries for the
// destination and reachable nodes, so a tree must be cleared once when
// switching destinations; repeat resolutions for the same destination
// need no further clearing (unreachable entries are never written).
func (t *Tree) Clear(n int) {
	if len(t.Parent) < n {
		t.Parent = make([]int32, n)
		t.Secure = make([]bool, n)
	}
	p := t.Parent[:n]
	for i := range p {
		p[i] = -1
	}
	clear(t.Secure[:n])
}

// CopyFrom makes t an entry-for-entry copy of src, allocating only if t
// is smaller than src.
func (t *Tree) CopyFrom(src *Tree) {
	t.Dest = src.Dest
	if len(t.Parent) < len(src.Parent) {
		t.Parent = make([]int32, len(src.Parent))
		t.Secure = make([]bool, len(src.Parent))
	}
	copy(t.Parent, src.Parent)
	copy(t.Secure, src.Secure)
}

// ResolveInto runs the paper's fast routing tree algorithm (Appendix
// C.2): given the static per-destination information and a deployment
// state, it determines every node's chosen next hop and secure-path flag
// by processing nodes in ascending path length, in O(t·V) for average
// tiebreak-set size t, writing into a caller-owned tree without
// allocating. The deployment state is given as raw slices —
// secure[i] for deployment, breaks[i] for SecP tie-breaking — plus an
// optional flip bitmap (nil for none): nodes marked in it have their
// deployment flag treated as inverted, which realizes the projected
// state (¬S_n, S_-n) of the paper's update rule — including variants
// that bundle an ISP's simplex stub upgrades into its action — without
// copying the state.
//
// flipBreaks gives the SecP tie-break policy of nodes flipped ON: such a
// node breaks ties iff flipBreaks is nil or flipBreaks[i]. This is how
// projected simplex stubs honor Config.StubsBreakTies — the realized
// state would set breaks[i] = stubsBreakTies for them, and the
// projection must agree. A node flipped OFF never breaks ties.
//
// Only entries for the destination and reachable nodes are written: the
// tree must have been Cleared when this destination was first resolved
// into it.
//
// When the static info carries precomputed tiebreak winners
// (PrepareDest), the state-independent TB step costs O(1) per node.
// Unflipped resolutions against such a Static additionally take a
// struct-of-arrays fast path: the winner array is full-length with -1
// for the destination and unreachable nodes, so every parent is seeded
// by one whole-array copy and the per-node loop only computes Secure
// flags — with a full decision just for SecP nodes, whose parent may
// deviate from the plain-TB winner. The decision procedure is the same
// decideNode either way, so the resulting tree is bit-identical to the
// generic path's.
//
// The fast path is self-sufficient: the winner copy covers every Parent
// entry and the Secure flags are cleared here, so a caller switching
// destinations on it needs no Tree.Clear first (Static.HasWinners
// reports whether a given resolution takes it). The generic path keeps
// the Clear-once-per-destination contract above.
func (w *Workspace) ResolveInto(t *Tree, s *Static, secure, breaks []bool, flipped, flipBreaks []bool, tb Tiebreaker) {
	t.Dest = s.Dest
	n := w.g.N()
	if len(t.Parent) < n {
		t.Clear(n)
	}
	dSec := secure[s.Dest]
	if flipped != nil && flipped[s.Dest] {
		dSec = !dSec
	}

	if flipped == nil && s.win != nil {
		copy(t.Parent[:n], s.win[:n])
		t.Parent[s.Dest] = -1
		sec := t.Secure[:n]
		clear(sec)
		sec[s.Dest] = dSec
		if !dSec {
			// Secure flags propagate from the destination: with it
			// insecure no path can be fully secure, so every SecP
			// restriction is empty and every node keeps its plain-TB
			// winner — the whole-array copy above already wrote the
			// final tree and the per-node loop would only re-store
			// cleared flags.
			return
		}
		win := s.win
		for k, i := range s.order {
			// Insecure nodes keep the cleared flag — no store needed.
			if !secure[i] {
				continue
			}
			// A non-SecP node keeps its winner with the flag mirroring
			// it; so does a SecP node with a singleton tiebreak set (the
			// overwhelming majority) — one candidate admits no choice, and
			// decideNode would return exactly (win[i], sec[win[i]]).
			if !breaks[i] || s.tbOff[k+1]-s.tbOff[k] == 1 {
				sec[i] = sec[win[i]]
				continue
			}
			cands := s.tbAdj[s.tbOff[k]:s.tbOff[k+1]]
			if p, sc, ok := decideNode(t, s, cands, secure, breaks, nil, nil, tb, i); ok {
				t.Parent[i] = p
				sec[i] = sc
			}
		}
		return
	}
	t.Parent[s.Dest] = -1
	t.Secure[s.Dest] = dSec
	for k, i := range s.order {
		cands := s.tbAdj[s.tbOff[k]:s.tbOff[k+1]]
		if p, sc, ok := decideNode(t, s, cands, secure, breaks, flipped, flipBreaks, tb, i); ok {
			t.Parent[i] = p
			t.Secure[i] = sc
		}
	}
}

// decideNode runs the SecP and TB selection steps for node i against a
// tree whose entries for all strictly-shorter nodes are final. cands
// must be node i's tiebreak set (the CSR is position-indexed, and every
// caller already knows i's order position, so the row is passed in
// rather than re-located through pos). It is the single decision
// procedure shared by ResolveInto (full resolution) and ApplyFlips
// (change propagation), which is what makes the incremental strategy
// bit-identical to a full resolution by construction. ok is
// false for nodes with an empty tiebreak set (defensive: static
// construction guarantees non-empty sets for reachable non-destination
// nodes).
func decideNode(t *Tree, s *Static, cands []int32, secure, breaks []bool, flipped, flipBreaks []bool, tb Tiebreaker, i int32) (parent int32, sec, ok bool) {
	if len(cands) == 0 {
		return -1, false, false
	}
	iSecure, iBreaks := secure[i], breaks[i]
	if flipped != nil && flipped[i] {
		iSecure = !iSecure
		// Flipped ON: tie-break policy given by flipBreaks (nil
		// means break ties). Flipped OFF never breaks ties.
		iBreaks = iSecure && (flipBreaks == nil || flipBreaks[i])
	}
	if iSecure && iBreaks {
		// SecP: restrict to candidates offering fully-secure paths,
		// if any exist. Tiebreak sets are overwhelmingly singletons
		// (paper Fig. 10: mean 1.18), so that case is special-cased.
		if len(cands) == 1 {
			if b := cands[0]; t.Secure[b] {
				return b, true, true
			}
		} else {
			best := int32(-1)
			for _, b := range cands {
				if t.Secure[b] && (best == -1 || tb.Less(i, b, best)) {
					best = b
				}
			}
			if best >= 0 {
				return best, true, true
			}
		}
	}
	// Plain tie-break among all candidates: state-independent, so use
	// the precomputed winner when available.
	var best int32
	switch {
	case s.win != nil:
		best = s.win[i]
	case len(cands) == 1:
		best = cands[0]
	default:
		best = cands[0]
		for _, b := range cands[1:] {
			if tb.Less(i, b, best) {
				best = b
			}
		}
	}
	// Without SecP the path may still happen to be secure.
	return best, iSecure && t.Secure[best], true
}
