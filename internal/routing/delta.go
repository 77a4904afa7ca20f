package routing

import "math/bits"

// Delta resolution computes projected routing trees by change
// propagation instead of re-resolution. A node's decision depends only
// on its own flags and the Secure flags of its tiebreak candidates
// (strictly shorter nodes), so flipping a small set of nodes can only
// alter the decisions of the flipped nodes themselves plus,
// transitively, the *dependents* of every node whose Secure flag
// actually changed — where the dependents of b are the nodes listing b
// in their tiebreak set. ApplyFlips walks exactly that affected set in
// ascending order position, which for typical flip sets is a vanishing
// fraction of the graph (most projections die after a handful of
// nodes), and an undo log restores the base tree afterwards in
// O(touched).

// undoEntry records one node's pre-flip tree entry.
type undoEntry struct {
	node   int32
	parent int32
	secure bool
}

// PrepareDelta builds the dependents index for the given static info —
// the transpose of the tiebreak adjacency. The index is optional:
// ApplyFlips uses it when present and otherwise derives each dependents
// row from the graph adjacency (see enqueueDependents), so building it
// pays only for a static that will run many propagations. It is stored
// on the Static itself (it is as state-independent as the rest of it);
// repeated calls on a Static that already carries the index — a cached
// snapshot resolved round after round — are O(1) no-ops.
func (w *Workspace) PrepareDelta(s *Static) {
	if s.deltaReady {
		return
	}
	n := w.g.N()
	if len(w.revCur) < n {
		w.revCur = make([]int32, n)
	}
	if cap(s.revOff) < n+1 {
		s.revOff = make([]int32, n+1)
	}
	s.revOff = s.revOff[:n+1]
	for i := 0; i <= n; i++ {
		s.revOff[i] = 0
	}
	for _, b := range s.tbAdj {
		s.revOff[b+1]++
	}
	for i := 0; i < n; i++ {
		s.revOff[i+1] += s.revOff[i]
	}
	if cap(s.revAdj) < len(s.tbAdj) {
		s.revAdj = make([]int32, len(s.tbAdj))
	}
	s.revAdj = s.revAdj[:len(s.tbAdj)]
	copy(w.revCur, s.revOff[:n])
	for k, i := range s.order {
		for _, b := range s.tbAdj[s.tbOff[k]:s.tbOff[k+1]] {
			s.revAdj[w.revCur[b]] = i
			w.revCur[b]++
		}
	}
	s.deltaReady = true
}

// setPending sets order position p's bit in the pending bitset and
// returns 1 if it was clear, 0 if it was already set.
func setPending(pend []uint64, p int32) int {
	word, bit := p>>6, uint64(1)<<uint(p&63)
	if pend[word]&bit != 0 {
		return 0
	}
	pend[word] |= bit
	return 1
}

// enqueueDependents sets the pending bit of every dependent of node i —
// the nodes listing i in their tiebreak set — and returns how many bits
// were newly set. With the dependents index present that is one revAdj
// row. Without it the row is derived from the graph: computeStatic puts
// b in node x's set iff x is b's neighbor of the class matching x's
// route type and Len[x] == Len[b]+1 (customer and peer rows additionally
// require b to hold a customer or self route), so the transpose is i's
// providers with a customer route, i's peers with a peer route — both
// only when i itself holds a customer or self route — and i's customers
// with a provider route, each one hop longer than i. Same set either
// way, and the bitset makes the enumeration order irrelevant.
func (w *Workspace) enqueueDependents(s *Static, i int32, pend []uint64) (added int) {
	if s.deltaReady {
		for _, j := range s.revAdj[s.revOff[i]:s.revOff[i+1]] {
			added += setPending(pend, s.pos[j])
		}
		return added
	}
	g := w.g
	l := s.Len[i] + 1
	if ti := s.Type[i]; ti == CustomerRoute || ti == SelfRoute {
		for _, x := range g.Providers(i) {
			if s.Len[x] == l && s.Type[x] == CustomerRoute {
				added += setPending(pend, s.pos[x])
			}
		}
		for _, x := range g.Peers(i) {
			if s.Len[x] == l && s.Type[x] == PeerRoute {
				added += setPending(pend, s.pos[x])
			}
		}
	}
	for _, x := range g.Customers(i) {
		if s.Len[x] == l && s.Type[x] == ProviderRoute {
			added += setPending(pend, s.pos[x])
		}
	}
	return added
}

// ApplyFlips mutates t — which must currently equal the tree resolved
// for (s, secure, breaks) with no flips — into the projected tree for
// the given flip set, bit-identical to a full ResolveInto with the same
// arguments. Seeded with the reachable flipped nodes, it re-decides
// nodes in ascending order position (so every candidate is final when
// read, exactly as in a full resolution) and enqueues the dependents of
// each node whose Secure flag changes; nodes never reached provably
// decide as in the base tree.
//
// The pending set is a bitset over order positions with a
// forward-moving cursor: a node's dependents sit at strictly larger
// positions, so pops are monotonically increasing and the cursor never
// backs up — push and pop are O(1) amortized, versus O(log k) for the
// binary heap this replaces, and the pop sequence (ascending unique
// positions) is identical. The cursor starts at the lowest seeded word:
// a lone flip deep in the order does not scan the empty words before it.
//
// It returns whether any parent differs from the base tree — when false
// the projected tree routes identically, so every traffic accumulation
// over it is bit-equal to the base one — and the number of nodes
// re-decided (the propagation work). RevertFlips restores t; a caller
// that instead wants to keep the projected tree (committing a realized
// state change rather than probing a hypothetical one) simply skips the
// Revert — the next ApplyFlips resets the undo log. It needs no
// preparation: the pending bitset is sized here, and the dependents
// index (PrepareDelta) is used when s carries one.
func (w *Workspace) ApplyFlips(t *Tree, s *Static, secure, breaks []bool, flipped, flipBreaks []bool, flipList []int32, tb Tiebreaker) (changed bool, touched int) {
	w.undo = w.undo[:0]
	if nw := (w.g.N() + 63) / 64; len(w.pend) < nw {
		w.pend = make([]uint64, nw)
	}
	pend := w.pend
	pending := 0
	word := len(pend) // lowest seeded word; only read once something is pending
	for _, f := range flipList {
		if f == s.Dest {
			// The destination's entry is Parent -1, Secure = its own
			// deployment flag; a flip toggles Secure and can affect any
			// node listing the destination as a next hop.
			dSec := !secure[f]
			if t.Secure[f] != dSec {
				w.undo = append(w.undo, undoEntry{f, t.Parent[f], t.Secure[f]})
				t.Secure[f] = dSec
				pending += w.enqueueDependents(s, f, pend)
				word = 0 // its dependents open the order
			}
			continue
		}
		if p := s.pos[f]; p >= 0 {
			pending += setPending(pend, p)
			if wd := int(p >> 6); wd < word {
				word = wd
			}
		}
	}
	for pending > 0 {
		for pend[word] == 0 {
			word++
		}
		b := bits.TrailingZeros64(pend[word])
		pend[word] &^= 1 << uint(b)
		pending--
		k := word<<6 | b
		i := s.order[k]
		touched++
		// Singleton tiebreak sets (the overwhelming majority, paper
		// Fig. 10) admit no choice: decideNode provably returns the lone
		// candidate as parent with the flag simply mirroring it, so the
		// call — and its candidate scan — is short-circuited.
		var p int32
		var sec, ok bool
		if o := s.tbOff[k]; s.tbOff[k+1]-o == 1 {
			p = s.tbAdj[o]
			iSec := secure[i]
			if flipped != nil && flipped[i] {
				iSec = !iSec
			}
			sec, ok = iSec && t.Secure[p], true
		} else {
			p, sec, ok = decideNode(t, s, s.tbAdj[o:s.tbOff[k+1]], secure, breaks, flipped, flipBreaks, tb, i)
		}
		if !ok || (p == t.Parent[i] && sec == t.Secure[i]) {
			continue
		}
		w.undo = append(w.undo, undoEntry{i, t.Parent[i], t.Secure[i]})
		if p != t.Parent[i] {
			changed = true
		}
		secChanged := sec != t.Secure[i]
		t.Parent[i] = p
		t.Secure[i] = sec
		if secChanged {
			pending += w.enqueueDependents(s, i, pend)
		}
	}
	return changed, touched
}

// UndoSize returns the number of tree entries the preceding ApplyFlips
// changed (the size of its undo log). Zero means the projected tree is
// bit-identical to the tree passed in — not even a Secure flag moved.
func (w *Workspace) UndoSize() int { return len(w.undo) }

// ParentMoves appends to dst the nodes whose Parent entry the preceding
// ApplyFlips actually changed in t — the exact structural difference
// between the projected tree and the tree passed in (Secure-only
// changes excluded) — and returns it. Each node appears at most once:
// the undo log holds one entry per changed node.
func (w *Workspace) ParentMoves(t *Tree, dst []int32) []int32 {
	for _, e := range w.undo {
		if e.parent != t.Parent[e.node] {
			dst = append(dst, e.node)
		}
	}
	return dst
}

// RevertFlips undoes the preceding ApplyFlips, restoring t to the base
// tree in O(nodes changed).
func (w *Workspace) RevertFlips(t *Tree) {
	for k := len(w.undo) - 1; k >= 0; k-- {
		e := w.undo[k]
		t.Parent[e.node] = e.parent
		t.Secure[e.node] = e.secure
	}
	w.undo = w.undo[:0]
}
