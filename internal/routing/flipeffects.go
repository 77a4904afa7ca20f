package routing

// Batched projection prediction. Candidate projections flip a single
// node's deployment flag and ask whether any parent in the routing tree
// moves — when none does, the projected tree routes identically and the
// utility delta is exactly zero (the common case: two thirds of
// surviving projections in a typical round). ApplyFlips discovers that
// by actually propagating the change and undoing it; the pass below
// answers it for every candidate of a destination at once, with one
// walk over the destination's tree per round.
//
// The observable a single flip propagates through the tree is one
// node's Secure flag. A flip of node b's flag ripples strictly
// downstream (dependents sit at larger order positions) and, from the
// base tree's value of b, in one monotone direction: a gain can only
// cause gains, a loss only losses. At a dependent j the ripple either
// dies (j's entry is unaffected), moves j's parent (the projection
// differs structurally — the expensive propagation is genuinely
// needed), or flips j's own Secure flag with the parent unchanged, in
// the same direction b flipped. That last case is the recursion: j's
// flag now plays b's role one level down. moveIf[pos(b)] therefore
// answers "if b's Secure flag flipped from its base value, would any
// parent anywhere downstream move?". It is computed in one descending
// pass over the forward tiebreak CSR — no dependents index: row j ORs
// its verdict into the bit of each candidate b it lists, and j's own
// bit is final by the time its row is read, because every dependent of
// j sits at a larger order position and was handled first (the bitset
// is order-position indexed, like ApplyFlips' pending set). Only a SecP
// node with more than one candidate can move its parent, so only those
// rows are visited; every other secure node just hands its own bit on
// to its winner, which happens the moment the bit is set.
//
// The per-candidate query (FlipChangesTree) then decides the
// candidate's own entry exactly as decideNode would and chains into
// moveIf when only its Secure flag changes. Predicted "no move" is
// exact, not conservative: the monotone-direction argument above makes
// every no-move/no-ripple case airtight, so a skipped projection is
// guaranteed to have a zero delta. (The reverse direction may
// over-approximate inside the pass — a joint ripple can cancel at a
// node where single-flag analysis predicts a move — which only costs a
// wasted ApplyFlips that then reports no change.)

// PrepareFlipEffects computes the move predictor for destination
// static s against base tree t, which must be resolved for (s, secure,
// breaks) with no flips; s must carry winners (PrepareDest). The
// predictor is valid until s, t or the deployment state changes; it
// lives in workspace scratch, so it is invalidated by the next
// PrepareFlipEffects on this workspace.
func (w *Workspace) PrepareFlipEffects(s *Static, t *Tree, secure, breaks []bool, tb Tiebreaker) {
	order, win, pos := s.order, s.win, s.pos
	nw := (len(order) + 63) / 64
	if cap(w.effBits) < nw {
		w.effBits = make([]uint64, nw)
	}
	w.effBits = w.effBits[:nw]
	clear(w.effBits)
	eff := w.effBits
	tbOff := s.tbOff[:len(order)+1]

	// A parent can only move at a SecP node with a real choice, so only
	// rows wider than one can originate a verdict; every other row at
	// most forwards its own bit to its winner, which mark does the moment
	// the bit is set. Collect the wide rows first — one sequential pass
	// with nothing data-dependent to mispredict — and visit only those.
	if cap(w.widePos) < len(order) {
		w.widePos = make([]int32, len(order))
	}
	wide := w.widePos[:len(order)]
	nWide := 0
	hi := tbOff[len(order)]
	for k := len(order) - 1; k >= 0; k-- {
		lo := tbOff[k]
		wide[nWide] = int32(k)
		x := hi - lo - 1 // width-1 ≥ 0; the sign bit of x|-x is set iff x != 0
		nWide += int(uint32(x|-x) >> 31)
		hi = lo
	}

	// mark sets position p's bit and forwards it: a secure node that is
	// plain, or SecP with a single candidate, keeps its winner as parent
	// and mirrors the winner's flag, so if flipping its flag moves
	// something downstream, flipping its winner's does too. The chain
	// climbs to ever smaller positions and stops at an insecure node (its
	// flag is pinned false), at a SecP node with a choice (its row
	// decides, when the descending visit below reaches it), at the
	// destination, or at a bit already set.
	mark := func(p int32) {
		for p >= 0 && eff[p>>6]&(1<<uint(p&63)) == 0 {
			eff[p>>6] |= 1 << uint(p&63)
			j := order[p]
			if !secure[j] || (breaks[j] && tbOff[p+1]-tbOff[p] != 1) {
				return
			}
			p = pos[win[j]]
		}
	}

	for _, k := range wide[:nWide] { // descending positions
		j := order[k]
		if !secure[j] {
			continue // j's parent is win[j] and its flag false, whatever its candidates do
		}
		// j's own bit is final here: everything that can set it sits at
		// a larger position and was visited, or forwarded, already.
		jMoves := eff[k>>6]&(1<<uint(k&63)) != 0
		if !breaks[j] {
			continue // plain: mark forwarded its bit to the winner already
		}
		// SecP node with a real choice. For such a node the tree flag also
		// tells whether any tiebreak candidate currently offers a secure
		// path: the decision picks one iff one exists.
		row := s.tbAdj[tbOff[k]:tbOff[k+1]]
		if !t.Secure[j] {
			// None does, so every candidate is insecure, and one gaining
			// a secure path becomes j's first: decideNode would pick it.
			// The parent moves unless that candidate is the plain winner
			// already, and then j's flag rises false→true — recurse.
			for _, b := range row {
				if b != win[j] || jMoves {
					mark(pos[b])
				}
			}
			continue
		}
		parent := t.Parent[j] // secure, and j's pick among the secure candidates
		for _, b := range row {
			p := pos[b]
			if p < 0 || eff[p>>6]&(1<<uint(p&63)) != 0 {
				continue // the destination (never queried), or already known to move
			}
			switch {
			case b == parent:
				// j loses its chosen parent: re-decide among the remaining
				// secure candidates, mirroring decideNode's selection. The
				// parent moves to the best of them, or falls to a different
				// plain winner; otherwise it stays b (= win[j]) and j's flag
				// drops true→false — recurse.
				best := int32(-1)
				for _, q := range row {
					if q != b && t.Secure[q] && (best == -1 || tb.Less(j, q, best)) {
						best = q
					}
				}
				if best >= 0 || win[j] != b || jMoves {
					mark(p)
				}
			case t.Secure[b]:
				// A non-chosen secure candidate vanishing never changes the
				// argmin.
			case tb.Less(j, b, parent):
				// b gains a secure path while j already routes securely: the
				// newcomer wins only if the tiebreaker prefers it.
				mark(p)
			}
		}
	}
}

// FlipChangesTree predicts whether flipping the single node c — a
// non-destination node in s's order whose projected tie-break policy is
// to break ties when secure — produces a projected tree whose parents
// differ anywhere from base tree t. false guarantees the projection
// routes identically to the base (its utility delta is exactly zero and
// ApplyFlips can be skipped); true means change propagation is needed.
// PrepareFlipEffects must have run for (s, t, secure, breaks, tb) on
// this workspace.
func (w *Workspace) FlipChangesTree(s *Static, t *Tree, secure, breaks []bool, tb Tiebreaker, c int32) bool {
	p := s.pos[c]
	if !secure[c] {
		// Turn-on: c becomes SecP and picks its best secure candidate, if
		// any — mirroring decideNode's selection.
		cands := s.Tiebreak(c)
		best := int32(-1)
		if len(cands) == 1 {
			if b := cands[0]; t.Secure[b] {
				best = b
			}
		} else {
			for _, b := range cands {
				if t.Secure[b] && (best == -1 || tb.Less(c, b, best)) {
					best = b
				}
			}
		}
		if best < 0 {
			return false // no secure candidate: entry unchanged entirely
		}
		if best != s.win[c] {
			return true // c's own parent moves
		}
		// Parent stays win[c]; c's flag rises false→true — ripple.
		return w.effBits[p>>6]&(1<<uint(p&63)) != 0
	}
	// Turn-off: c falls back to its plain winner, flag false.
	if t.Parent[c] != s.win[c] {
		return true // c's own parent moves back to the winner
	}
	if !t.Secure[c] {
		return false // no secure flag to lose: entry unchanged entirely
	}
	// Parent stays; c's flag drops true→false — ripple.
	return w.effBits[p>>6]&(1<<uint(p&63)) != 0
}
