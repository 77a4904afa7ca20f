package routing

import "math/bits"

// TreeDiff stores a routing tree as its difference from the plain-TB
// winner tree of its Static. Every reachable node's parent is its
// tiebreak winner except where SecP picked a secure next hop instead
// (Observation C.1 fixes the classes and lengths; only the security
// criterion moves a parent), and such a node's own path is then secure.
// So a tree is the winner array plus the Secure flags plus the parent
// overrides, and every override sits at a set Secure flag. An insecure
// destination has no secure path anywhere: both parts are empty and the
// tree is exactly the winner tree.
type TreeDiff struct {
	// over holds (node, parent) pairs, one per node whose parent is not
	// its winner, in no particular order.
	over []int32
	// sec is the Secure flags as a node-indexed bitset; empty when no
	// flag is set.
	sec []uint64
}

// Bytes returns the diff's encoded size: 8 bytes per override plus the
// bitset.
func (df *TreeDiff) Bytes() int64 {
	return 4*int64(len(df.over)) + 8*int64(len(df.sec))
}

// StoreDiff encodes t, a tree resolved against s (ResolveInto, or
// advanced by ApplyFlips), into df, reusing df's storage. s must carry
// winners (HasWinners). One sequential pass builds the bitset a word at
// a time, and compares parents against winners only inside the words
// with a flag set.
func (s *Static) StoreDiff(df *TreeDiff, t *Tree) {
	if s.win == nil {
		panic("routing: StoreDiff needs a Static with winners")
	}
	n := len(s.Type)
	sec, par, win := t.Secure[:n], t.Parent[:n], s.win[:n]
	df.over = df.over[:0]
	df.sec = df.sec[:0]
	nw := (n + 63) / 64
	for w := 0; w < nw; w++ {
		lo := w << 6
		hi := min(lo+64, n)
		// Branch-free packing, highest node first: the flags follow the
		// tree's shape, not a pattern a branch predictor can learn.
		var word uint64
		for i := hi - 1; i >= lo; i-- {
			word = word<<1 | b2u(sec[i])
		}
		if word == 0 {
			continue
		}
		if len(df.sec) == 0 {
			if cap(df.sec) < nw {
				df.sec = make([]uint64, nw)
			}
			df.sec = df.sec[:nw]
			clear(df.sec)
		}
		df.sec[w] = word
		for i := lo; i < hi; i++ {
			if par[i] != win[i] {
				df.over = append(df.over, int32(i), par[i])
			}
		}
	}
	if len(df.sec) == 0 {
		df.sec = nil // nothing secure: hold no bitset storage either
	}
}

// LoadDiff writes the tree df encodes against s into t: the winner array
// by one whole-array copy, then the set Secure bits and the overrides.
// The result equals the tree StoreDiff was given, bit for bit, over all
// of its entries, so t needs no Clear first. s must carry winners.
func (s *Static) LoadDiff(t *Tree, df *TreeDiff) {
	if s.win == nil {
		panic("routing: LoadDiff needs a Static with winners")
	}
	n := len(s.Type)
	if len(t.Parent) < n {
		t.Clear(n)
	}
	t.Dest = s.Dest
	copy(t.Parent[:n], s.win[:n])
	t.Parent[s.Dest] = -1
	sec := t.Secure[:n]
	clear(sec)
	for w, word := range df.sec {
		for ; word != 0; word &= word - 1 {
			sec[w<<6|bits.TrailingZeros64(word)] = true
		}
	}
	for k := 0; k < len(df.over); k += 2 {
		t.Parent[df.over[k]] = df.over[k+1]
	}
}

// CommitDiff updates df, the diff of the tree the preceding ApplyFlips
// on w started from, to t, the tree that call left — the same diff
// StoreDiff would build, in O(changed entries + overrides) instead of
// O(N): only nodes in the undo log can have moved a flag or a parent.
// The caller must not have reverted the flips.
func (w *Workspace) CommitDiff(df *TreeDiff, s *Static, t *Tree) {
	win := s.win
	k := 0
	for j := 0; j < len(df.over); j += 2 {
		if i := df.over[j]; t.Parent[i] != win[i] {
			df.over[k], df.over[k+1] = i, t.Parent[i]
			k += 2
		}
	}
	df.over = df.over[:k]
	for _, e := range w.undo {
		i := e.node
		if e.parent == win[i] && t.Parent[i] != win[i] {
			df.over = append(df.over, i, t.Parent[i])
		}
		if t.Secure[i] {
			if len(df.sec) == 0 {
				df.sec = make([]uint64, (len(s.Type)+63)/64)
			}
			df.sec[i>>6] |= 1 << uint(i&63)
		} else if len(df.sec) > 0 {
			df.sec[i>>6] &^= 1 << uint(i&63)
		}
	}
	if !t.Secure[s.Dest] {
		// An insecure destination has no secure path: every flag is
		// clear and every parent its winner.
		df.sec = nil
	}
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
