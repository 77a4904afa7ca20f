package routing

import (
	"encoding/binary"
	"fmt"

	"sbgp/internal/asgraph"
)

// Packed static snapshots. An unpacked snapshot stores six full-length
// node-indexed arrays (≈26 B/node before the delta index), which is
// what limits cache residency at paper scale: 36,964 destinations of
// 36,964 nodes need ~48 GB. The packed form drops to ≈3–5 B/node by
// storing only the reachable set and deriving everything node-indexed
// at decode time:
//
//	magic (1 byte)
//	uvarint dest, n, nOrder, nLevels
//	uvarint count[l] for l = 1..nLevels   (order entries at Len l)
//	type bits: ceil(nOrder/4) bytes, 2 bits per order position
//	    (0 = customer, 1 = peer, 2 = provider)
//	per order entry, in order:
//	    uvarint id gap     (ids ascend within a level; gap from the
//	                        previous id in the level, starting at -1)
//	    uvarint rowLen     (tiebreak-set width, ≥ 1)
//	    uvarint adjacency indices of the row members, gap-encoded —
//	        member m of node i's row is found at a known position of
//	        i's class adjacency list (Customers/Peers/Providers), and
//	        the CSR build scans that list in order, so positions
//	        ascend; the first is absolute, the rest are gaps
//	    uvarint winIdx     (row index of the plain-TB winner; omitted
//	                        for singleton rows, where it must be 0)
//
// Len is not stored per node at all: the order is grouped by level and
// levels are contiguous (every route extends a length−1 route), so the
// per-level counts in the header recover every Len exactly at any
// depth — denser than a byte shadow with an escape, and lossless for
// >254-level graphs too. Everything else node-indexed (Type, Len, pos,
// win as full arrays) is rebuilt by DecodePacked into a Workspace
// under the same clear-invariant the static build maintains, so a
// decode costs O(reachable), not O(N).
//
// The format is also the disk tier's record payload, so DecodePacked
// treats the blob as untrusted: every id, adjacency index and level
// relation is validated, and a corrupt blob yields an error with the
// workspace restored — never a panic or a poisoned scratch.

// packedMagic versions the packed encoding; bump on any layout change.
const packedMagic = 0xB5

// packedTypeCode maps the three encodable route classes to 2-bit
// codes. SelfRoute (the destination) and NoRoute (absent from the
// order) never appear in a blob.
func packedTypeCode(t RouteType) uint8 {
	switch t {
	case CustomerRoute:
		return 0
	case PeerRoute:
		return 1
	default: // ProviderRoute
		return 2
	}
}

// classAdj returns node i's adjacency list for route class code c: the
// list the tiebreak-CSR build scanned to collect i's row members.
func classAdj(g *asgraph.Graph, i int32, c uint8) []int32 {
	switch c {
	case 0:
		return g.Customers(i)
	case 1:
		return g.Peers(i)
	default:
		return g.Providers(i)
	}
}

// AppendPacked appends the packed encoding of s to dst and returns the
// extended slice. s must carry winners (PrepareDest, not ComputeStatic)
// and must have been computed on g.
func AppendPacked(dst []byte, s *Static, g *asgraph.Graph) []byte {
	if !s.HasWinners() {
		panic("routing: AppendPacked requires a PrepareDest static (winners present)")
	}
	nOrder := len(s.order)
	nLevels := 0
	if nOrder > 0 {
		nLevels = int(s.Len[s.order[nOrder-1]])
	}
	dst = append(dst, packedMagic)
	dst = binary.AppendUvarint(dst, uint64(s.Dest))
	dst = binary.AppendUvarint(dst, uint64(len(s.Type)))
	dst = binary.AppendUvarint(dst, uint64(nOrder))
	dst = binary.AppendUvarint(dst, uint64(nLevels))
	// Per-level counts: the order is already grouped by ascending Len.
	k := 0
	for l := int32(1); l <= int32(nLevels); l++ {
		start := k
		for k < nOrder && s.Len[s.order[k]] == l {
			k++
		}
		dst = binary.AppendUvarint(dst, uint64(k-start))
	}
	// Type section, 4 entries per byte in order sequence.
	tOff := len(dst)
	dst = append(dst, make([]byte, (nOrder+3)/4)...)
	for k, i := range s.order {
		dst[tOff+k/4] |= packedTypeCode(s.Type[i]) << uint((k%4)*2)
	}
	// Per-entry streams.
	prevID := int32(-1)
	prevLen := int32(1)
	for k, i := range s.order {
		if s.Len[i] != prevLen {
			prevID = -1
			prevLen = s.Len[i]
		}
		dst = binary.AppendUvarint(dst, uint64(i-prevID))
		prevID = i
		row := s.tbAdj[s.tbOff[k]:s.tbOff[k+1]]
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		adj := classAdj(g, i, packedTypeCode(s.Type[i]))
		cur, prevIdx, winIdx := 0, -1, -1
		for j, m := range row {
			for adj[cur] != m {
				cur++
			}
			dst = binary.AppendUvarint(dst, uint64(cur-prevIdx))
			prevIdx = cur
			cur++
			if m == s.win[i] {
				winIdx = j
			}
		}
		if len(row) > 1 {
			dst = binary.AppendUvarint(dst, uint64(winIdx))
		}
	}
	return dst
}

// PackedDest returns the destination id of a packed blob without
// decoding it, and whether the header was well-formed.
func PackedDest(blob []byte) (int32, bool) {
	if len(blob) < 2 || blob[0] != packedMagic {
		return 0, false
	}
	d, k := binary.Uvarint(blob[1:])
	if k <= 0 || d > uint64(1<<31-1) {
		return 0, false
	}
	return int32(d), true
}

// errPacked tags a corrupt or mismatched blob.
func errPacked(format string, args ...any) error {
	return fmt.Errorf("routing: bad packed static: "+format, args...)
}

// pkUv decodes the uvarint at b[off], returning the value and the
// advanced offset, or a negative offset on malformed input (including
// a negative off, so calls chain without intermediate checks). Gap
// encoding makes single-byte values the overwhelming majority of a
// packed stream; DecodePacked's loop open-codes that one-compare
// fast path (the combined helper exceeds the inlining budget) and
// falls back here for multi-byte values and stream ends.
func pkUv(b []byte, off int) (uint64, int) {
	if off < 0 || off >= len(b) {
		return 0, -1
	}
	v, k := binary.Uvarint(b[off:])
	if k <= 0 {
		return 0, -1
	}
	return v, off + k
}

// DecodePacked decodes blob into the workspace's static scratch — the
// same storage ComputeStatic builds into — and returns it. The result
// carries winners and is invalidated by the next ComputeStatic,
// PrepareDest or DecodePacked call on w. Cost is O(reachable): the
// decode marks exactly the blob's order entries and maintains the
// workspace's clear-invariant, so it composes freely with computed
// builds on the same workspace.
//
// The blob is treated as untrusted (it may come from the disk tier):
// any malformed header, out-of-range id or index, or level
// inconsistency returns an error with the workspace fully restored.
func (w *Workspace) DecodePacked(blob []byte) (*Static, error) {
	return w.decodePacked(blob, false)
}

// DecodePackedTrusted decodes like DecodePacked but skips the
// per-member level and class revalidation — the checks whose memory
// loads dominate a decode of a known-good blob.
//
// This is the trust model of every packed blob the engine reads, and
// the one place it is stated. A blob is either encoded by this process
// or read from the disk store, whose Lookup verifies its CRC; the
// resident store publishes both kinds alike. Every read — this decode,
// and StreamStatic.Resolve's walk — then runs the structural checks
// (header, ids and adjacency indexes in range, duplicates, level
// counts, trailing bytes), so malformed input errors cleanly with the
// workspace restored, and the runtime's bounds checks guard every
// access. What is skipped, the cross-field level/class relation, can
// only be wrong in a disk blob whose corruption the CRC missed: a
// 2^-32 event that yields a wrong static, never a panic or an
// out-of-bounds read.
func (w *Workspace) DecodePackedTrusted(blob []byte) (*Static, error) {
	return w.decodePacked(blob, true)
}

func (w *Workspace) decodePacked(blob []byte, trusted bool) (*Static, error) {
	g := w.g
	n := int32(g.N())
	s := &w.static

	if len(blob) < 2 || blob[0] != packedMagic {
		return nil, errPacked("missing magic")
	}
	off := 1
	var hd, hn, hOrder, hLevels uint64
	hd, off = pkUv(blob, off)
	hn, off = pkUv(blob, off)
	hOrder, off = pkUv(blob, off)
	hLevels, off = pkUv(blob, off)
	if off < 0 {
		return nil, errPacked("truncated header")
	}
	if hn != uint64(n) {
		return nil, errPacked("graph size %d, blob for %d", n, hn)
	}
	if hd >= uint64(n) {
		return nil, errPacked("destination %d out of range", hd)
	}
	d := int32(hd)
	nOrder := int(hOrder)
	nLevels := int(hLevels)
	if hOrder >= uint64(n) || hLevels > hOrder {
		return nil, errPacked("order %d / levels %d out of range", hOrder, hLevels)
	}
	countsOff := off
	total := 0
	for l := 0; l < nLevels; l++ {
		var c uint64
		c, off = pkUv(blob, off)
		if off < 0 || c > uint64(nOrder-total) {
			return nil, errPacked("bad level count")
		}
		total += int(c)
	}
	if total != nOrder {
		return nil, errPacked("level counts sum %d, want %d", total, nOrder)
	}
	tOff := off
	off += (nOrder + 3) / 4
	if off > len(blob) {
		return nil, errPacked("truncated type section")
	}

	// Header validated; from here on the decode writes into the
	// workspace and must restore it on any later error.
	w.unmarkPrev()
	s.Dest = d
	s.win = nil
	s.deltaReady = false
	s.provReady = false
	s.supOutReady = false
	s.supInReady = false
	s.Type[d] = SelfRoute
	s.Len[d] = 0
	if cap(s.order) < nOrder {
		s.order = make([]int32, 0, nOrder)
	}
	s.order = s.order[:0]
	s.tbAdj = s.tbAdj[:0]
	if cap(s.tbOff) < nOrder+1 {
		s.tbOff = make([]int32, 1, nOrder+1)
	}
	s.tbOff = s.tbOff[:1]

	fail := func(format string, args ...any) (*Static, error) {
		// Roll the partial marks back by un-marking what was written,
		// then leave the scratch looking like a fresh workspace.
		for _, i := range s.order {
			s.Type[i] = NoRoute
			s.Len[i] = -1
			s.pos[i] = -1
			w.winBuf[i] = -1
		}
		s.Type[d] = NoRoute
		s.Len[d] = -1
		s.order = s.order[:0]
		s.tbAdj = s.tbAdj[:0]
		s.tbOff = s.tbOff[:1]
		s.Dest = -1
		return nil, errPacked(format, args...)
	}

	cOff := countsOff
	k := 0
	tbits := blob[tOff : tOff+(nOrder+3)/4]
	sLen, sType := s.Len, s.Type
	// tbAdj stays in a local across the loop (written back on every
	// exit): append on the field would reload and respill the slice
	// header once per member.
	tbAdj := s.tbAdj
	for l := int32(1); l <= int32(nLevels); l++ {
		cnt, cl := binary.Uvarint(blob[cOff:])
		cOff += cl
		prevID := int32(-1)
		for e := uint64(0); e < cnt; e++ {
			var gap uint64
			if uint(off) < uint(len(blob)) && blob[off] < 0x80 {
				gap, off = uint64(blob[off]), off+1
			} else {
				gap, off = pkUv(blob, off)
			}
			if off < 0 || gap == 0 || gap > uint64(n) {
				return fail("bad id gap at entry %d", k)
			}
			i := prevID + int32(gap)
			if i >= n {
				return fail("id %d out of range at entry %d", i, k)
			}
			prevID = i
			if i == d || sType[i] != NoRoute {
				return fail("duplicate or destination id %d", i)
			}
			code := tbits[k>>2] >> ((k & 3) * 2) & 3
			if code == 3 {
				return fail("invalid type code at entry %d", k)
			}
			var rowLen uint64
			if uint(off) < uint(len(blob)) && blob[off] < 0x80 {
				rowLen, off = uint64(blob[off]), off+1
			} else {
				rowLen, off = pkUv(blob, off)
			}
			if off < 0 || rowLen == 0 {
				return fail("bad row length at entry %d", k)
			}
			adj := classAdj(g, i, code)
			if rowLen > uint64(len(adj)) {
				return fail("row wider than adjacency at entry %d", k)
			}
			var win int32
			if rowLen == 1 {
				// Singleton row — the common case — collapses to one gap
				// with the sole member as winner (no winIdx in the
				// stream), so it skips the general loop's bookkeeping.
				if uint(off) < uint(len(blob)) && blob[off] < 0x80 {
					gap, off = uint64(blob[off]), off+1
				} else {
					gap, off = pkUv(blob, off)
				}
				if off < 0 || gap == 0 || gap > uint64(len(adj)) {
					return fail("bad member index at entry %d", k)
				}
				m := adj[gap-1]
				if !trusted {
					if sLen[m] != l-1 {
						return fail("member %d not at level %d", m, l-1)
					}
					if code != 2 && sType[m] != CustomerRoute && sType[m] != SelfRoute {
						return fail("member %d wrong class", m)
					}
				}
				tbAdj = append(tbAdj, m)
				win = m
			} else {
				start := len(tbAdj)
				prevIdx := -1
				for j := uint64(0); j < rowLen; j++ {
					if uint(off) < uint(len(blob)) && blob[off] < 0x80 {
						gap, off = uint64(blob[off]), off+1
					} else {
						gap, off = pkUv(blob, off)
					}
					if off < 0 || gap == 0 || gap > uint64(len(adj)) {
						return fail("bad member index at entry %d", k)
					}
					prevIdx += int(gap)
					if prevIdx >= len(adj) {
						return fail("member index %d out of range at entry %d", prevIdx, k)
					}
					m := adj[prevIdx]
					// Every member must already be decoded one level up:
					// the length relation is what makes the row a valid
					// tiebreak set, and it doubles as corruption detection.
					if !trusted {
						if sLen[m] != l-1 {
							return fail("member %d not at level %d", m, l-1)
						}
						if code != 2 && sType[m] != CustomerRoute && sType[m] != SelfRoute {
							return fail("member %d wrong class", m)
						}
					}
					tbAdj = append(tbAdj, m)
				}
				var wi uint64
				if uint(off) < uint(len(blob)) && blob[off] < 0x80 {
					wi, off = uint64(blob[off]), off+1
				} else {
					wi, off = pkUv(blob, off)
				}
				if off < 0 || wi >= rowLen {
					return fail("bad winner index at entry %d", k)
				}
				win = tbAdj[start+int(wi)]
			}
			sType[i] = RouteType(code) + CustomerRoute
			sLen[i] = l
			s.pos[i] = int32(k)
			w.winBuf[i] = win
			s.order = append(s.order, i)
			s.tbOff = append(s.tbOff, int32(len(tbAdj)))
			k++
		}
	}
	s.tbAdj = tbAdj
	if off != len(blob) {
		return fail("%d trailing bytes", len(blob)-off)
	}
	s.win = w.winBuf
	return s, nil
}
