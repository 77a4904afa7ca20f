package routing

import (
	"encoding/binary"

	"sbgp/internal/asgraph"
)

// Streaming resolution over packed blobs. A packed blob (packed.go)
// already stores the order entries level-ascending with each node's
// tiebreak row and plain-TB winner — exactly the inputs, in exactly the
// sequence, the fast routing tree algorithm consumes. When a
// destination's round needs nothing beyond the resolved tree (no
// projection scratch: base passes, or candidate rounds where every
// candidate is pruned by the C.4 skip rules), the decode→resolve
// two-pass over workspace scratch is pure overhead: this file fuses
// them into one forward walk of the blob that materializes no
// node-indexed workspace arrays at all.
//
// Bit-identity argument: the walk visits entries in the blob's order,
// which is the static processing order (ascending length, ascending id
// within a length), and decides each node with the same procedure as
// decideNode — SecP restriction to secure candidates scanned in CSR row
// order under the same tb.Less, plain-TB winner otherwise — against
// Secure flags of strictly shorter nodes that were themselves decided
// the same way. Parents and Secure flags therefore match
// DecodePackedTrusted + ResolveInto entry for entry, and any
// accumulation that walks the same entries in the same (reverse)
// sequence adds the same floats in the same order.
//
// When the destination itself is insecure no path to it can be fully
// secure, so every Secure flag is false and every node keeps its
// precomputed winner: the walk skips the SecP machinery wholesale (the
// per-destination generalization of the round-wide noSecure guard) and
// the resolved tree is the static winner tree — the state-independent
// resolution whose contributions the sidecar tier (sidecar.go) replays.

// StreamStatic is the self-contained scratch a streaming resolution
// writes into: compact per-entry arrays in blob order plus node-indexed
// bitsets. One per worker goroutine; Resolve overwrites it.
type StreamStatic struct {
	g    *asgraph.Graph
	dest int32

	// Per-entry results in blob (= processing) order.
	order  []int32
	parent []int32
	typ    []RouteType

	anySecure bool

	// Node-indexed bitsets, cleared at the start of every Resolve:
	// decoded-node set (the destination and every order entry — doubles
	// as duplicate detection), resolved Secure flags, and the
	// customer-route class (the outgoing-model support test).
	reachBits []uint64
	secBits   []uint64
	custBits  []uint64

	rowBuf []int32 // member scratch for multi-member tiebreak rows
}

// NewStreamStatic returns streaming scratch sized for graph g.
func NewStreamStatic(g *asgraph.Graph) *StreamStatic {
	n := g.N()
	return &StreamStatic{
		g:         g,
		dest:      -1,
		order:     make([]int32, 0, n),
		parent:    make([]int32, 0, n),
		typ:       make([]RouteType, 0, n),
		reachBits: make([]uint64, (n+63)/64),
		secBits:   make([]uint64, (n+63)/64),
		custBits:  make([]uint64, (n+63)/64),
	}
}

// Dest returns the destination of the last successful Resolve.
func (sr *StreamStatic) Dest() int32 { return sr.dest }

// Order returns the resolved nodes in processing order (aliases
// internal storage, valid until the next Resolve).
func (sr *StreamStatic) Order() []int32 { return sr.order }

// Parents returns each order entry's chosen next hop, parallel to
// Order().
func (sr *StreamStatic) Parents() []int32 { return sr.parent }

// Types returns each order entry's route class, parallel to Order().
func (sr *StreamStatic) Types() []RouteType { return sr.typ }

// AnySecure reports whether any resolved node has a fully secure path.
func (sr *StreamStatic) AnySecure() bool { return sr.anySecure }

// Reachable reports whether node i was reachable in the last Resolve
// (the destination included).
func (sr *StreamStatic) Reachable(i int32) bool {
	return sr.reachBits[i>>6]&(1<<uint(i&63)) != 0
}

// IsCustomer reports whether node i's best route is customer-class.
func (sr *StreamStatic) IsCustomer(i int32) bool {
	return sr.custBits[i>>6]&(1<<uint(i&63)) != 0
}

// Secure reports whether node i's resolved path is fully secure.
func (sr *StreamStatic) Secure(i int32) bool {
	return sr.secBits[i>>6]&(1<<uint(i&63)) != 0
}

// Resolve walks blob once, deciding every node as it is decoded, and
// leaves the resolved tree in sr's compact arrays. The blob is trusted
// to the same degree as DecodePackedTrusted, under the model stated
// there: all structural checks run (bounds, duplicates, level counts,
// trailing bytes) but the per-member level/class revalidation is
// skipped.
// On error sr is left cleared (the next Resolve reinitializes it) and
// the caller falls back to the decode+resolve path.
func (sr *StreamStatic) Resolve(blob []byte, secure, breaks []bool, tb Tiebreaker) error {
	g := sr.g
	n := int32(g.N())

	fail := func(format string, args ...any) error {
		sr.dest = -1
		sr.order = sr.order[:0]
		sr.parent = sr.parent[:0]
		sr.typ = sr.typ[:0]
		sr.anySecure = false
		return errPacked(format, args...)
	}

	if len(blob) < 2 || blob[0] != packedMagic {
		return fail("missing magic")
	}
	off := 1
	var hd, hn, hOrder, hLevels uint64
	hd, off = pkUv(blob, off)
	hn, off = pkUv(blob, off)
	hOrder, off = pkUv(blob, off)
	hLevels, off = pkUv(blob, off)
	if off < 0 {
		return fail("truncated header")
	}
	if hn != uint64(n) {
		return fail("graph size %d, blob for %d", n, hn)
	}
	if hd >= uint64(n) {
		return fail("destination %d out of range", hd)
	}
	d := int32(hd)
	nOrder := int(hOrder)
	nLevels := int(hLevels)
	if hOrder >= uint64(n) || hLevels > hOrder {
		return fail("order %d / levels %d out of range", hOrder, hLevels)
	}
	countsOff := off
	total := 0
	for l := 0; l < nLevels; l++ {
		var c uint64
		c, off = pkUv(blob, off)
		if off < 0 || c > uint64(nOrder-total) {
			return fail("bad level count")
		}
		total += int(c)
	}
	if total != nOrder {
		return fail("level counts sum %d, want %d", total, nOrder)
	}
	tOff := off
	off += (nOrder + 3) / 4
	if off > len(blob) {
		return fail("truncated type section")
	}

	sr.dest = d
	sr.order = sr.order[:0]
	sr.parent = sr.parent[:0]
	sr.typ = sr.typ[:0]
	sr.anySecure = false
	clear(sr.reachBits)
	clear(sr.secBits)
	clear(sr.custBits)
	reach, sec, cust := sr.reachBits, sr.secBits, sr.custBits
	reach[d>>6] |= 1 << uint(d&63)
	dSec := secure[d]
	if dSec {
		sec[d>>6] |= 1 << uint(d&63)
		sr.anySecure = true
	}

	cOff := countsOff
	k := 0
	tbits := blob[tOff : tOff+(nOrder+3)/4]
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
			if reach[i>>6]&(1<<uint(i&63)) != 0 {
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
			// Decode the row and decide node i in the same motion,
			// replicating decideNode: SecP nodes (secure and tie-breaking)
			// prefer the tb.Less-minimal secure candidate scanned in row
			// order; everyone else — and SecP nodes with no secure
			// candidate — takes the precomputed plain-TB winner, secure iff
			// the node and its winner's path both are. With an insecure
			// destination no candidate can be secure, so every node takes
			// its winner with a false flag and the state arrays are never
			// read at all.
			var parent int32
			iSec := false
			if rowLen == 1 {
				if uint(off) < uint(len(blob)) && blob[off] < 0x80 {
					gap, off = uint64(blob[off]), off+1
				} else {
					gap, off = pkUv(blob, off)
				}
				if off < 0 || gap == 0 || gap > uint64(len(adj)) {
					return fail("bad member index at entry %d", k)
				}
				parent = adj[gap-1]
				if dSec && secure[i] {
					iSec = sec[parent>>6]&(1<<uint(parent&63)) != 0
				}
			} else {
				row := sr.rowBuf[:0]
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
					row = append(row, adj[prevIdx])
				}
				sr.rowBuf = row
				var wi uint64
				if uint(off) < uint(len(blob)) && blob[off] < 0x80 {
					wi, off = uint64(blob[off]), off+1
				} else {
					wi, off = pkUv(blob, off)
				}
				if off < 0 || wi >= rowLen {
					return fail("bad winner index at entry %d", k)
				}
				parent = row[int(wi)]
				if dSec && secure[i] {
					if breaks[i] {
						best := int32(-1)
						for _, b := range row {
							if sec[b>>6]&(1<<uint(b&63)) != 0 && (best == -1 || tb.Less(i, b, best)) {
								best = b
							}
						}
						if best >= 0 {
							parent = best
							iSec = true
						}
					}
					if !iSec {
						iSec = sec[parent>>6]&(1<<uint(parent&63)) != 0
					}
				}
			}
			reach[i>>6] |= 1 << uint(i&63)
			if iSec {
				sec[i>>6] |= 1 << uint(i&63)
				sr.anySecure = true
			}
			if code == 0 {
				cust[i>>6] |= 1 << uint(i&63)
			}
			sr.order = append(sr.order, i)
			sr.parent = append(sr.parent, parent)
			sr.typ = append(sr.typ, RouteType(code)+CustomerRoute)
			k++
		}
	}
	if off != len(blob) {
		return fail("%d trailing bytes", len(blob)-off)
	}
	return nil
}
