package routing

import (
	"bytes"
	"encoding/binary"

	"sbgp/internal/asgraph"
)

// SpliceLeafBlob appends to dst the packed blob of destination leaf,
// derived from blob, the packed blob of its sibling filler, and reports
// whether it could. Both must be leaves of p: stubs whose one neighbor
// is their provider p.
//
// The swap of the two leaves is a graph automorphism, and the tie-break
// never sees a destination (DESIGN.md §5k), so leaf's static is
// filler's with the two leaves exchanged. In the packed form (packed.go)
// that exchange touches three places: the header's destination; p's
// entry, the only one at Len 1, whose singleton row names the
// destination by its index in Customers(p); and the Len-2 block, p's
// children in ascending id, where leaf sits as a provider-route child
// with the row {p} and filler takes its place at its own id's rank. No
// other row can name either leaf — a row holds neighbors of its node,
// and a leaf's one neighbor is p — so every byte from Len 3 on, the
// bulk of the blob, is copied as it is.
//
// Every precondition is checked: the two leaves' adjacency, the header,
// p's entry and the leaf's. On any mismatch the splice returns dst at
// its original length and false; it never panics. The copied levels are not
// validated: a reader that does not trust the source decodes the
// spliced blob with DecodePacked, as any other.
func SpliceLeafBlob(dst, blob []byte, g *asgraph.Graph, filler, leaf, p int32) ([]byte, bool) {
	n := int32(g.N())
	if filler == leaf || !leafOf(g, filler, p) || !leafOf(g, leaf, p) {
		return dst, false
	}
	lIdx := -1 // leaf's index in Customers(p): p's row toward the leaf
	for k, c := range g.Customers(p) {
		if c == leaf {
			lIdx = k
		}
	}

	// Header: magic, destination, then n, the order and level sizes and
	// the per-level counts, which the splice keeps.
	if len(blob) < 2 || blob[0] != packedMagic || lIdx < 0 {
		return dst, false
	}
	hd, off := pkUv(blob, 1)
	keep := off
	hn, off := pkUv(blob, off)
	hOrder, off := pkUv(blob, off)
	hLevels, off := pkUv(blob, off)
	if off < 0 || hd != uint64(filler) || hn != uint64(n) || hOrder >= uint64(n) || hLevels < 2 || hLevels > hOrder {
		return dst, false
	}
	var c1, c2, total uint64
	for l := uint64(1); l <= hLevels; l++ {
		var c uint64
		c, off = pkUv(blob, off)
		if off < 0 || c > hOrder-total {
			return dst, false
		}
		total += c
		if l == 1 {
			c1 = c
		} else if l == 2 {
			c2 = c
		}
	}
	tOff, tLen := off, int(hOrder+3)/4
	off += tLen
	if total != hOrder || c1 != 1 || c2 == 0 || off > len(blob) {
		return dst, false
	}
	code := func(k int) uint8 { return blob[tOff+k>>2] >> ((k & 3) * 2) & 3 }

	// p's entry: id p, a customer route whose singleton row is {filler}.
	var gap, rowLen, idx uint64
	gap, off = pkUv(blob, off)
	rowLen, off = pkUv(blob, off)
	idx, off = pkUv(blob, off)
	cust := g.Customers(p)
	if off < 0 || code(0) != 0 || gap != uint64(p)+1 || rowLen != 1 ||
		idx == 0 || idx > uint64(len(cust)) || cust[idx-1] != filler {
		return dst, false
	}

	start := len(dst)
	dst = append(dst, packedMagic)
	dst = binary.AppendUvarint(dst, uint64(leaf))
	dst = append(dst, blob[keep:tOff]...)
	tOut := len(dst)
	dst = append(dst, blob[tOff:tOff+tLen]...)
	dst = binary.AppendUvarint(dst, uint64(p)+1)
	dst = append(dst, 1)
	dst = binary.AppendUvarint(dst, uint64(lIdx)+1)

	// The Len-2 block, re-emitted with the leaf's entry dropped and the
	// filler's, the same row bytes, inserted at its rank: ids regapped,
	// type codes rewritten at their new positions. The leaf's entry must
	// be a provider route with the row {p}, and the filler, the
	// destination, must not appear.
	q, last := 1, int32(-1) // next order position; last id written
	put := func(id int32, c uint8, row []byte) {
		dst = binary.AppendUvarint(dst, uint64(id-last))
		dst = append(dst, row...)
		sh := uint(q&3) * 2
		dst[tOut+q>>2] = dst[tOut+q>>2]&^(3<<sh) | c<<sh
		q, last = q+1, id
	}
	leafRow := []byte{1, 1} // one member, p, at index 0 of the leaf's providers
	found, prev := false, int32(-1)
	for k := 0; k < int(c2); k++ {
		gap, off = pkUv(blob, off)
		if off < 0 || gap == 0 || gap > uint64(n-1-prev) {
			return dst[:start], false
		}
		id, row := prev+int32(gap), off
		if off = skipRow(blob, off); off < 0 || id == filler {
			return dst[:start], false
		}
		prev = id
		if id == leaf {
			if code(1+k) != 2 || !bytes.Equal(blob[row:off], leafRow) {
				return dst[:start], false
			}
			found = true
			continue
		}
		if last < filler && filler < id {
			put(filler, 2, leafRow)
		}
		put(id, code(1+k), blob[row:off])
	}
	if !found {
		return dst[:start], false
	}
	if last < filler {
		put(filler, 2, leafRow)
	}
	return append(dst, blob[off:]...), true
}

// leafOf reports whether x is a leaf of provider p: p is its only
// neighbor, over a customer–provider edge.
func leafOf(g *asgraph.Graph, x, p int32) bool {
	n := int32(g.N())
	if x < 0 || x >= n || p < 0 || p >= n {
		return false
	}
	prov := g.Providers(x)
	return len(prov) == 1 && prov[0] == p && len(g.Peers(x)) == 0 && len(g.Customers(x)) == 0
}

// skipRow returns the offset past the row stream at off — its length,
// its member indexes and, for two or more members, its winner index — or
// a negative offset on malformed input.
func skipRow(b []byte, off int) int {
	rowLen, off := pkUv(b, off)
	if off < 0 || rowLen == 0 || rowLen > uint64(len(b)-off) {
		return -1
	}
	for j := uint64(0); j < rowLen; j++ {
		_, off = pkUv(b, off)
	}
	if rowLen > 1 {
		_, off = pkUv(b, off)
	}
	return off
}
