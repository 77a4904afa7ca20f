package routing

import (
	"encoding/binary"
)

// Pristine-contribution sidecars. When no secure node is reachable for
// a destination — in particular for every destination of the pristine
// all-insecure sweep, and for any insecure destination in any state —
// the resolved routing tree is exactly the static winner tree and every
// Secure flag is false, so the per-node base utility contributions are
// a pure function of (graph, weights, tiebreaker, utility model,
// destination): the deployment state cannot reach them. A sidecar
// records that contribution vector — the nonzero entries only, in
// ascending node order, as raw float64 bit patterns — so a warm sweep
// replays the recorded bits instead of resolving at all. Replay is
// bit-identical to recomputation by the dyncache replay discipline
// (DESIGN.md §5c): the fresh loop adds contributions in ascending node
// order and the accumulators never hold -0.0, so eliding the exact-zero
// additions preserves every float result.
//
// The payload layout (all integers uvarint unless noted):
//
//	magic (1 byte, 0xC7)
//	version (1 byte)
//	kind (1 byte)        — the utility model the vector was computed under
//	uvarint dest, n, count
//	per entry, ascending node order:
//	    uvarint node gap  (node − previous node; previous starts at −1,
//	                       so gaps are ≥ 1 and ascending order is
//	                       structurally enforced)
//	    8 bytes           (little-endian float64 bit pattern)
//
// Sidecars travel through the same tiers as packed statics: the
// resident SharedStaticCache (per handle, budget-charged, arena-backed)
// and the StaticDiskStore (its own record kind, CRC-checked). Every read path validates the
// full layout and treats any mismatch as a missing sidecar — the
// consumer recomputes, so corruption can cost time, never bits.

// sidecarMagic versions the sidecar encoding; bump on layout change.
const (
	sidecarMagic   = 0xC7
	sidecarVersion = 1
)

// SidecarEntry is one nonzero base contribution: the node and the raw
// bit pattern of its float64 contribution.
type SidecarEntry struct {
	Node int32
	Bits uint64
}

// AppendSidecar appends the sidecar encoding of entries — which must be
// in strictly ascending Node order — to dst and returns the extended
// slice. n is the graph size the vector was computed on.
func AppendSidecar(dst []byte, dest int32, n int, kind uint8, entries []SidecarEntry) []byte {
	dst = append(dst, sidecarMagic, sidecarVersion, kind)
	dst = binary.AppendUvarint(dst, uint64(dest))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	prev := int32(-1)
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, uint64(e.Node-prev))
		prev = e.Node
		dst = binary.LittleEndian.AppendUint64(dst, e.Bits)
	}
	return dst
}

// SidecarDest returns the destination and kind of a sidecar blob
// without decoding the entries, and whether the header was well-formed.
// It is the cheap cross-check a disk read performs against its index
// key before handing the payload to the full decode.
func SidecarDest(blob []byte) (dest int32, kind uint8, ok bool) {
	if len(blob) < 4 || blob[0] != sidecarMagic || blob[1] != sidecarVersion {
		return 0, 0, false
	}
	d, k := binary.Uvarint(blob[3:])
	if k <= 0 || d > uint64(1<<31-1) {
		return 0, 0, false
	}
	return int32(d), blob[2], true
}

// scUv is pkUv that also rejects a zero-padded (non-minimal) uvarint,
// so every accepted payload is the one AppendSidecar would write.
func scUv(b []byte, off int) (uint64, int) {
	v, end := pkUv(b, off)
	if end > off+1 && b[end-1] == 0 {
		return 0, -1
	}
	return v, end
}

// DecodeSidecar decodes blob into buf (reused when capacity allows) and
// returns the entries. The blob is fully validated against the expected
// (dest, n, kind): magic, version, minimal varints, strictly ascending
// in-range nodes, and exact payload length. Any mismatch returns
// ok=false — callers treat that as a missing sidecar and recompute.
func DecodeSidecar(blob []byte, dest int32, n int, kind uint8, buf []SidecarEntry) (entries []SidecarEntry, ok bool) {
	if len(blob) < 6 || blob[0] != sidecarMagic || blob[1] != sidecarVersion || blob[2] != kind {
		return nil, false
	}
	off := 3
	var hd, hn, cnt uint64
	hd, off = scUv(blob, off)
	hn, off = scUv(blob, off)
	cnt, off = scUv(blob, off)
	if off < 0 || hd != uint64(dest) || hn != uint64(n) || cnt > uint64(n) {
		return nil, false
	}
	entries = buf[:0]
	prev := int32(-1)
	for e := uint64(0); e < cnt; e++ {
		var gap uint64
		if uint(off) < uint(len(blob)) && blob[off] < 0x80 {
			gap, off = uint64(blob[off]), off+1
		} else {
			gap, off = scUv(blob, off)
		}
		// gap is attacker-controlled and 64 bits wide: bound it before
		// the int32 conversion, which would wrap a huge gap negative.
		if off < 0 || gap == 0 || gap > uint64(n) || off+8 > len(blob) {
			return nil, false
		}
		node := prev + int32(gap)
		if node >= int32(n) {
			return nil, false
		}
		prev = node
		bits := binary.LittleEndian.Uint64(blob[off:])
		off += 8
		entries = append(entries, SidecarEntry{Node: node, Bits: bits})
	}
	if off != len(blob) {
		return nil, false
	}
	return entries, true
}
