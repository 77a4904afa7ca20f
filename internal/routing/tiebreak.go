package routing

import "fmt"

// Tiebreaker is the final TB step of route selection (Appendix A): given
// the deciding node and two candidate next hops, it reports whether a is
// strictly preferred over b. Implementations must induce a strict total
// order over candidates for a fixed deciding node, so route selection is
// deterministic.
type Tiebreaker interface {
	Less(node, a, b int32) bool
}

// HashTiebreaker implements the paper's TB rule: choose the next hop b
// minimizing a deterministic hash H(node, b). Different seeds give
// different (but fixed) intradomain preferences, modeling geographic or
// router-ID tie-breaking.
type HashTiebreaker struct {
	Seed uint64
}

// Less reports whether candidate a hashes below candidate b for node.
// Hash ties (vanishingly rare) fall back to the lower node index so the
// order stays total.
func (h HashTiebreaker) Less(node, a, b int32) bool {
	ha := mix(h.Seed, node, a)
	hb := mix(h.Seed, node, b)
	if ha != hb {
		return ha < hb
	}
	return a < b
}

// mix is a splitmix64-style avalanche over (seed, node, cand).
func mix(seed uint64, node, cand int32) uint64 {
	x := seed ^ (uint64(uint32(node)) << 32) ^ uint64(uint32(cand))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// LowestIndex breaks ties toward the lowest node index. Because builders
// assign indices in ascending ASN order, this equals the "lowest AS
// number" rule the paper's appendix gadgets assume.
type LowestIndex struct{}

// Less reports whether a < b.
func (LowestIndex) Less(node, a, b int32) bool { return a < b }

// TiebreakerFingerprint renders a tiebreaker as a canonical string for
// content-addressed caching: two tiebreakers with equal fingerprints make
// identical choices. Unknown implementations fall back to fmt's struct
// rendering, which is canonical only if the type has no map or pointer
// fields.
func TiebreakerFingerprint(tb Tiebreaker) string {
	switch t := tb.(type) {
	case HashTiebreaker:
		return fmt.Sprintf("hash(seed=%d)", t.Seed)
	case LowestIndex:
		return "lowestindex"
	default:
		return fmt.Sprintf("%T%+v", tb, tb)
	}
}
