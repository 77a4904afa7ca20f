package routing

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Tiebreaker wire codec. A distributed simulation ships its Config to
// worker processes, and the tie-break policy is the one Config field
// that is an interface; the codec below gives the built-in tiebreakers
// a compact, canonical binary form. Custom Tiebreaker implementations
// are rejected — they cannot be reconstructed in another process — so
// distributed runs are limited to the encodable policies.

// Tiebreaker wire kinds.
const (
	tbWireHash     = 1 // HashTiebreaker: 8-byte seed
	tbWireLowest   = 2 // LowestIndex: empty payload
	tbWirePrefOrd  = 3 // PreferenceOrder: sorted rank table
	tbWireMaxEntry = 1 << 24
)

// EncodeTiebreaker renders a built-in tiebreaker as a canonical byte
// string: equal tiebreakers encode identically (PreferenceOrder tables
// are sorted). It returns an error for implementations outside this
// package, which have no cross-process representation.
func EncodeTiebreaker(tb Tiebreaker) ([]byte, error) {
	switch t := tb.(type) {
	case HashTiebreaker:
		out := make([]byte, 1+8)
		out[0] = tbWireHash
		binary.LittleEndian.PutUint64(out[1:], t.Seed)
		return out, nil
	case LowestIndex:
		return []byte{tbWireLowest}, nil
	case PreferenceOrder:
		nodes := make([]int32, 0, len(t.Rank))
		for n := range t.Rank {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		out := []byte{tbWirePrefOrd}
		out = binary.LittleEndian.AppendUint32(out, uint32(len(nodes)))
		for _, n := range nodes {
			ranks := t.Rank[n]
			cands := make([]int32, 0, len(ranks))
			for c := range ranks {
				cands = append(cands, c)
			}
			sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
			out = binary.LittleEndian.AppendUint32(out, uint32(n))
			out = binary.LittleEndian.AppendUint32(out, uint32(len(cands)))
			for _, c := range cands {
				out = binary.LittleEndian.AppendUint32(out, uint32(c))
				out = binary.LittleEndian.AppendUint64(out, uint64(int64(ranks[c])))
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("routing: tiebreaker %T has no wire encoding", tb)
	}
}

// DecodeTiebreaker reconstructs a tiebreaker encoded by
// EncodeTiebreaker. It validates structure (never panics on corrupt
// input) and bounds table sizes so hostile frames cannot force large
// allocations.
func DecodeTiebreaker(data []byte) (Tiebreaker, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("routing: empty tiebreaker encoding")
	}
	kind, rest := data[0], data[1:]
	switch kind {
	case tbWireHash:
		if len(rest) != 8 {
			return nil, fmt.Errorf("routing: hash tiebreaker payload is %d bytes, want 8", len(rest))
		}
		return HashTiebreaker{Seed: binary.LittleEndian.Uint64(rest)}, nil
	case tbWireLowest:
		if len(rest) != 0 {
			return nil, fmt.Errorf("routing: lowest-index tiebreaker payload is %d bytes, want 0", len(rest))
		}
		return LowestIndex{}, nil
	case tbWirePrefOrd:
		if len(rest) < 4 {
			return nil, fmt.Errorf("routing: truncated preference-order tiebreaker")
		}
		nn := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if nn > tbWireMaxEntry {
			return nil, fmt.Errorf("routing: preference-order table of %d nodes exceeds limit", nn)
		}
		// Every row takes at least its 8-byte header, so a count the
		// payload cannot hold is refused before it sizes the map.
		if uint64(len(rest)) < 8*uint64(nn) {
			return nil, fmt.Errorf("routing: truncated preference-order tiebreaker")
		}
		rank := make(map[int32]map[int32]int, nn)
		for i := uint32(0); i < nn; i++ {
			if len(rest) < 8 {
				return nil, fmt.Errorf("routing: truncated preference-order tiebreaker")
			}
			node := int32(binary.LittleEndian.Uint32(rest))
			nc := binary.LittleEndian.Uint32(rest[4:])
			rest = rest[8:]
			if nc > tbWireMaxEntry {
				return nil, fmt.Errorf("routing: preference-order row of %d entries exceeds limit", nc)
			}
			if uint64(len(rest)) < 12*uint64(nc) {
				return nil, fmt.Errorf("routing: truncated preference-order tiebreaker")
			}
			row := make(map[int32]int, nc)
			for j := uint32(0); j < nc; j++ {
				cand := int32(binary.LittleEndian.Uint32(rest))
				r := int64(binary.LittleEndian.Uint64(rest[4:]))
				rest = rest[12:]
				row[cand] = int(r)
			}
			rank[node] = row
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("routing: %d trailing bytes after preference-order tiebreaker", len(rest))
		}
		return PreferenceOrder{Rank: rank}, nil
	default:
		return nil, fmt.Errorf("routing: unknown tiebreaker wire kind %d", kind)
	}
}
