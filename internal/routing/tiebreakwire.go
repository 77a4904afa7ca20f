package routing

import (
	"encoding/binary"
	"fmt"
)

// Tiebreaker wire codec. A distributed simulation ships its Config to
// worker processes, and the tie-break policy is the one Config field
// that is an interface; the codec below gives the built-in tiebreakers
// a compact, canonical binary form. Custom Tiebreaker implementations
// are rejected — they cannot be reconstructed in another process — so
// distributed runs are limited to the encodable policies.

// Tiebreaker wire kinds.
const (
	tbWireHash   = 1 // HashTiebreaker: 8-byte seed
	tbWireLowest = 2 // LowestIndex: empty payload
)

// EncodeTiebreaker renders a built-in tiebreaker as a canonical byte
// string: equal tiebreakers encode identically. It returns an error for
// implementations outside this package, which have no cross-process
// representation.
func EncodeTiebreaker(tb Tiebreaker) ([]byte, error) {
	switch t := tb.(type) {
	case HashTiebreaker:
		out := make([]byte, 1+8)
		out[0] = tbWireHash
		binary.LittleEndian.PutUint64(out[1:], t.Seed)
		return out, nil
	case LowestIndex:
		return []byte{tbWireLowest}, nil
	default:
		return nil, fmt.Errorf("routing: tiebreaker %T has no wire encoding", tb)
	}
}

// DecodeTiebreaker reconstructs a tiebreaker encoded by
// EncodeTiebreaker. Both encodings have a fixed size, so it checks the
// kind and the payload length and never panics on corrupt input.
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
	default:
		return nil, fmt.Errorf("routing: unknown tiebreaker wire kind %d", kind)
	}
}
