package sim

import (
	"hash/fnv"

	"sbgp/internal/asgraph"
)

// deployState is the security state S of one round: which ASes have
// deployed S*BGP (fully, or simplex for stubs) and which of them apply
// the SecP tie-break.
type deployState struct {
	secure []bool
	breaks []bool
}

func newDeployState(n int) *deployState {
	return &deployState{secure: make([]bool, n), breaks: make([]bool, n)}
}

// set marks node i secure; stubs break ties only when stubsBreakTies.
func (s *deployState) set(g *asgraph.Graph, i int32, stubsBreakTies bool) {
	s.secure[i] = true
	s.breaks[i] = !g.IsStub(i) || stubsBreakTies
}

// unset marks node i insecure.
func (s *deployState) unset(i int32) {
	s.secure[i] = false
	s.breaks[i] = false
}

// clone returns an independent copy.
func (s *deployState) clone() *deployState {
	c := newDeployState(len(s.secure))
	copy(c.secure, s.secure)
	copy(c.breaks, s.breaks)
	return c
}

// snapshot returns a compact copy of the secure bitmap, used for
// oscillation detection and round records.
func (s *deployState) snapshot() []uint64 {
	words := (len(s.secure) + 63) / 64
	out := make([]uint64, words)
	for i, b := range s.secure {
		if b {
			out[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return out
}

// hashSnapshot hashes a snapshot for cheap cycle candidate lookup.
func hashSnapshot(snap []uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, w := range snap {
		for b := 0; b < 8; b++ {
			buf[b] = byte(w >> (8 * uint(b)))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func snapshotsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
