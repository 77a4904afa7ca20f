package routing

import (
	"runtime"
	"strings"
	"testing"
)

// TestDecodeTiebreakerHugeCount: a kind-3 payload whose header reads as
// a 2^24-row rank table is refused as an unknown kind without
// allocating; only the two fixed-size kinds decode. The payload reaches
// worker processes in the dist hello, so the decode must not let a few
// bytes commit memory.
func TestDecodeTiebreakerHugeCount(t *testing.T) {
	data := []byte{3, 0, 0, 0, 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb, err := DecodeTiebreaker(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoded %v from a retired wire kind", tb)
	}
	if !strings.Contains(err.Error(), "unknown tiebreaker wire kind 3") {
		t.Fatalf("kind 3 refused with %q, want an unknown-kind error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing a 5-byte payload allocated %d bytes", alloc)
	}
}
