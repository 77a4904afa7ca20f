package routing

import (
	"runtime"
	"testing"
)

// TestDecodeTiebreakerHugeCount: a preference-order header claiming
// 2^24 rows in a 5-byte payload is refused before the row count sizes
// anything. The payload reaches worker processes in the dist hello, so
// the decode must not let a few bytes commit hundreds of megabytes.
func TestDecodeTiebreakerHugeCount(t *testing.T) {
	data := []byte{tbWirePrefOrd, 0, 0, 0, 1} // nn = 2^24, no rows
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb, err := DecodeTiebreaker(data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("decoded %v from a truncated table", tb)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("refusing a 5-byte payload allocated %d bytes", alloc)
	}
}
