package routing

import (
	"slices"
	"testing"
)

// TestRoundMemoPutGet: keys that share a hash bucket are told apart by
// their bytes, a repeated key keeps its first values, a put past the
// budget is dropped, and a Share()d handle starts with no rounds.
func TestRoundMemoPutGet(t *testing.T) {
	a, b := []byte{1, 2, 3}, []byte{1, 2, 4}
	entry := int64(len(a)) + 8*2 + entryOverhead
	sc := NewSharedStaticCache(2 * entry)
	sc.RoundPut(7, a, []float64{1, 2})
	sc.RoundPut(7, b, []float64{3, 4})
	sc.RoundPut(7, a, []float64{5, 6})
	if got := sc.RoundGet(7, a); !slices.Equal(got, []float64{1, 2}) {
		t.Errorf("key a served %v, want its first put [1 2]", got)
	}
	if got := sc.RoundGet(7, b); !slices.Equal(got, []float64{3, 4}) {
		t.Errorf("key b, in a's bucket, served %v, want [3 4]", got)
	}
	if got := sc.RoundGet(8, a); got != nil {
		t.Errorf("key a under another hash served %v, want a miss", got)
	}
	c := []byte{9, 9, 9}
	sc.RoundPut(9, c, []float64{7, 8})
	if got := sc.RoundGet(9, c); got != nil {
		t.Errorf("a put past the budget was kept: %v", got)
	}
	if got := sc.Share().RoundGet(7, a); got != nil {
		t.Errorf("a shared handle served another handle's round: %v", got)
	}
	one := NewSharedStaticCache(1)
	one.RoundPut(7, a, []float64{1, 2})
	if got := one.RoundGet(7, a); got != nil {
		t.Errorf("a 1-byte budget kept a round: %v", got)
	}
}
