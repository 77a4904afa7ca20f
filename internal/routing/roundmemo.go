package routing

import (
	"bytes"
	"slices"
)

// Round memo. A round's utilities depend on the graph, the traffic
// weights, the tiebreaker and the deployment state, and on the policy
// that turns a state into utilities — never on the threshold that
// later decides on them. A handle already fixes the first three, so it
// can keep the rounds its simulations computed and serve them to a
// later simulation that reaches the same state under the same policy:
// the θ sweeps of the paper's figures repeat whole prefixes of each
// other's rounds.
//
// The memo is policy-free. The caller encodes everything else a round
// depends on into the key bytes, hashes them, and stores whatever
// float64s it will read back. Entries are bucketed by the caller's
// hash and told apart by their full key bytes, so a hash collision can
// cost a lookup, never serve another round. Puts are charged against a
// budget of the handle's size, like the sidecars, and a put that would
// overflow it, or that repeats a key, is rejected: two simulations that
// computed one round concurrently hold equal bytes, and the first put
// wins.

// roundMemo is a handle's rounds, not synchronized (the handle's lock
// guards it).
type roundMemo struct {
	budget  int64
	bytes   int64
	buckets map[uint64][]roundEntry
}

type roundEntry struct {
	key  []byte
	vals []float64
}

func (m *roundMemo) get(h uint64, key []byte) []float64 {
	for _, e := range m.buckets[h] {
		if bytes.Equal(e.key, key) {
			return e.vals
		}
	}
	return nil
}

func (m *roundMemo) put(h uint64, key []byte, vals []float64) {
	sz := int64(len(key)) + 8*int64(len(vals)) + entryOverhead
	if len(vals) == 0 || m.bytes+sz > m.budget || m.get(h, key) != nil {
		return
	}
	if m.buckets == nil {
		m.buckets = make(map[uint64][]roundEntry)
	}
	m.buckets[h] = append(m.buckets[h], roundEntry{key: slices.Clone(key), vals: vals})
	m.bytes += sz
}

// RoundGet returns the values this handle's round memo holds for key,
// or nil. h is the caller's hash of key. The returned slice is
// immutable: safe to read lock-free after return, never to write.
func (sc *SharedStaticCache) RoundGet(h uint64, key []byte) []float64 {
	sc.mu.RLock()
	defer sc.mu.RUnlock()
	return sc.rounds.get(h, key)
}

// RoundPut offers vals as the round under key (hashed to h). key is
// copied; vals is the memo's from then on, and the caller must not
// write it again. A put that repeats a key or would overflow the
// budget is dropped.
func (sc *SharedStaticCache) RoundPut(h uint64, key []byte, vals []float64) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.rounds.put(h, key, vals)
}
