package sim

import "sbgp/internal/routing"

// Cross-round dynamic records. A round's utility sweep recomputes every
// destination from scratch even though, near convergence, the realized
// flip set (deployments, disablements, new simplex stubs) is a handful
// of ASes whose influence on most destinations' routing trees is
// provably nil. Each worker therefore keeps, for the destinations it
// owns (d ≡ w mod nw) whose tree can matter (worker.wantRecord: secure,
// or flippable by a candidate — an insecure destination's tree never
// changes, and its contributions are replayed from a pristine sidecar
// instead; a leaf behind a filler of its class is replayed from the
// filler's memo, see leafclass.go), a destRecord: the destination's
// base routing tree kept current across rounds by change propagation
// (routing.ApplyFlips over the realized flips, committed instead of
// reverted), and its memoized per-ISP base utility contributions. The
// tree is held as a routing.TreeDiff against the static's winner tree —
// the Secure flags as a bitset plus the parents SecP moved off their
// winner — and decoded into the worker's scratch tree only by the paths
// that read it: an advance that propagates, and the candidate loop.
//
// A record saves its destination the base resolution every round, and
// the base accumulation whenever the advance moved no parent. In a
// base-only round such a destination is *clean*: its contributions are
// replayed verbatim, and nothing runs but the static fetch and the
// advance. In a candidate round every record is *dirty*: its
// projections are recomputed against the advanced tree, exactly as the
// record-less engine computes them, so a record never changes which
// projections run.
//
// Bit-identity with the non-incremental engine holds at any budget:
//   - The advanced tree equals a fresh resolution bit for bit
//     (ApplyFlips' contract), and the diff round-trips it exactly
//     (Static.LoadDiff's contract), so every projection over it is
//     exactly the cold computation.
//   - Replayed base contributions are the recorded float64 bits, added
//     into the same per-worker accumulator in the same ascending
//     destination order; only identically-zero contributions are
//     elided, and the accumulators never hold -0.0 (all contributions
//     are ≥ 0), so x + 0.0 == x bitwise and elision cannot change a
//     single bit.
// The fixed-shard-order merge (Sim.computeRound) then reproduces the
// exact global summation sequence, so uBase/uProj are bit-identical at
// any worker count and any budget — which is what lets
// Config.Fingerprint exclude CacheBytes.

// Record sizes. A record costs a fixed overhead, 8 bytes per parent
// SecP moved off its winner, N/8 bytes of Secure bitset once any path to
// its destination is secure, and 16 bytes per nonzero base
// contribution, and only destinations whose tree can matter hold one
// (wantRecord: secure destinations and those a candidate can flip —
// insecure untouchable ones are sidecar-replayed instead). The N=10,000 outgoing game's 1,915 round-1
// records take ≈4.3 KB each (8.3 MB in all), so the default budget
// (Config.CacheBytes, split per shard) binds only far beyond the
// paper's N=36,964; a graph that fills it keeps a pinned prefix of
// records and recomputes the rest each round.

// contribEntry memoizes one node's utility contribution for one
// destination: the exact float64 the cold engine would have added.
type contribEntry struct {
	node int32
	val  float64
}

// destRecord is one destination's cross-round cache entry.
type destRecord struct {
	dest int32
	// tree is the destination's base routing tree as a diff against the
	// static's winner tree, advanced to the current deployment state at
	// the start of every round.
	tree routing.TreeDiff
	// base holds the nonzero base utility contributions (into uBase) as
	// of the last recomputation; valid as long as no advancement since
	// then changed a parent (contributions read only parents, types and
	// weights).
	base []contribEntry
	// bytes is the record's accounted size.
	bytes int64
}

const (
	dynEntryBytes    = 16  // contribEntry: int32 padded beside a float64
	dynRecordMinimum = 256 // struct, map cell and slice headers
)

// memBytes returns the record's accounted size at its current tree diff
// and entry counts.
func (r *destRecord) memBytes() int64 {
	return r.tree.Bytes() + dynEntryBytes*int64(len(r.base)) + dynRecordMinimum
}

// dynCache is a worker-private budgeted map of destRecords. Like the
// static cache it is deliberately lock-free: destinations are striped
// statically across workers, so each worker records exactly the
// destinations it will process on every future round. Admission is
// first-fit; a record is evicted only when a refresh outgrows the
// budget, and an evicted destination is never re-admitted (its size
// already proved too big once, and pinning keeps behavior
// deterministic and churn-free).
type dynCache struct {
	budget    int64
	bytes     int64
	evictions int64 // lifetime evictions, reported as a snapshot
	entries   map[int32]*destRecord
	blocked   map[int32]bool
}

func newDynCache(budget int64) *dynCache {
	return &dynCache{
		budget:  budget,
		entries: make(map[int32]*destRecord),
		blocked: make(map[int32]bool),
	}
}

// get returns the record for destination d, or nil.
func (c *dynCache) get(d int32) *destRecord {
	return c.entries[d]
}

// admit reserves a record for destination d if its floor size (the
// fixed overhead, before any tree diff or entries) fits the remaining
// budget, returning nil otherwise. The caller resolves the tree, stores
// its diff and fills the entries, then must call resize to account for
// them.
func (c *dynCache) admit(d int32) *destRecord {
	if c.blocked[d] {
		return nil
	}
	if c.bytes+dynRecordMinimum > c.budget {
		return nil
	}
	rec := &destRecord{dest: d, bytes: dynRecordMinimum}
	c.entries[d] = rec
	c.bytes += dynRecordMinimum
	return rec
}

// resize re-accounts rec after its tree diff or entries changed. If the
// cache no longer fits its budget the record is evicted — dropped and
// its destination blocked from re-admission — and resize reports true.
func (c *dynCache) resize(rec *destRecord) (evicted bool) {
	nb := rec.memBytes()
	c.bytes += nb - rec.bytes
	rec.bytes = nb
	if c.bytes > c.budget {
		c.bytes -= nb
		delete(c.entries, rec.dest)
		c.blocked[rec.dest] = true
		c.evictions++
		return true
	}
	return false
}

// purge drops every record. Used when the deployment state changes in
// a way that cannot be expressed as a flip set (a tie-break flag moved
// without its security flag), which change propagation cannot advance
// across.
func (c *dynCache) purge() {
	for d := range c.entries {
		delete(c.entries, d)
	}
	c.bytes = 0
}
