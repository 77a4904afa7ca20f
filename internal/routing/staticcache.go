package routing

import (
	"fmt"
	"math"
	"sync"

	"sbgp/internal/asgraph"
)

// Cross-round static caching (Observation C.1). Everything in a Static
// — local-preference class, path length, tiebreak sets, processing
// order, plain-TB winners, delta dependents — depends only on the graph's
// topology, the destination and the tiebreaker: never on the deployment
// state, and never on the traffic weights. A multi-round simulation
// therefore re-derives the exact same Static for every destination on
// every round; snapshotting it once and resolving against the snapshot
// from then on removes the three-stage BFS from the steady-state round
// entirely, and is bit-identical by construction because resolution
// only ever reads a Static. Beyond one simulation, SharedStaticCache
// (at the end of this file) serves one set of statics to every graph of
// a topology, and keeps the weight-dependent pristine sidecars apart,
// one set per weight vector.
//
// Two storage formats share one cache. Unpacked entries are Snapshot
// deep copies: resolution reads them directly, and lazily materialized
// additions (PrepareDelta, provider parents, support lists) land on the
// cached copy and are memoized across rounds. Packed entries are the
// blob form of packed.go at ≈3–5 B/node instead of ≈26: resolution
// decodes them into the calling worker's Workspace on every hit, which
// costs O(reachable) but stays far below the BFS it replaces. A cache
// starts in unpacked mode — small graphs whose full snapshot set fits
// the budget never pay the decode — and repacks every entry in place
// the first time an admission or a lazy growth would overflow the
// budget, then admits packed from there on: the 3–9x density buys
// paper-scale graphs cache residency instead of admission stops. A
// cache told how many destinations to expect (Expect) skips the
// unpacked phase outright when its first snapshot shows the full set
// cannot fit, rather than copying a budget's worth of snapshots only to
// re-encode them all.

// DefaultStaticCacheBytes is the default static-cache budget: 1 GiB.
// An unpacked snapshot costs ≈26 bytes per node at admission (Type,
// Len, pos, winners, order and the tiebreak CSR; the delta-dependents
// index adds ≈9 B/node more, only on snapshots something built it on —
// a destination that ran several propagations in one round, or an
// explicit PrepareDelta), so N destinations of N nodes need
// ≈26·N²–35·N² bytes: the full unpacked set fits up to N≈5000. Beyond
// that the cache (see above) stores ≈3–5 B/node — packed from the
// first entry when the shard's expected count says so — and holds only
// the statics a later round reads: the record holders', not those of
// destinations served by their pristine sidecars. At the paper's
// N=36,964 that is ≈7,200 destinations in ≈1.0 GB, just inside the
// budget; a graph whose record set outgrows it caches a pinned prefix
// of them and recomputes the rest each round.
const DefaultStaticCacheBytes = int64(1) << 30

// MemBytes returns the heap footprint of s, counting exactly what is
// materialized right now: the always-present base arrays, plus the
// delta-dependents index, provider parents and support lists only once
// built. A snapshot admitted to a cache is charged its size at
// admission; later lazy materialization grows the cached copy, and the
// cache re-charges the growth on the next lookup of that destination
// (eviction-on-materialize) rather than reserving the upper bound up
// front as earlier versions did.
func (s *Static) MemBytes() int64 {
	n := int64(len(s.Type))
	t := int64(len(s.tbAdj))
	r := int64(len(s.order))
	const sliceOverhead = 16 * 24 // slice headers in Static plus struct slack
	b := int64(0)
	b += n           // Type
	b += 4 * n       // Len
	b += 4 * (r + 1) // tbOff (position-indexed: one row per order entry)
	b += 4 * t       // tbAdj
	b += 4 * r       // order
	b += 4 * n       // pos
	if s.win != nil {
		b += 4 * n
	}
	if s.deltaReady {
		b += 4 * int64(len(s.revOff)+len(s.revAdj))
	}
	if s.provReady {
		b += 4*int64(len(s.provParents)) + 8*int64(len(s.provBits))
	}
	if s.supOutReady {
		b += 4 * int64(len(s.supOut))
	}
	if s.supInReady {
		b += 4 * int64(len(s.supIn))
	}
	return b + sliceOverhead
}

// Snapshot returns a self-contained deep copy of s: all flat arrays
// (Type/Len/tbOff/tbAdj/order/pos/win) plus the delta dependents index
// when present. The copy shares no storage with s or any Workspace, so
// it stays valid across ComputeStatic calls and can be resolved against
// directly — nothing needs re-deriving.
func (s *Static) Snapshot() *Static {
	c := &Static{
		Dest:       s.Dest,
		Type:       append([]RouteType(nil), s.Type...),
		Len:        append([]int32(nil), s.Len...),
		tbOff:      append([]int32(nil), s.tbOff...),
		tbAdj:      append([]int32(nil), s.tbAdj...),
		order:      append([]int32(nil), s.order...),
		pos:        append([]int32(nil), s.pos...),
		deltaReady: s.deltaReady,
	}
	if s.win != nil {
		c.win = append([]int32(nil), s.win[:len(s.Type)]...)
	}
	if s.deltaReady {
		c.revOff = append([]int32(nil), s.revOff...)
		c.revAdj = append([]int32(nil), s.revAdj...)
	}
	if s.provReady {
		c.provReady = true
		c.provParents = append([]int32(nil), s.provParents...)
		c.provBits = append([]uint64(nil), s.provBits...)
	}
	if s.supOutReady {
		c.supOutReady = true
		c.supOut = append([]int32(nil), s.supOut...)
	}
	if s.supInReady {
		c.supInReady = true
		c.supIn = append([]int32(nil), s.supIn...)
	}
	return c
}

// arenaSlabBytes is the chunk size of a cache's blob arena. Blobs
// larger than a quarter slab get a dedicated allocation.
const arenaSlabBytes = 1 << 20

// staticArena bump-allocates packed blobs into large slabs so a cache
// holding tens of thousands of small blobs costs that many arena
// *copies*, not that many heap objects. Blobs are never freed
// individually: entries are only removed by whole-entry eviction,
// whose arena bytes become slack (bounded — eviction happens only on
// pathological growth after a repack). Filled slabs are retained by
// the blob slices that point into them; the arena itself only keeps
// the slab it is currently filling.
type staticArena struct {
	cur       []byte
	allocated int64
}

// place copies b into the arena and returns the arena-backed copy,
// capacity-clipped so appends can never bleed into a neighbor.
func (a *staticArena) place(b []byte) []byte {
	if len(b) > arenaSlabBytes/4 {
		a.allocated += int64(len(b))
		out := make([]byte, len(b))
		copy(out, b)
		return out
	}
	if cap(a.cur)-len(a.cur) < len(b) {
		a.cur = make([]byte, 0, arenaSlabBytes)
		a.allocated += arenaSlabBytes
	}
	start := len(a.cur)
	a.cur = append(a.cur, b...)
	return a.cur[start:len(a.cur):len(a.cur)]
}

// cacheEntry is one destination's cached static: exactly one of snap
// (unpacked snapshot) or blob (packed, arena-backed) is set. charged is
// the byte cost accounted against the budget for this entry.
type cacheEntry struct {
	snap    *Static
	blob    []byte
	charged int64
}

// entryOverhead approximates the map-slot plus entry-struct cost of
// one cached destination.
const entryOverhead = 64

// StaticCache memoizes per-destination statics under a byte budget. It
// is deliberately lock-free and goroutine-private: the engine stripes
// destinations statically across workers (worker w owns d ≡ w mod nw),
// so each worker caches exactly the destinations it will process on
// every future round and no two workers ever share a cache.
//
// The cache admits whatever it is offered, first-fit, and pins it:
// deterministic, and no churn. Which statics are worth offering is the
// caller's decision — the engine offers every static while the cache is
// unpacked, and once it has repacked only those a later round will read
// (sim's fetchStatic: a destination served by its pristine sidecar never
// reads its static again). The first overflow — an admission, or lazy
// growth of already-admitted entries (see Get) — repacks every entry
// (see the package comment above) instead of stopping admission;
// eviction exists only for a repack that still does not fit (newest
// admissions evict first).
type StaticCache struct {
	budget   int64
	bytes    int64
	full     bool
	repacked bool // first overflow happened; admissions encode from here on
	g        *asgraph.Graph
	expected int64 // destinations this cache will be offered (Expect); 0 = unknown
	entries  map[int32]cacheEntry
	seq      []int32 // admission order: deterministic repack/eviction order

	evictions     int64
	packedBytes   int64
	packedEntries int64
	arena         staticArena
	scratch       []byte

	// sidecars holds pristine-contribution records (sidecar.go) keyed by
	// (kind, dest) — a destination may carry one vector per utility
	// model. They share the blob arena and the byte budget with the
	// statics but not the eviction machinery: a sidecar is a few dozen
	// bytes against a multi-KB static, so admissions that would overflow
	// are simply rejected (the consumer recomputes) rather than evicting
	// statics whose recompute is orders of magnitude dearer.
	sidecars     map[int64][]byte
	sidecarBytes int64
}

// NewStaticCache returns a cache for graph g (encoding is
// graph-relative) that admits snapshots until one would exceed budget
// bytes, then repacks itself into the ≈3–5 B/node blob format and keeps
// admitting packed entries until those overflow too.
func NewStaticCache(g *asgraph.Graph, budget int64) *StaticCache {
	return &StaticCache{budget: budget, g: g, entries: make(map[int32]cacheEntry)}
}

// Expect tells the cache how many destinations it will be offered in
// all — the shard's stripe. The cache uses it once, at its first
// snapshot admission: if that many snapshots of that size cannot fit
// the budget the unpacked phase is skipped and every entry goes in
// packed (see add). A nil cache ignores it.
func (c *StaticCache) Expect(dests int) {
	if c != nil {
		c.expected = int64(dests)
	}
}

// Get returns the cached static for destination d, or nil. A nil cache
// always misses. Unpacked entries are returned directly; packed entries
// are decoded into w's scratch and the result is invalidated by w's
// next build or decode — within the engine that is safe, as a
// destination's static is only used while processing that destination.
//
// Get is also where lazy materialization is charged: if the entry's
// snapshot grew since admission (PrepareDelta and friends land on the
// cached copy), the growth is added to the accounted bytes now, and an
// overflow triggers the repack.
func (c *StaticCache) Get(d int32, w *Workspace) *Static {
	if c == nil {
		return nil
	}
	e, ok := c.entries[d]
	if !ok {
		return nil
	}
	if e.blob != nil {
		// Trusted decode: every blob in the cache was either encoded by
		// this process or fully validated by the DecodePacked its
		// admission required (see AddBlob), so the per-member
		// revalidation would only re-prove what admission proved.
		s, err := w.DecodePackedTrusted(e.blob)
		if err != nil {
			// Unreachable for blobs this cache encoded; an imported blob
			// that fails stays cached but unusable — treat as a miss.
			return nil
		}
		return s
	}
	if sz := e.snap.MemBytes(); sz > e.charged {
		c.bytes += sz - e.charged
		e.charged = sz
		c.entries[d] = e
		if c.bytes > c.budget {
			c.repackAll()
			if e := c.entries[d]; e.blob != nil {
				s, err := w.DecodePackedTrusted(e.blob)
				if err != nil {
					return nil
				}
				return s
			}
			return nil
		}
	}
	return e.snap
}

// evictNewest removes the newest-admitted entries until the budget
// holds. Evicting from the newest end preserves the first-fit
// philosophy: the oldest entries stay pinned.
func (c *StaticCache) evictNewest() {
	c.full = true
	for i := len(c.seq) - 1; i >= 0 && c.bytes > c.budget; i-- {
		c.dropEntry(c.seq[i])
		c.seq = c.seq[:i]
		c.evictions++
	}
}

// dropEntry removes d from the map and the accounting (not from seq).
func (c *StaticCache) dropEntry(d int32) {
	e := c.entries[d]
	delete(c.entries, d)
	c.bytes -= e.charged
	if e.blob != nil {
		c.packedBytes -= int64(len(e.blob))
		c.packedEntries--
	}
}

// repackAll converts every unpacked entry to its packed blob in
// admission order, rebasing the accounted bytes on the packed sizes.
// This runs once, on the cache's first overflow; from then on
// admissions encode directly (repacked).
func (c *StaticCache) repackAll() {
	c.repacked = true
	var bytes int64
	for _, d := range c.seq {
		e := c.entries[d]
		if e.snap != nil {
			c.scratch = AppendPacked(c.scratch[:0], e.snap, c.g)
			e = cacheEntry{blob: c.arena.place(c.scratch), charged: int64(len(c.scratch)) + entryOverhead}
			c.entries[d] = e
			c.packedBytes += int64(len(e.blob))
			c.packedEntries++
		}
		bytes += e.charged
	}
	c.bytes = bytes
	if c.bytes > c.budget {
		c.evictNewest()
	}
}

// Add admits the static for s.Dest, returning the stored snapshot —
// which the caller should use in place of s, so that lazily
// materialized additions (PrepareDelta) land on the cached copy — or
// nil when nothing directly usable was stored: budget exhausted, or
// the entry went in packed (the caller keeps resolving against s; hits
// on later rounds decode). s must carry winners.
func (c *StaticCache) Add(s *Static) *Static {
	if c == nil {
		return nil
	}
	sz := s.MemBytes()
	if !c.repacked &&
		(c.bytes+sz > c.budget || len(c.entries) == 0 && c.expected*sz > c.budget) {
		// This snapshot overflows the budget — or it is the first and
		// the destinations still to come, at its size, will: switch to
		// packed storage now (a no-op pass over an empty cache) instead
		// of snapshotting up to the budget and repacking it all.
		c.repackAll()
	}
	if c.repacked {
		c.addPacked(s)
		return nil
	}
	s = s.Snapshot()
	c.insert(s.Dest, cacheEntry{snap: s, charged: sz})
	return s
}

// addPacked encodes s and admits the blob. Once an admission has been
// rejected for budget, further attempts are skipped outright: the
// encode is O(reachable), and paying it per miss on every round after
// the cache fills would hand back a large share of the win (a smaller
// later snapshot might squeeze into the remaining slack, but that
// slack is under one blob by construction).
func (c *StaticCache) addPacked(s *Static) {
	if c.full {
		return
	}
	c.scratch = AppendPacked(c.scratch[:0], s, c.g)
	c.addBlobBytes(s.Dest, c.scratch)
}

// AddBlob admits an already-encoded packed blob (a disk-read static)
// for destination d, copying it into the arena — before or after the
// repack, which lets a caller holding the encoded bytes skip both the
// snapshot deep copy and that entry's share of the eventual repack.
// Returns whether the blob was admitted; the caller keeps ownership of
// blob either way.
//
// The blob must be a valid encoding for this cache's graph: either
// produced by AppendPacked in this process, or vetted by a successful
// DecodePacked — Get relies on that invariant to decode cached blobs
// on the trusted path. Every current import site (engine disk
// admission) decodes the bytes before calling this.
func (c *StaticCache) AddBlob(d int32, blob []byte) bool {
	if c == nil {
		return false
	}
	return c.addBlobBytes(d, blob)
}

func (c *StaticCache) addBlobBytes(d int32, blob []byte) bool {
	if _, ok := c.entries[d]; ok {
		return false
	}
	sz := int64(len(blob)) + entryOverhead
	if c.bytes+sz > c.budget {
		c.full = true
		return false
	}
	b := c.arena.place(blob)
	c.insert(d, cacheEntry{blob: b, charged: sz})
	c.packedBytes += int64(len(b))
	c.packedEntries++
	return true
}

func (c *StaticCache) insert(d int32, e cacheEntry) {
	c.entries[d] = e
	c.seq = append(c.seq, d)
	c.bytes += e.charged
}

// GetBlob returns the raw packed blob cached for destination d, or nil
// when d is absent or stored unpacked. The bytes alias the arena and
// are read-only. This is the streaming resolver's entry point: it walks
// the blob directly, skipping the workspace decode a Get performs.
func (c *StaticCache) GetBlob(d int32) []byte {
	if c == nil {
		return nil
	}
	return c.entries[d].blob
}

// sidecarKey packs a sidecar's (kind, dest) identity into one map key.
func sidecarKey(kind uint8, d int32) int64 {
	return int64(kind)<<32 | int64(uint32(d))
}

// SidecarPut admits a pristine-contribution sidecar payload for
// (kind, d), copying it into the arena and charging the shared budget.
// Duplicates and over-budget admissions are rejected (the consumer
// recomputes); rejection never evicts statics. Returns whether the
// payload was stored. The payload must be a valid sidecar encoding —
// callers encode with AppendSidecar or validate imports via
// DecodeSidecar first.
func (c *StaticCache) SidecarPut(kind uint8, d int32, payload []byte) bool {
	if c == nil || len(payload) == 0 {
		return false
	}
	k := sidecarKey(kind, d)
	if _, ok := c.sidecars[k]; ok {
		return false
	}
	sz := int64(len(payload)) + entryOverhead
	if c.bytes+sz > c.budget {
		return false
	}
	if c.sidecars == nil {
		c.sidecars = make(map[int64][]byte)
	}
	c.sidecars[k] = c.arena.place(payload)
	c.bytes += sz
	c.sidecarBytes += int64(len(payload))
	return true
}

// SidecarGet returns the sidecar payload stored for (kind, d), or nil.
// The bytes alias the arena and are read-only.
func (c *StaticCache) SidecarGet(kind uint8, d int32) []byte {
	if c == nil {
		return nil
	}
	return c.sidecars[sidecarKey(kind, d)]
}

// SidecarDrop forgets the sidecar for (kind, d) — the response to a
// decode failure on an imported payload, so a later Put can repair it.
func (c *StaticCache) SidecarDrop(kind uint8, d int32) {
	if c == nil {
		return
	}
	k := sidecarKey(kind, d)
	if p, ok := c.sidecars[k]; ok {
		delete(c.sidecars, k)
		c.bytes -= int64(len(p)) + entryOverhead
		c.sidecarBytes -= int64(len(p))
	}
}

// SidecarBytes returns the payload bytes of stored sidecars.
func (c *StaticCache) SidecarBytes() int64 {
	if c == nil {
		return 0
	}
	return c.sidecarBytes
}

// SidecarEntries returns the number of stored sidecars.
func (c *StaticCache) SidecarEntries() int {
	if c == nil {
		return 0
	}
	return len(c.sidecars)
}

// Bytes returns the accounted size of all admitted entries.
func (c *StaticCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return c.bytes
}

// Entries returns the number of cached destinations.
func (c *StaticCache) Entries() int {
	if c == nil {
		return 0
	}
	return len(c.entries)
}

// Full reports whether an admission has ever been rejected for budget.
func (c *StaticCache) Full() bool { return c != nil && c.full }

// Repacked reports whether the cache has switched to packed storage
// (its first overflow happened).
func (c *StaticCache) Repacked() bool { return c != nil && c.repacked }

// Evictions returns how many entries lazy-growth overflows evicted.
func (c *StaticCache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.evictions
}

// PackedBytes returns the payload bytes of packed entries.
func (c *StaticCache) PackedBytes() int64 {
	if c == nil {
		return 0
	}
	return c.packedBytes
}

// PackedEntries returns the number of packed entries.
func (c *StaticCache) PackedEntries() int64 {
	if c == nil {
		return 0
	}
	return c.packedEntries
}

// ArenaBytes returns the total bytes the blob arena has allocated
// (slabs plus dedicated blobs), for accounting tests.
func (c *StaticCache) ArenaBytes() int64 {
	if c == nil {
		return 0
	}
	return c.arena.allocated
}

// SharedStaticCache is a concurrency-safe resident store shared by
// simulations across graphs of one topology: a handle over a statics
// core, plus the handle's own pristine sidecars.
//
// A Static depends only on (topology, destination, tiebreaker) — never
// on the deployment state (Observation C.1), and never on the traffic
// weights, which route selection (App. A) does not read. So once any
// simulation has paid for a destination's three-stage BFS, the snapshot
// in the core serves every later simulation on any graph with the same
// topology (asgraph.SameTopology) and tiebreaker: a θ sweep on one
// graph, and an x sweep over SetCPTrafficFraction variants of it, pay
// the static cold start once per topology instead of once per
// simulation. A sidecar (sidecar.go) is different: it holds a
// destination's base contributions, sums of traffic weights, so it is
// valid for one weight vector only. Each handle keeps its sidecars to
// itself, bound to the weights of the first graph it serves, and Share
// makes another handle over the same core for another weight vector.
//
// Unpacked entries are fully materialized before insertion (tiebreak
// winners, delta dependents index, provider parents), so the *Static a
// reader receives is immutable: every lazy accessor — the engine's
// build-the-index-on-demand PrepareDelta included — is already a no-op
// and any goroutine may resolve against it without synchronization —
// and, because nothing can grow, Get never needs to re-charge under
// its read lock. Packed entries (the core repacks on overflow exactly
// like a private cache) are immutable bytes decoded into the calling
// worker's own scratch. Only the maps are guarded: the statics by the
// core's lock, the sidecars by the handle's.
//
// The core binds to one (topology, tiebreaker) pair on first use and a
// handle to one weight vector; binding anything else is an error —
// statics from one topology are meaningless (and winners from one
// tiebreaker wrong) for another, and sidecars recorded under one
// weight vector are wrong under another.
type SharedStaticCache struct {
	core *staticsCore

	mu   sync.RWMutex
	g    *asgraph.Graph // first graph bound: its weights are the sidecars'
	side *StaticCache   // holds sidecars only
}

// staticsCore is the weight-independent half of a SharedStaticCache:
// the statics of one (topology, tiebreaker), shared by every handle.
type staticsCore struct {
	mu sync.RWMutex
	g  *asgraph.Graph // first graph bound: the topology all others match
	tb string         // TiebreakerFingerprint of the bound tiebreaker
	c  *StaticCache
}

// NewSharedStaticCache returns an unbound handle over a fresh core. The
// core admits statics until adding one would exceed budget bytes, and
// the handle's sidecars have a budget of their own of the same size;
// budget 0 means DefaultStaticCacheBytes. The core repacks on overflow
// (see StaticCache) once bound to its topology.
func NewSharedStaticCache(budget int64) *SharedStaticCache {
	if budget == 0 {
		budget = DefaultStaticCacheBytes
	}
	return &SharedStaticCache{
		core: &staticsCore{c: NewStaticCache(nil, budget)},
		side: NewStaticCache(nil, budget),
	}
}

// Share returns a new handle over sc's statics core, with its own empty
// sidecar store under the same budget: the handle for a graph of sc's
// topology with other traffic weights.
func (sc *SharedStaticCache) Share() *SharedStaticCache {
	return &SharedStaticCache{core: sc.core, side: NewStaticCache(nil, sc.side.budget)}
}

// Bind checks the handle against the (graph, tiebreaker) pair a caller
// intends to serve. The first call on the core records its topology and
// tiebreaker, the first call on a handle its weights. Later calls must
// present a graph of the same topology, a tiebreaker with the same
// fingerprint and, on this handle, bit-identical weights.
func (sc *SharedStaticCache) Bind(g *asgraph.Graph, tb Tiebreaker) error {
	if err := sc.core.bind(g, TiebreakerFingerprint(tb)); err != nil {
		return err
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.g == nil {
		sc.g = g
		return nil
	}
	if !sameWeights(sc.g, g) {
		return fmt.Errorf("shared static cache's sidecars are bound to a different weight vector")
	}
	return nil
}

func (c *staticsCore) bind(g *asgraph.Graph, tb string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.g == nil {
		c.g = g
		c.tb = tb
		c.c.g = g
		c.c.Expect(g.N())
		return nil
	}
	if !asgraph.SameTopology(c.g, g) {
		return fmt.Errorf("shared static cache already bound to a different topology")
	}
	if c.tb != tb {
		return fmt.Errorf("shared static cache bound to tiebreaker %s, got %s", c.tb, tb)
	}
	return nil
}

// sameWeights reports whether two graphs of one topology carry
// bit-identical traffic weights.
func sameWeights(a, b *asgraph.Graph) bool {
	if a == b {
		return true
	}
	for i := int32(0); i < int32(a.N()); i++ {
		if math.Float64bits(a.Weight(i)) != math.Float64bits(b.Weight(i)) {
			return false
		}
	}
	return true
}

// Get returns the published static for destination d, or nil. A nil
// store always misses. Packed entries decode into w's scratch (owned
// by the calling goroutine); unpacked entries are immutable shared
// snapshots — either way the result is safe to resolve against without
// further synchronization.
func (sc *SharedStaticCache) Get(d int32, w *Workspace) *Static {
	if sc == nil {
		return nil
	}
	c := sc.core
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.c.entries[d]
	if !ok {
		return nil
	}
	if e.blob != nil {
		// Shared-store blobs are all self-encoded (Add packs them in
		// this process), so the trusted decode applies — see AddBlob.
		s, err := w.DecodePackedTrusted(e.blob)
		if err != nil {
			return nil
		}
		return s
	}
	return e.snap
}

// Add publishes the static for s.Dest, budget permitting. In unpacked
// mode it materializes s in full (delta dependents, provider parents
// and the per-model utility support lists over the graph's ISP index;
// the caller's PrepareDest already computed the winners), snapshots it,
// and publishes the immutable snapshot; two workers that computed the
// same destination concurrently dedupe here, the loser getting the
// winner's snapshot back — bit-identical to its own. Once the store
// has repacked, Add instead encodes s outside the lock and publishes
// the blob. Returns the usable shared snapshot, or nil when the caller
// should keep resolving against its own workspace static (packed
// store, duplicate, or budget exhausted).
func (sc *SharedStaticCache) Add(w *Workspace, s *Static) *Static {
	if sc == nil {
		return nil
	}
	c := sc.core
	c.mu.RLock()
	repacked := c.c.repacked
	c.mu.RUnlock()
	if repacked {
		// Encode outside the lock; the blob is built from caller-owned s.
		blob := AppendPacked(nil, s, c.g)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.c.addBlobBytes(s.Dest, blob)
		return nil
	}
	w.PrepareDelta(s)
	s.ProviderParents()
	s.SupportOutgoing(w.Graph().ISPs())
	s.SupportIncoming(w.Graph().ISPs())
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.c.entries[s.Dest]; ok {
		return e.snap // nil if the existing entry is packed
	}
	return c.c.Add(s)
}

// GetBlob returns the raw packed blob published for destination d, or
// nil when d is absent or stored unpacked. Published blobs are
// immutable, so the returned bytes are safe to read without further
// synchronization.
func (sc *SharedStaticCache) GetBlob(d int32) []byte {
	return onCore(sc, false, func(c *StaticCache) []byte { return c.GetBlob(d) })
}

// AddBlob publishes already-packed bytes for destination d, budget
// permitting. The bytes are copied into the shared arena; the caller
// keeps ownership of blob. Used by the streaming resolve path, which
// holds a validated blob and no decoded snapshot to Add.
func (sc *SharedStaticCache) AddBlob(d int32, blob []byte) bool {
	return onCore(sc, true, func(c *StaticCache) bool { return c.addBlobBytes(d, blob) })
}

// SidecarPut publishes a sidecar payload for (kind, d) to this handle,
// within the handle's own budget — sidecars never compete with the
// core's statics for bytes. The payload is copied; the caller keeps
// ownership.
func (sc *SharedStaticCache) SidecarPut(kind uint8, d int32, payload []byte) bool {
	return onSide(sc, true, func(c *StaticCache) bool { return c.SidecarPut(kind, d, payload) })
}

// SidecarGet returns the sidecar payload this handle published for
// (kind, d), or nil. Published payloads are immutable — safe to read
// lock-free after return.
func (sc *SharedStaticCache) SidecarGet(kind uint8, d int32) []byte {
	return onSide(sc, false, func(c *StaticCache) []byte { return c.SidecarGet(kind, d) })
}

// SidecarDrop forgets this handle's sidecar for (kind, d).
func (sc *SharedStaticCache) SidecarDrop(kind uint8, d int32) {
	onSide(sc, true, func(c *StaticCache) bool { c.SidecarDrop(kind, d); return true })
}

// Bytes returns the accounted size of the core's published statics
// plus this handle's sidecars: what stays resident for a simulation
// bound to this handle.
func (sc *SharedStaticCache) Bytes() int64 {
	return onCore(sc, false, (*StaticCache).Bytes) + onSide(sc, false, (*StaticCache).Bytes)
}

// Entries returns the number of published destinations.
func (sc *SharedStaticCache) Entries() int { return onCore(sc, false, (*StaticCache).Entries) }

// PackedEntries returns the number of packed published destinations.
func (sc *SharedStaticCache) PackedEntries() int64 {
	return onCore(sc, false, (*StaticCache).PackedEntries)
}

// PackedBytes returns the payload bytes of packed published entries.
func (sc *SharedStaticCache) PackedBytes() int64 {
	return onCore(sc, false, (*StaticCache).PackedBytes)
}

// Repacked reports whether the core has switched to packed storage.
func (sc *SharedStaticCache) Repacked() bool { return onCore(sc, false, (*StaticCache).Repacked) }

// Full reports whether a static admission has ever been rejected for
// budget.
func (sc *SharedStaticCache) Full() bool { return onCore(sc, false, (*StaticCache).Full) }

// onCore runs f on the core's statics under the core's lock — exclusive
// when write is set — and returns f's result, or the zero value for a
// nil handle.
func onCore[T any](sc *SharedStaticCache, write bool, f func(*StaticCache) T) T {
	if sc == nil {
		var zero T
		return zero
	}
	return locked(&sc.core.mu, write, sc.core.c, f)
}

// onSide is onCore for the handle's sidecars, under the handle's lock.
func onSide[T any](sc *SharedStaticCache, write bool, f func(*StaticCache) T) T {
	if sc == nil {
		var zero T
		return zero
	}
	return locked(&sc.mu, write, sc.side, f)
}

func locked[T any](mu *sync.RWMutex, write bool, c *StaticCache, f func(*StaticCache) T) T {
	if write {
		mu.Lock()
		defer mu.Unlock()
	} else {
		mu.RLock()
		defer mu.RUnlock()
	}
	return f(c)
}
