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
// only ever reads a Static.
//
// SharedStaticCache (below) is the one resident form. Every engine
// serves its statics and pristine sidecars through one: its own, or one
// a caller shares across the simulations of a topology — a handle over a
// statics core that serves every graph of that topology, keeping the
// weight-dependent sidecars apart, one set per weight vector.
//
// Two storage formats share one core. Unpacked entries are Snapshot
// deep copies, materialized in full before they are published (delta
// dependents, provider parents, support lists), so they are immutable
// and resolution reads them directly. Packed entries are the blob form
// of packed.go at ≈3–5 B/node instead of ≈26–35: resolution decodes
// them into the calling worker's Workspace on every hit, which costs
// O(reachable) but stays far below the BFS it replaces. A core starts
// in unpacked mode — small graphs whose full snapshot set fits the
// budget never pay the decode — and repacks every entry in place the
// first time an admission would overflow the budget, then admits packed
// from there on: the 3–9x density buys paper-scale graphs residency
// instead of admission stops. A core that knows how many destinations
// it will be offered (the bound graph's N) skips the unpacked phase
// outright when its first snapshot shows the full set cannot fit,
// rather than copying a budget's worth of snapshots only to re-encode
// them all.

// DefaultStaticCacheBytes is the default static budget: 1 GiB for a
// store's statics, and as much again for each handle's sidecars. A
// published snapshot costs ≈26–35 bytes per node (Type, Len, pos,
// winners, order and the tiebreak CSR, plus the delta-dependents index,
// provider parents and support lists it is published with), so N
// destinations of N nodes need ≈26·N²–35·N² bytes: the full unpacked
// set fits up to N≈5000. Beyond that the store (see above) holds ≈3–5
// B/node — packed from the first entry when the graph's N says so — and
// only the statics a later round reads: the record holders', not those of
// destinations served by their pristine sidecars. At the paper's
// N=36,964 that is ≈7,200 destinations in ≈1.0 GB, just inside the
// budget; a graph whose record set outgrows it caches a pinned prefix
// of them and recomputes the rest each round.
const DefaultStaticCacheBytes = int64(1) << 30

// MemBytes returns the heap footprint of s, counting exactly what is
// materialized right now: the always-present base arrays, plus the
// delta-dependents index, provider parents and support lists only once
// built. A store materializes a snapshot in full before publishing it,
// so the size it charges at admission is final.
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

// arenaSlabBytes is the chunk size of a store's blob arenas. Blobs
// larger than a quarter slab get a dedicated allocation.
const arenaSlabBytes = 1 << 20

// staticArena bump-allocates packed blobs into large slabs so a store
// holding tens of thousands of small blobs costs that many arena
// *copies*, not that many heap objects. Blobs are never freed
// individually: a dropped sidecar's bytes become slack. Filled slabs
// are retained by the blob slices that point into them; the arena
// itself only keeps the slab it is currently filling.
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

// cacheEntry is one destination's resident static: exactly one of snap
// (unpacked snapshot) or blob (packed, arena-backed) is set. charged is
// the byte cost accounted against the budget for this entry.
type cacheEntry struct {
	snap    *Static
	blob    []byte
	charged int64
}

// entryOverhead approximates the map-slot plus entry-struct cost of
// one resident destination.
const entryOverhead = 64

// staticCache is a core's statics: per-destination entries under a byte
// budget, not synchronized (the core's lock guards it). It admits
// whatever it is offered, first-fit, and pins it: deterministic, and no
// churn. Which statics are worth offering is the caller's decision —
// the engine offers every static while the core is unpacked, and once
// it has repacked only those a later round will read (sim's
// fetchStatic: a destination served by its pristine sidecar never reads
// its static again). The first overflow repacks every entry (see the
// package comment above) instead of stopping admission.
type staticCache struct {
	budget   int64
	bytes    int64
	full     bool // an admission was rejected for budget
	repacked bool // first overflow happened; admissions encode from here on
	g        *asgraph.Graph
	expected int64 // destinations the core will be offered; 0 = unknown
	entries  map[int32]cacheEntry

	packedBytes   int64
	packedEntries int64
	arena         staticArena
	scratch       []byte
}

// repackAll converts every unpacked entry to its packed blob, rebasing
// the accounted bytes on the packed sizes. A blob is far smaller than
// the snapshot it replaces (≈3–5 against ≥26 B/node), so the repack
// only frees bytes. This runs once, on the first overflow; from then on
// admissions encode directly.
func (c *staticCache) repackAll() {
	c.repacked = true
	for d, e := range c.entries {
		if e.snap == nil {
			continue
		}
		c.scratch = AppendPacked(c.scratch[:0], e.snap, c.g)
		c.bytes -= e.charged
		e = cacheEntry{blob: c.arena.place(c.scratch), charged: int64(len(c.scratch)) + entryOverhead}
		c.entries[d] = e
		c.bytes += e.charged
		c.packedBytes += int64(len(e.blob))
		c.packedEntries++
	}
}

// add admits snap, a Snapshot of a fully materialized static, returning
// it when it was stored as is, or nil when it went in packed or not at
// all. Once an admission has been rejected for budget, packed ones are
// skipped outright: the encode is O(reachable), and paying it per miss
// on every round after the core fills would hand back a large share of
// the win.
func (c *staticCache) add(snap *Static) *Static {
	sz := snap.MemBytes()
	if !c.repacked &&
		(c.bytes+sz > c.budget || len(c.entries) == 0 && c.expected*sz > c.budget) {
		// This snapshot overflows the budget — or it is the first and
		// the destinations still to come, at its size, will: switch to
		// packed storage now (a no-op pass over an empty core) instead
		// of snapshotting up to the budget and repacking it all.
		c.repackAll()
	}
	if c.repacked {
		if !c.full {
			c.scratch = AppendPacked(c.scratch[:0], snap, c.g)
			c.addBlob(snap.Dest, c.scratch)
		}
		return nil
	}
	c.insert(snap.Dest, cacheEntry{snap: snap, charged: sz})
	return snap
}

// addBlob admits a copy of an already-encoded packed blob for d, before
// or after the repack, reporting whether it was admitted. The blob must
// be self-encoded or a disk blob that passed Lookup: readers decode it
// trusted (see DecodePackedTrusted for what that relies on).
func (c *staticCache) addBlob(d int32, blob []byte) bool {
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

func (c *staticCache) insert(d int32, e cacheEntry) {
	if c.entries == nil {
		c.entries = make(map[int32]cacheEntry)
	}
	c.entries[d] = e
	c.bytes += e.charged
}

// sidecarSet is a handle's pristine-contribution sidecars (sidecar.go),
// keyed by (kind, dest) — a destination may carry one vector per utility
// model — and copied into an arena under a budget of their own, not
// synchronized (the handle's lock guards it). A sidecar is a few dozen
// bytes against a multi-KB static, so a put that would overflow is
// simply rejected (the consumer recomputes) rather than evicting.
type sidecarSet struct {
	budget   int64
	bytes    int64
	payloads map[int64][]byte
	arena    staticArena
}

// sidecarKey packs a sidecar's (kind, dest) identity into one map key.
func sidecarKey(kind uint8, d int32) int64 {
	return int64(kind)<<32 | int64(uint32(d))
}

func (c *sidecarSet) put(kind uint8, d int32, payload []byte) bool {
	k := sidecarKey(kind, d)
	if _, ok := c.payloads[k]; ok || len(payload) == 0 {
		return false
	}
	sz := int64(len(payload)) + entryOverhead
	if c.bytes+sz > c.budget {
		return false
	}
	if c.payloads == nil {
		c.payloads = make(map[int64][]byte)
	}
	c.payloads[k] = c.arena.place(payload)
	c.bytes += sz
	return true
}

func (c *sidecarSet) drop(kind uint8, d int32) {
	k := sidecarKey(kind, d)
	if p, ok := c.payloads[k]; ok {
		delete(c.payloads, k)
		c.bytes -= int64(len(p)) + entryOverhead
	}
}

// SharedStaticCache is the concurrency-safe resident static store: a
// handle over a statics core, plus the handle's own pristine sidecars.
// An engine's workers all serve through one — the engine's own, or a
// handle a caller shares across simulations.
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
// winners, delta dependents index, provider parents, support lists), so
// the *Static a reader receives is immutable: every lazy accessor — the
// engine's build-the-index-on-demand PrepareDelta included — is already
// a no-op, and any goroutine may resolve against it without
// synchronization. Packed entries are immutable bytes decoded into the
// calling worker's own scratch. Only the maps are guarded: the statics
// by the core's lock, the sidecars by the handle's.
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
	side sidecarSet
}

// staticsCore is the weight-independent half of a SharedStaticCache:
// the statics of one (topology, tiebreaker), shared by every handle.
// Its statics' graph is the first one bound: the topology all others
// match.
type staticsCore struct {
	mu sync.RWMutex
	tb string // TiebreakerFingerprint of the bound tiebreaker
	c  staticCache
}

// NewSharedStaticCache returns an unbound handle over a fresh core. The
// core admits statics until adding one would exceed budget bytes, and
// the handle's sidecars have a budget of their own of the same size;
// budget 0 means DefaultStaticCacheBytes. The core repacks on overflow
// (see the package comment) once bound to its topology.
func NewSharedStaticCache(budget int64) *SharedStaticCache {
	if budget == 0 {
		budget = DefaultStaticCacheBytes
	}
	return &SharedStaticCache{
		core: &staticsCore{c: staticCache{budget: budget}},
		side: sidecarSet{budget: budget},
	}
}

// Share returns a new handle over sc's statics core, with its own empty
// sidecar store under the same budget: the handle for a graph of sc's
// topology with other traffic weights.
func (sc *SharedStaticCache) Share() *SharedStaticCache {
	return &SharedStaticCache{core: sc.core, side: sidecarSet{budget: sc.side.budget}}
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
	if c.c.g == nil {
		c.c.g = g
		c.c.expected = int64(g.N())
		c.tb = tb
		return nil
	}
	if !asgraph.SameTopology(c.c.g, g) {
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
// by the calling goroutine) and the result is invalidated by w's next
// build or decode; unpacked entries are immutable shared snapshots —
// either way the result is safe to resolve against without further
// synchronization.
func (sc *SharedStaticCache) Get(d int32, w *Workspace) *Static {
	if sc == nil {
		return nil
	}
	c := sc.core
	c.mu.RLock()
	e, ok := c.c.entries[d]
	c.mu.RUnlock()
	if !ok {
		return nil
	}
	if e.blob != nil {
		// Published blobs are self-encoded or disk blobs that passed
		// Lookup's CRC: the trusted decode's model (DecodePackedTrusted).
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
// winner's snapshot back — bit-identical to its own. Once the core has
// repacked, Add instead encodes s into a pooled buffer and publishes
// the blob — or returns at once when the core is full. The snapshot
// copy and the encode run outside the lock. Returns the usable shared
// snapshot, or nil when the caller should keep resolving against its
// own workspace static (packed core, duplicate, or budget exhausted).
func (sc *SharedStaticCache) Add(w *Workspace, s *Static) *Static {
	if sc == nil {
		return nil
	}
	c := sc.core
	c.mu.RLock()
	e, dup := c.c.entries[s.Dest]
	repacked, full, g := c.c.repacked, c.c.full, c.c.g
	c.mu.RUnlock()
	if dup {
		return e.snap // nil if the existing entry is packed
	}
	if repacked {
		if full {
			return nil
		}
		buf := packedEncPool.Get().(*[]byte)
		*buf = AppendPacked((*buf)[:0], s, g)
		c.mu.Lock()
		c.c.addBlob(s.Dest, *buf)
		c.mu.Unlock()
		packedEncPool.Put(buf)
		return nil
	}
	w.PrepareDelta(s)
	s.ProviderParents()
	s.SupportOutgoing(w.Graph().ISPs())
	s.SupportIncoming(w.Graph().ISPs())
	snap := s.Snapshot()
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.c.entries[s.Dest]; ok {
		return e.snap
	}
	return c.c.add(snap)
}

// GetBlob returns the raw packed blob published for destination d, or
// nil when d is absent or stored unpacked. Published blobs are
// immutable, so the returned bytes are safe to read without further
// synchronization. This is the streaming resolver's entry point: it
// walks the blob directly, skipping the workspace decode a Get performs.
func (sc *SharedStaticCache) GetBlob(d int32) []byte {
	return onCore(sc, false, func(c *staticCache) []byte { return c.entries[d].blob })
}

// AddBlob publishes already-packed bytes for destination d, budget
// permitting, before or after the repack: a disk blob is admitted as
// its bytes, never re-encoded or snapshotted. The bytes are copied into
// the core's arena; the caller keeps ownership of blob. The blob must
// have passed the disk store's Lookup (or be self-encoded): Get and
// GetBlob's readers trust it as DecodePackedTrusted describes.
func (sc *SharedStaticCache) AddBlob(d int32, blob []byte) bool {
	return onCore(sc, true, func(c *staticCache) bool { return c.addBlob(d, blob) })
}

// SidecarPut publishes a sidecar payload for (kind, d) to this handle,
// within the handle's own budget — sidecars never compete with the
// core's statics for bytes. Duplicates and over-budget puts are
// rejected. The payload is copied; the caller keeps ownership, and must
// have encoded it with AppendSidecar or read it from the disk store.
func (sc *SharedStaticCache) SidecarPut(kind uint8, d int32, payload []byte) bool {
	return onSide(sc, true, func(c *sidecarSet) bool { return c.put(kind, d, payload) })
}

// SidecarGet returns the sidecar payload this handle published for
// (kind, d), or nil. Published payloads are immutable — safe to read
// lock-free after return.
func (sc *SharedStaticCache) SidecarGet(kind uint8, d int32) []byte {
	return onSide(sc, false, func(c *sidecarSet) []byte { return c.payloads[sidecarKey(kind, d)] })
}

// SidecarDrop forgets this handle's sidecar for (kind, d) — the
// response to a payload that fails to decode, so a later put repairs it.
func (sc *SharedStaticCache) SidecarDrop(kind uint8, d int32) {
	onSide(sc, true, func(c *sidecarSet) bool { c.drop(kind, d); return true })
}

// Bytes returns the accounted size of the core's published statics
// plus this handle's sidecars: what stays resident for a simulation
// bound to this handle.
func (sc *SharedStaticCache) Bytes() int64 {
	return onCore(sc, false, func(c *staticCache) int64 { return c.bytes }) +
		onSide(sc, false, func(c *sidecarSet) int64 { return c.bytes })
}

// Entries returns the number of published destinations.
func (sc *SharedStaticCache) Entries() int {
	return onCore(sc, false, func(c *staticCache) int { return len(c.entries) })
}

// PackedEntries returns the number of packed published destinations.
func (sc *SharedStaticCache) PackedEntries() int64 {
	return onCore(sc, false, func(c *staticCache) int64 { return c.packedEntries })
}

// PackedBytes returns the payload bytes of packed published entries.
func (sc *SharedStaticCache) PackedBytes() int64 {
	return onCore(sc, false, func(c *staticCache) int64 { return c.packedBytes })
}

// Repacked reports whether the core has switched to packed storage.
func (sc *SharedStaticCache) Repacked() bool {
	return onCore(sc, false, func(c *staticCache) bool { return c.repacked })
}

// Full reports whether a static admission has ever been rejected for
// budget.
func (sc *SharedStaticCache) Full() bool {
	return onCore(sc, false, func(c *staticCache) bool { return c.full })
}

// onCore runs f on the core's statics under the core's lock — exclusive
// when write is set — and returns f's result, or the zero value for a
// nil handle.
func onCore[T any](sc *SharedStaticCache, write bool, f func(*staticCache) T) T {
	if sc == nil {
		var zero T
		return zero
	}
	return locked(&sc.core.mu, write, &sc.core.c, f)
}

// onSide is onCore for the handle's sidecars, under the handle's lock.
func onSide[T any](sc *SharedStaticCache, write bool, f func(*sidecarSet) T) T {
	if sc == nil {
		var zero T
		return zero
	}
	return locked(&sc.mu, write, &sc.side, f)
}

func locked[C, T any](mu *sync.RWMutex, write bool, c C, f func(C) T) T {
	if write {
		mu.Lock()
		defer mu.Unlock()
	} else {
		mu.RLock()
		defer mu.RUnlock()
	}
	return f(c)
}
