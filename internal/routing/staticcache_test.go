package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
)

// boundStore returns a store under budget bound to (g, tb).
func boundStore(t *testing.T, g *asgraph.Graph, tb Tiebreaker, budget int64) *SharedStaticCache {
	t.Helper()
	sc := NewSharedStaticCache(budget)
	if err := sc.Bind(g, tb); err != nil {
		t.Fatal(err)
	}
	return sc
}

// published materializes s as the store publishes it and returns the
// size the store charges for the snapshot.
func published(w *Workspace, s *Static) int64 {
	w.PrepareDelta(s)
	s.ProviderParents()
	s.SupportOutgoing(w.Graph().ISPs())
	s.SupportIncoming(w.Graph().ISPs())
	return s.MemBytes()
}

// TestQuickSnapshotResolutionIdentical: resolving any deployment state
// against a cached snapshot — including delta resolution of flip sets —
// produces exactly the tree a cold PrepareDest would. This is the
// correctness contract of the cross-round static store (Observation
// C.1): a snapshot is observationally indistinguishable from the
// workspace-owned Static it copied.
func TestQuickSnapshotResolutionIdentical(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(18), 0.15, 0.1, 0.25)
		n := g.N()
		tb := HashTiebreaker{Seed: uint64(seed)}
		wCold := NewWorkspace(g)
		wWarm := NewWorkspace(g)
		cache := boundStore(t, g, tb, 0)
		// Round 1: fill the store; every admission must return the stored
		// snapshot.
		for d := int32(0); d < int32(n); d++ {
			if cache.Add(wWarm, wWarm.PrepareDest(d, tb)) == nil {
				t.Logf("seed %d: default budget rejected dest %d", seed, d)
				return false
			}
		}
		// Later rounds: fresh deployment states resolved against the
		// snapshots must match cold recomputation entry for entry.
		var cold, warm, coldProj, warmProj Tree
		for round := 0; round < 3; round++ {
			sec, brk := asgraphtest.RandomState(rng, n, 0.5, 0.7)
			flip := int32(rng.Intn(n))
			flipped := make([]bool, n)
			flipped[flip] = true
			flipList := []int32{flip}
			for d := int32(0); d < int32(n); d++ {
				sCold := wCold.PrepareDest(d, tb)
				cold.Clear(n)
				wCold.ResolveInto(&cold, sCold, sec, brk, nil, nil, tb)
				coldProj.Clear(n)
				wCold.ResolveInto(&coldProj, sCold, sec, brk, flipped, nil, tb)

				snap := cache.Get(d, wWarm)
				if snap == nil {
					t.Logf("seed %d: missing snapshot for dest %d", seed, d)
					return false
				}
				warm.Clear(n)
				wWarm.ResolveInto(&warm, snap, sec, brk, nil, nil, tb)
				if !treesEqual(&cold, &warm, n) {
					t.Logf("seed %d round %d dest %d: snapshot base tree differs", seed, round, d)
					return false
				}
				// Delta resolution against the snapshot: PrepareDelta is an
				// O(1) no-op once the snapshot carries the index.
				wWarm.PrepareDelta(snap)
				warmProj.CopyFrom(&warm)
				wWarm.ApplyFlips(&warmProj, snap, sec, brk, flipped, nil, flipList, tb)
				if !treesEqual(&coldProj, &warmProj, n) {
					t.Logf("seed %d round %d dest %d flip %d: snapshot projected tree differs", seed, round, d, flip)
					return false
				}
				wWarm.RevertFlips(&warmProj)
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotSurvivesWorkspaceReuse: a snapshot shares no storage with
// the workspace, so recomputing other destinations must not disturb it.
func TestSnapshotSurvivesWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := asgraphtest.Random(rng, 16, 0.15, 0.1, 0.25)
	n := g.N()
	tb := HashTiebreaker{Seed: 7}
	w := NewWorkspace(g)

	s := w.PrepareDest(0, tb)
	w.PrepareDelta(s)
	snap := s.Snapshot()
	wantOrder := append([]int32(nil), s.Order()...)

	// Trash the workspace's Static with every other destination.
	for d := int32(1); d < int32(n); d++ {
		w.PrepareDest(d, tb)
		w.PrepareDelta(&w.static)
	}

	if snap.Dest != 0 {
		t.Fatalf("snapshot dest changed to %d", snap.Dest)
	}
	if len(snap.Order()) != len(wantOrder) {
		t.Fatalf("snapshot order length changed: %d vs %d", len(snap.Order()), len(wantOrder))
	}
	for k, i := range snap.Order() {
		if i != wantOrder[k] {
			t.Fatalf("snapshot order[%d] changed: %d vs %d", k, i, wantOrder[k])
		}
	}
	// Resolution against the (aged) snapshot still matches a cold one.
	sec, brk := asgraphtest.RandomState(rng, n, 0.5, 0.7)
	var cold, warm Tree
	cold.Clear(n)
	w.ResolveInto(&cold, w.PrepareDest(0, tb), sec, brk, nil, nil, tb)
	warm.Clear(n)
	w.ResolveInto(&warm, snap, sec, brk, nil, nil, tb)
	if !treesEqual(&cold, &warm, n) {
		t.Fatal("aged snapshot resolves differently from cold recomputation")
	}
}

// TestStaticCacheBudget: admission is first-fit under the byte budget —
// the first overflow repacks, packed admissions continue until one is
// rejected, entries already admitted are pinned, later ones are
// rejected, and the accounted size never exceeds the budget.
func TestStaticCacheBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := asgraphtest.Random(rng, 20, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 11}
	w := NewWorkspace(g)

	// Room for about four packed entries: the first snapshot already
	// overflows, so everything goes in packed.
	var budget int64
	for d := int32(0); d < 4; d++ {
		budget += int64(len(AppendPacked(nil, w.PrepareDest(d, tb), g))) + entryOverhead
	}
	c := boundStore(t, g, tb, budget)

	for d := int32(0); d < n; d++ {
		c.Add(w, w.PrepareDest(d, tb))
		if c.Bytes() > budget {
			t.Fatalf("Bytes() = %d exceeds budget %d after Add %d", c.Bytes(), budget, d)
		}
	}
	admitted := c.Entries()
	if admitted == 0 || admitted == int(n) {
		t.Fatalf("admitted %d of %d, want a strict subset under budget %d", admitted, n, budget)
	}
	if !c.Repacked() || c.PackedEntries() != int64(admitted) {
		t.Errorf("repacked %v with %d of %d entries packed", c.Repacked(), c.PackedEntries(), admitted)
	}
	if !c.Full() {
		t.Error("Full() = false after rejected admissions")
	}
	// First-fit pinning: the first destinations stay, later ones miss.
	if c.Get(0, w) == nil {
		t.Error("first admitted entry lost")
	}
	if c.Get(n-1, w) != nil || c.GetBlob(n-1) != nil {
		t.Error("rejected destination unexpectedly cached")
	}
	// Re-adding a rejected destination still fails, as a blob or as a
	// static: the budget is spoken for and packed entries are never
	// evicted.
	blob := AppendPacked(nil, w.PrepareDest(n-1, tb), g)
	if c.AddBlob(n-1, blob) {
		t.Error("AddBlob succeeded after budget exhaustion")
	}
	c.Add(w, w.PrepareDest(n-1, tb))
	if c.Get(n-1, w) != nil || c.Entries() != admitted {
		t.Error("admission succeeded after budget exhaustion")
	}
}

// TestSharedStaticCacheFullAddAllocsNothing: once a packed core has
// rejected an admission for budget, Add returns before encoding — a
// miss on every later round must not pay an O(reachable) encode, nor
// allocate for one.
func TestSharedStaticCacheFullAddAllocsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := asgraphtest.Random(rng, 40, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 47}
	w := NewWorkspace(g)
	c := boundStore(t, g, tb, int64(len(AppendPacked(nil, w.PrepareDest(0, tb), g)))+entryOverhead)
	for d := int32(0); d < n && !c.Full(); d++ {
		c.Add(w, w.PrepareDest(d, tb))
	}
	if !c.Repacked() || !c.Full() || c.Entries() != 1 {
		t.Fatalf("store repacked %v, full %v, %d entries; want a packed store full after one", c.Repacked(), c.Full(), c.Entries())
	}
	s := w.PrepareDest(n-1, tb)
	if allocs := testing.AllocsPerRun(100, func() { c.Add(w, s) }); allocs != 0 {
		t.Errorf("Add on a full packed store allocated %.1f times per call, want 0", allocs)
	}
}

// TestStaticCacheNil: a nil store is a valid always-miss store.
func TestStaticCacheNil(t *testing.T) {
	var c *SharedStaticCache
	if c.Get(0, nil) != nil || c.GetBlob(0) != nil || c.SidecarGet(0, 0) != nil {
		t.Error("nil store serves an entry")
	}
	if c.Add(nil, &Static{}) != nil || c.AddBlob(0, []byte{packedMagic}) || c.SidecarPut(0, 0, []byte{1}) {
		t.Error("nil store admits an entry")
	}
	c.SidecarDrop(0, 0)
	if c.Bytes() != 0 || c.Entries() != 0 || c.Full() {
		t.Error("nil store reports non-empty state")
	}
	if c.Repacked() || c.PackedBytes() != 0 || c.PackedEntries() != 0 {
		t.Error("nil store reports packed state")
	}
}

// TestSnapshotMemBytes: MemBytes counts exactly what is materialized —
// the accounted size must match the summed array footprints within the
// fixed header overhead, and materialization must grow it by exactly
// the bytes the new arrays occupy (the store charges the grown size).
func TestSnapshotMemBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := asgraphtest.Random(rng, 24, 0.15, 0.1, 0.25)
	tb := HashTiebreaker{Seed: 3}
	w := NewWorkspace(g)
	s := w.PrepareDest(1, tb)
	base := s.MemBytes()
	n, tbs, ord := int64(len(s.Type)), int64(len(s.tbAdj)), int64(len(s.order))
	floor := n + 4*n + 4*(ord+1) + 4*tbs + 4*ord + 4*n + 4*n
	if base < floor || base > floor+1024 {
		t.Errorf("MemBytes = %d, want within [%d, %d] of the measured base arrays", base, floor, floor+1024)
	}
	w.PrepareDelta(s)
	withDelta := s.MemBytes()
	wantDelta := 4 * int64(len(s.revOff)+len(s.revAdj))
	if withDelta-base != wantDelta {
		t.Errorf("delta index grew MemBytes by %d, measured arrays occupy %d", withDelta-base, wantDelta)
	}
	s.ProviderParents()
	withProv := s.MemBytes()
	wantProv := 4*int64(len(s.provParents)) + 8*int64(len(s.provBits))
	if withProv-withDelta != wantProv {
		t.Errorf("provider parents grew MemBytes by %d, measured arrays occupy %d", withProv-withDelta, wantProv)
	}
	s.SupportOutgoing(g.ISPs())
	s.SupportIncoming(g.ISPs())
	withSup := s.MemBytes()
	wantSup := 4 * int64(len(s.supOut)+len(s.supIn))
	if withSup-withProv != wantSup {
		t.Errorf("support lists grew MemBytes by %d, measured arrays occupy %d", withSup-withProv, wantSup)
	}
}

// TestStaticCachePackedRepack: a store that does not know its
// destination count starts unpacked, repacks on its first overflow
// keeping everything resident when the packed set fits, places the
// blobs in its arena, and serves bit-exact statics from them — and a
// budget below the packed set stops admission without exceeding it.
func TestStaticCachePackedRepack(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := asgraphtest.Random(rng, 40, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 31}
	w := NewWorkspace(g)
	wRef := NewWorkspace(g)

	var packedTotal, unpackedTotal int64
	for d := int32(0); d < n; d++ {
		s := w.PrepareDest(d, tb)
		packedTotal += int64(len(AppendPacked(nil, s, g)))
		unpackedTotal += published(w, s)
	}
	// Sized so the unpacked set overflows but the packed set (with per-
	// entry overhead) fits comfortably: the overflow must trigger one
	// repack and lose nothing.
	budget := 3 * (packedTotal + int64(n)*entryOverhead)
	if budget >= unpackedTotal {
		t.Fatalf("graph too small to force repack: packed budget %d >= unpacked %d", budget, unpackedTotal)
	}
	untold := func(budget int64) *SharedStaticCache {
		c := boundStore(t, g, tb, budget)
		c.core.c.expected = 0
		return c
	}
	c := untold(budget)
	snaps := 0
	for d := int32(0); d < n; d++ {
		if c.Add(w, w.PrepareDest(d, tb)) != nil {
			snaps++
		}
	}
	if snaps == 0 || !c.Repacked() {
		t.Fatalf("store admitted %d snapshots, repacked %v; want snapshots, then a repack", snaps, c.Repacked())
	}
	if c.Entries() != int(n) || c.PackedEntries() != int64(n) {
		t.Fatalf("%d of %d destinations resident, %d packed, after repack", c.Entries(), n, c.PackedEntries())
	}
	if c.Bytes() > budget {
		t.Fatalf("Bytes() = %d exceeds budget %d after repack", c.Bytes(), budget)
	}
	if c.PackedBytes() == 0 || c.core.c.arena.allocated == 0 {
		t.Fatalf("packed accounting empty after repack: bytes %d arena %d", c.PackedBytes(), c.core.c.arena.allocated)
	}
	for d := int32(0); d < n; d++ {
		got := c.Get(d, w)
		if got == nil {
			t.Fatalf("dest %d missing after repack", d)
		}
		if !staticsEqual(t, wRef.PrepareDest(d, tb), got, n) {
			t.Fatalf("dest %d decodes differently after repack", d)
		}
	}

	// A budget below the packed set keeps a subset, and the survivors
	// still decode bit-exact.
	c3 := untold(budget / 6)
	for d := int32(0); d < n; d++ {
		c3.Add(w, w.PrepareDest(d, tb))
	}
	if c3.Entries() == int(n) {
		t.Fatal("tiny budget kept every destination")
	}
	if c3.Bytes() > budget/6 {
		t.Fatalf("tiny store Bytes() = %d exceeds budget %d", c3.Bytes(), budget/6)
	}
	served := 0
	for d := int32(0); d < n; d++ {
		if got := c3.Get(d, w); got != nil {
			served++
			if !staticsEqual(t, wRef.PrepareDest(d, tb), got, n) {
				t.Fatalf("tiny-store dest %d differs", d)
			}
		}
	}
	if served != c3.Entries() {
		t.Fatalf("served %d but Entries() = %d", served, c3.Entries())
	}
}

// TestStaticCacheStartsPackedWhenSetCannotFit: a store bound to a graph
// knows how many destinations it will be offered, and skips the
// unpacked phase when its first snapshot shows that many cannot fit —
// packed from the first Add, the budget never exceeded on the way,
// nothing snapshotted only to be re-encoded — and behaves exactly as a
// store without the count when they can.
func TestStaticCacheStartsPackedWhenSetCannotFit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := asgraphtest.Random(rng, 40, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 41}
	w := NewWorkspace(g)
	wRef := NewWorkspace(g)
	var unpackedTotal int64
	for d := int32(0); d < n; d++ {
		unpackedTotal += published(w, w.PrepareDest(d, tb))
	}
	first := published(w, w.PrepareDest(0, tb))

	// Below expected × size: packed after the very first Add.
	budget := int64(n)*first - 1
	c := boundStore(t, g, tb, budget)
	for d := int32(0); d < n; d++ {
		if got := c.Add(w, w.PrepareDest(d, tb)); got != nil {
			t.Fatalf("dest %d admitted as a snapshot by a store that cannot hold the set", d)
		}
		if !c.Repacked() {
			t.Fatalf("not packed after Add %d", d)
		}
		if c.Bytes() > budget {
			t.Fatalf("Bytes() = %d exceeds budget %d after Add %d", c.Bytes(), budget, d)
		}
	}
	if c.Entries() != int(n) || c.PackedEntries() != int64(n) {
		t.Fatalf("%d entries, %d packed; want all %d packed", c.Entries(), c.PackedEntries(), n)
	}
	for d := int32(0); d < n; d++ {
		if got := c.Get(d, w); got == nil || !staticsEqual(t, wRef.PrepareDest(d, tb), got, n) {
			t.Fatalf("dest %d lost or decoded differently", d)
		}
	}

	// At or above: the unpacked phase, exactly as without the count —
	// same budget, told and untold, entry for entry — whether the set
	// really fits (roomy) or only the first snapshot's estimate said so.
	roomy := unpackedTotal + int64(n)*first
	for _, budget := range []int64{roomy, int64(n) * first} {
		told := boundStore(t, g, tb, budget)
		untold := boundStore(t, g, tb, budget)
		untold.core.c.expected = 0
		for d := int32(0); d < n; d++ {
			a, b := told.Add(w, w.PrepareDest(d, tb)), untold.Add(w, w.PrepareDest(d, tb))
			if (a == nil) != (b == nil) || told.Repacked() != untold.Repacked() || told.Bytes() != untold.Bytes() {
				t.Fatalf("budget %d, Add %d: told store (snap %v, repacked %v, %d B) diverges from untold (snap %v, repacked %v, %d B)",
					budget, d, a != nil, told.Repacked(), told.Bytes(), b != nil, untold.Repacked(), untold.Bytes())
			}
		}
		if budget == roomy && (told.Repacked() || told.PackedEntries() != 0) {
			t.Fatal("store with room for the whole unpacked set went packed")
		}
	}
}

// TestSharedStaticCachePublishesIndexed: the engine builds the
// dependents index on demand, in the middle of a candidate loop, on
// whatever static it resolved against — which may be a snapshot every
// other worker is reading. A published snapshot must therefore already
// carry the index, so that build is a no-op that writes nothing.
func TestSharedStaticCachePublishesIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := asgraphtest.Random(rng, 24, 0.15, 0.1, 0.25)
	tb := HashTiebreaker{Seed: 43}
	sc := boundStore(t, g, tb, 0)
	w := NewWorkspace(g)
	snap := sc.Add(w, w.PrepareDest(3, tb))
	if snap == nil {
		t.Fatal("roomy store did not publish an unpacked snapshot")
	}
	if !snap.deltaReady {
		t.Fatal("published snapshot carries no dependents index")
	}
	size, revAdj := snap.MemBytes(), &snap.revAdj[0]
	NewWorkspace(g).PrepareDelta(snap)
	if snap.MemBytes() != size || &snap.revAdj[0] != revAdj {
		t.Fatal("PrepareDelta rebuilt the index of a published snapshot")
	}
}
