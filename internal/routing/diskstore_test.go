package routing

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/topogen"
)

// diskTestSetup builds a small graph, its reference blobs, and an empty
// store root. The graph is kept small so the corruption sweeps (one
// open per mutated byte) stay fast.
func diskTestSetup(t *testing.T, nNodes int, seed int64) (g *asgraph.Graph, tb HashTiebreaker, blobs [][]byte, root string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gg := asgraphtest.Random(rng, nNodes, 0.15, 0.1, 0.25)
	tb = HashTiebreaker{Seed: uint64(seed)}
	w := NewWorkspace(gg)
	blobs = make([][]byte, gg.N())
	for d := int32(0); d < int32(gg.N()); d++ {
		blobs[d] = AppendPacked(nil, w.PrepareDest(d, tb), gg)
	}
	return gg, tb, blobs, t.TempDir()
}

// populate fills a fresh store instance with every destination's blob
// and closes it, returning the keyed directory.
func populate(t *testing.T, root string, g *asgraph.Graph, tb Tiebreaker, blobs [][]byte) string {
	t.Helper()
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	for d, blob := range blobs {
		if !st.Put(int32(d), blob) {
			t.Fatalf("dest %d: Put refused", d)
		}
	}
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDiskStoreRoundTrip: blobs survive Put/Close/Open/Lookup
// byte-for-byte, found again by the open-time segment scan.
func TestDiskStoreRoundTrip(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 24, 31)
	populate(t, root, g, tb, blobs)

	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Entries() != len(blobs) {
		t.Fatalf("%d entries, want %d", st.Entries(), len(blobs))
	}
	w := NewWorkspace(g)
	for d, want := range blobs {
		got := st.Lookup(int32(d))
		if string(got) != string(want) {
			t.Fatalf("dest %d: blob differs (%d vs %d bytes)", d, len(got), len(want))
		}
		if _, err := w.DecodePacked(got); err != nil {
			t.Fatalf("dest %d: decode failed: %v", d, err)
		}
	}
}

// TestDiskStoreLookupIntoReusesBuffer: a hit read into a buffer with
// room allocates nothing and returns the buffer's own memory, holding
// the stored bytes; a buffer too small is replaced by a larger one, not
// overrun. Lookup, with no buffer, allocates its blob.
func TestDiskStoreLookupIntoReusesBuffer(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 24, 31)
	populate(t, root, g, tb, blobs)
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const kind = 1
	sc := AppendSidecar(nil, 5, g.N(), kind, []SidecarEntry{{Node: 2, Bits: 9}})
	if !st.PutSidecar(kind, 5, sc) {
		t.Fatal("PutSidecar refused")
	}
	buf := make([]byte, 0, 1<<16)
	for d, want := range blobs {
		got := st.LookupInto(int32(d), &buf)
		if !bytes.Equal(got, want) || &got[0] != &buf[:1][0] {
			t.Fatalf("dest %d: LookupInto returned %d bytes, in its buffer: %v", d, len(got), &got[0] == &buf[:1][0])
		}
	}
	short := make([]byte, 1)
	if got := st.LookupInto(3, &short); !bytes.Equal(got, blobs[3]) || &short[0] != &got[0] {
		t.Fatal("LookupInto with a short buffer differs, or did not grow it")
	}
	if got := st.LookupSidecar(kind, 5, &buf); !bytes.Equal(got, sc) || &got[0] != &buf[:1][0] {
		t.Fatal("LookupSidecar did not read into its buffer")
	}
	if a := testing.AllocsPerRun(50, func() { st.LookupInto(7, &buf) }); a != 0 {
		t.Errorf("LookupInto hit allocates %v times", a)
	}
	if a := testing.AllocsPerRun(50, func() { st.LookupSidecar(kind, 5, &buf) }); a != 0 {
		t.Errorf("LookupSidecar hit allocates %v times", a)
	}
	if a := testing.AllocsPerRun(50, func() { st.Lookup(7) }); a != 1 {
		t.Errorf("Lookup hit allocates %v times, want its one blob", a)
	}
}

// TestDiskStoreCorruptionSweep mirrors TestPackedCorruptBlob one layer
// up: every single-byte flip and every truncation of the segment file
// must leave the store serving only byte-exact blobs — a mutated
// record either disappears (Lookup nil → the caller recomputes) or is
// indistinguishable from the original.
func TestDiskStoreCorruptionSweep(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 10, 37)
	dir := populate(t, root, g, tb, blobs)

	segName := ""
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n := e.Name(); len(n) > 4 && n[:4] == "seg-" {
			segName = n
		}
	}
	if segName == "" {
		t.Fatal("no segment file written")
	}
	segPath := filepath.Join(dir, segName)
	segBytes, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	// sweep opens the store against a mutated segment and asserts every
	// surviving Lookup is byte-exact; missing records are fine.
	sweep := func(mutated []byte, what string, at int) {
		t.Helper()
		if err := os.WriteFile(segPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStaticDiskStore(root, g, tb)
		if err != nil {
			t.Fatalf("%s at %d: open failed: %v", what, at, err)
		}
		for d, want := range blobs {
			got := st.Lookup(int32(d))
			if got != nil && string(got) != string(want) {
				t.Fatalf("%s at %d: dest %d served %d wrong bytes", what, at, d, len(got))
			}
		}
		st.Close()
	}

	// Segment sweep: flips and truncations.
	for at := 0; at < len(segBytes); at++ {
		mutated := append([]byte(nil), segBytes...)
		mutated[at] ^= 0xFF
		sweep(mutated, "seg flip", at)
		sweep(segBytes[:at], "seg truncation", at)
	}
	if err := os.WriteFile(segPath, segBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	// After all that: the pristine segment serves everything again.
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for d, want := range blobs {
		if got := st.Lookup(int32(d)); string(got) != string(want) {
			t.Fatalf("dest %d lost after sweep", d)
		}
	}
}

// TestDiskStoreIgnoresStaleIndex: older builds kept an index.bin beside
// the segments. A leftover one is never read — even one that claims
// records the segment lacks (here: every destination, at the first
// record's place) registers nothing, and the store serves exactly what
// its segment scan found.
func TestDiskStoreIgnoresStaleIndex(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 12, 65)
	half := len(blobs) / 2
	dir := populate(t, root, g, tb, blobs[:half])
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	// The layout older builds wrote: magic "SBSX", version 2, then per
	// segment its name, covered bytes and (kind, dest, off, len, crc)
	// records, the whole guarded by a trailing CRC-32C.
	le := binary.LittleEndian
	idx := le.AppendUint32(nil, 0x58534253)
	idx = le.AppendUint32(idx, 2)
	idx = le.AppendUint32(idx, 1)
	name := filepath.Base(segs[0])
	idx = le.AppendUint32(idx, uint32(len(name)))
	idx = append(idx, name...)
	idx = le.AppendUint64(idx, uint64(fi.Size()))
	idx = le.AppendUint32(idx, uint32(len(blobs)))
	for d := range blobs {
		idx = append(idx, 0)
		idx = le.AppendUint32(idx, uint32(d))
		idx = le.AppendUint64(idx, 0)
		idx = le.AppendUint32(idx, uint32(len(blobs[0])))
		idx = le.AppendUint32(idx, crc32.Checksum(blobs[0], castagnoli))
	}
	idx = le.AppendUint32(idx, crc32.Checksum(idx, castagnoli))
	if err := os.WriteFile(filepath.Join(dir, "index.bin"), idx, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Entries() != half {
		t.Fatalf("%d entries, want the segment's %d", st.Entries(), half)
	}
	for d, want := range blobs {
		got := st.Lookup(int32(d))
		if d < half && string(got) != string(want) {
			t.Fatalf("dest %d: stored blob not served byte-exactly", d)
		}
		if d >= half && (got != nil || st.Has(int32(d))) {
			t.Fatalf("dest %d: served from the stale index", d)
		}
	}
}

// TestDiskStoreOversizedLength: a header whose length field is 2^31 or
// more cannot be a record this store wrote, and registering it would
// make its length negative and panic Lookup. The scan stops at it. The
// segment is sparse: it claims 2 GiB but holds one header.
func TestDiskStoreOversizedLength(t *testing.T) {
	g, tb, _, root := diskTestSetup(t, 8, 67)
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	dir := st.Dir()
	st.Close()
	seg := filepath.Join(dir, "seg-00000000-000.log")
	hdr := binary.LittleEndian.AppendUint32(nil, diskRecMagic)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)          // dest 0
	hdr = binary.LittleEndian.AppendUint32(hdr, 0x80000000) // length 2^31
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	if err := os.WriteFile(seg, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, diskRecHeader+0x80000000); err != nil {
		t.Skipf("no sparse 2 GiB file here: %v", err)
	}

	st, err = OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Lookup(0) != nil || st.Has(0) {
		t.Fatal("a 2^31-byte length registered a record")
	}
}

// TestDiskStoreTornTail: a partial trailing record (crash mid-append)
// is invisible, earlier records still serve, and the next instance
// appends past it without mutating the torn file.
func TestDiskStoreTornTail(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 16, 41)
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	half := len(blobs) / 2
	for d := 0; d < half; d++ {
		st.Put(int32(d), blobs[d])
	}
	dir := st.Dir()
	st.Close()

	// Tear: append a header that promises more bytes than exist.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x53, 0x42, 0x53, 0x31, 0, 0, 0, 0, 0xFF, 0xFF, 0, 0} // magic, dest 0, huge len, no blob
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for d := 0; d < half; d++ {
		if got := st2.Lookup(int32(d)); string(got) != string(blobs[d]) {
			t.Fatalf("dest %d lost behind torn tail", d)
		}
	}
	// The rest writes into a fresh segment and round-trips.
	for d := half; d < len(blobs); d++ {
		if !st2.Put(int32(d), blobs[d]) {
			t.Fatalf("dest %d: repair Put refused", d)
		}
	}
	for d, want := range blobs {
		if got := st2.Lookup(int32(d)); string(got) != string(want) {
			t.Fatalf("dest %d wrong after repair", d)
		}
	}
}

// TestDiskStoreDropRepair: a record whose blob bytes rot in place fails
// its CRC, disappears, and a fresh Put supersedes it via last-wins.
func TestDiskStoreDropRepair(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 12, 43)
	dir := populate(t, root, g, tb, blobs)
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Rot one byte inside the first record's blob (header is 16 bytes).
	raw[16+len(blobs[0])/2] ^= 0xFF
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Lookup(0); got != nil {
		t.Fatalf("rotted record served %d bytes", len(got))
	}
	if !st.Put(0, blobs[0]) {
		t.Fatal("repair Put refused")
	}
	if got := st.Lookup(0); string(got) != string(blobs[0]) {
		t.Fatal("repaired record wrong")
	}
	st.Close()

	// The repair wins over the rot on the next open too.
	st2, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Lookup(0); string(got) != string(blobs[0]) {
		t.Fatal("repair did not survive reopen")
	}
}

// TestDiskStoreMeta: corrupt meta restarts the store empty (existing
// segments ignored) and heals; a well-formed meta for a different
// binding refuses to open.
func TestDiskStoreMeta(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 12, 47)
	dir := populate(t, root, g, tb, blobs)
	metaPath := filepath.Join(dir, "meta.json")

	// Corrupt meta: open succeeds, sees nothing, rewrites meta.
	if err := os.WriteFile(metaPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatalf("corrupt meta should heal, got %v", err)
	}
	if st.Entries() != 0 {
		t.Fatalf("untrusted dir served %d entries, want 0", st.Entries())
	}
	if st.Lookup(0) != nil {
		t.Fatal("untrusted dir served a blob")
	}
	st.Close()

	// Healed: but the old segments stay ignored even now (they predate
	// the meta rewrite). A fresh populate works.
	st2, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	st2.Put(3, blobs[3])
	if got := st2.Lookup(3); string(got) != string(blobs[3]) {
		t.Fatal("heal round-trip failed")
	}
	st2.Close()

	// Well-formed mismatch: refuse.
	if err := os.WriteFile(metaPath, []byte(`{"graph":"deadbeef","tiebreaker":"00","nodes":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStaticDiskStore(root, g, tb); err == nil {
		t.Fatal("mismatched meta should refuse to open")
	}
}

// TestDiskStoreConcurrent: two instances on one directory, hammered by
// concurrent writers and readers (run under -race), then a third
// instance sees the union.
func TestDiskStoreConcurrent(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 48, 53)
	a, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := a
			if w%2 == 1 {
				st = b
			}
			for d := w; d < len(blobs); d += 4 {
				st.Put(int32(d), blobs[d])
				if got := st.Lookup(int32(d)); got != nil && string(got) != string(blobs[d]) {
					t.Errorf("writer %d: dest %d wrong bytes", w, d)
				}
			}
			// Read everything, including the other workers' territory.
			for d, want := range blobs {
				if got := st.Lookup(int32(d)); got != nil && string(got) != string(want) {
					t.Errorf("writer %d: dest %d read wrong bytes", w, d)
				}
			}
		}(w)
	}
	wg.Wait()
	a.Close()
	b.Close()

	c, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Entries() != len(blobs) {
		t.Fatalf("union has %d entries, want %d", c.Entries(), len(blobs))
	}
	for d, want := range blobs {
		if got := c.Lookup(int32(d)); string(got) != string(want) {
			t.Fatalf("union dest %d wrong", d)
		}
	}
}

// TestDiskStoreSharedRegistry: SharedStaticDiskStore memoizes per
// (root, graph, tiebreaker) and CloseSharedDiskStores simulates a
// restart — the reopened instance serves what the first one wrote.
func TestDiskStoreSharedRegistry(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 12, 59)
	st, err := SharedStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SharedStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	if st != again {
		t.Fatal("same triple returned distinct instances")
	}
	st.Put(1, blobs[1])
	CloseSharedDiskStores()
	if st.Lookup(1) != nil {
		t.Fatal("closed store still serves")
	}

	st2, err := SharedStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	if st2 == st {
		t.Fatal("restart returned the closed instance")
	}
	if got := st2.Lookup(1); string(got) != string(blobs[1]) {
		t.Fatal("restart lost the record")
	}
	CloseSharedDiskStores()
}

// TestDiskStorePutStatic: the encode path round-trips through a real
// Static and skips destinations already present.
func TestDiskStorePutStatic(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 12, 61)
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := NewWorkspace(g)
	s := w.PrepareDest(4, tb)
	if !st.PutStatic(s) {
		t.Fatal("PutStatic refused")
	}
	if st.PutStatic(s) {
		t.Fatal("duplicate PutStatic wrote")
	}
	if got := st.Lookup(4); string(got) != string(blobs[4]) {
		t.Fatal("PutStatic blob differs from AppendPacked reference")
	}
}

// TestDiskStoreNilSafety: every method is a no-op on a nil store.
func TestDiskStoreNilSafety(t *testing.T) {
	var st *StaticDiskStore
	if st.Lookup(0) != nil || st.Has(0) || st.Put(0, []byte{1}) || st.Entries() != 0 || st.BytesOnDisk() != 0 || st.Dir() != "" {
		t.Fatal("nil store did something")
	}
	st.Drop(0)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDiskStoreTruncatedUnderOpenStore: a segment that shrinks under an
// open store (another process's file, cut mid-record) reads back short.
// Every record past the new end misses and is dropped, so the caller
// recomputes it, and the records before the cut are still served.
func TestDiskStoreTruncatedUnderOpenStore(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 64, 71)
	dir := populate(t, root, g, tb, blobs)
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}

	// populate appended the records in destination order: cut through
	// the middle of the blob of destination `cut`.
	cut := 4
	var end int64
	for d := 0; d < cut; d++ {
		end += diskRecHeader + int64(len(blobs[d]))
	}
	end += diskRecHeader + int64(len(blobs[cut]))/2
	if err := os.Truncate(segs[0], end); err != nil {
		t.Fatal(err)
	}
	for d, want := range blobs {
		got := st.Lookup(int32(d))
		if d < cut {
			if string(got) != string(want) {
				t.Fatalf("dest %d before the cut not served byte-exactly", d)
			}
			continue
		}
		if got != nil || st.Has(int32(d)) {
			t.Fatalf("dest %d past the cut: served %d bytes or still registered", d, len(got))
		}
	}
	if st.Entries() != cut {
		t.Fatalf("%d entries after the cut, want %d", st.Entries(), cut)
	}
}

// TestDiskStoreCloseDuringLookups: Close may run while other goroutines
// look records up (run under -race). Lookups that overlap it serve
// exact bytes or miss, and every lookup after it misses.
func TestDiskStoreCloseDuringLookups(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 24, 73)
	const kind = 1
	sidecars := make([][]byte, len(blobs))
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	for d := range blobs {
		sidecars[d] = AppendSidecar(nil, int32(d), g.N(), kind, []SidecarEntry{{Node: int32(d), Bits: uint64(d + 1)}})
		if !st.Put(int32(d), blobs[d]) || !st.PutSidecar(kind, int32(d), sidecars[d]) {
			t.Fatalf("dest %d: Put refused", d)
		}
	}
	st.Close()
	// A second instance reads the first one's segment as a foreign one.
	st, err = OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var passes atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for d := range blobs {
					if got := st.Lookup(int32(d)); got != nil && string(got) != string(blobs[d]) {
						t.Errorf("dest %d: wrong static bytes", d)
					}
					if got := st.LookupSidecar(kind, int32(d), nil); got != nil && string(got) != string(sidecars[d]) {
						t.Errorf("dest %d: wrong sidecar bytes", d)
					}
				}
				passes.Add(1)
			}
		}()
	}
	for passes.Load() < 8 {
		runtime.Gosched()
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for d := range blobs {
		if st.Lookup(int32(d)) != nil || st.LookupSidecar(kind, int32(d), nil) != nil {
			t.Fatalf("dest %d served after Close", d)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDiskStoreLookupsStayOutOfRSS: a lookup copies its record out of
// the page cache and leaves the segment there. After a lookup of every
// sidecar of an N=2,000 store, the process's file-backed resident set
// (RssFile, plus RssShmem for a temp directory on tmpfs) has grown by
// less than a quarter of the segment's bytes. A mapped segment grew it
// by about the whole segment: faulting in one small sidecar every few
// kilobytes maps the cached pages around each one too.
func TestDiskStoreLookupsStayOutOfRSS(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	g := topogen.MustGenerate(topogen.Default(2000, 42))
	tb := HashTiebreaker{Seed: 42}
	root := t.TempDir()
	const kind = 0
	w := NewWorkspace(g)
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	for d := int32(0); d < int32(g.N()); d++ {
		sc := AppendSidecar(nil, d, g.N(), kind, []SidecarEntry{{Node: d, Bits: uint64(d) + 1}})
		if !st.PutStatic(w.PrepareDest(d, tb)) || !st.PutSidecar(kind, d, sc) {
			t.Fatalf("dest %d: Put refused", d)
		}
	}
	st.Close()
	st, err = OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	segBytes := st.BytesOnDisk()

	st.LookupSidecar(kind, 0, nil) // fault in the lookup path's code first
	before := fileRSS(t)
	for d := int32(0); d < int32(g.N()); d++ {
		if st.LookupSidecar(kind, d, nil) == nil {
			t.Fatalf("dest %d: sidecar missed", d)
		}
	}
	grew := fileRSS(t) - before
	t.Logf("segment %d KB, file-backed RSS grew %d KB", segBytes>>10, grew>>10)
	if grew >= segBytes/4 {
		t.Fatalf("file-backed RSS grew %d KB over a %d KB segment", grew>>10, segBytes>>10)
	}
}

// fileRSS returns the process's file-backed and shared-memory resident
// bytes from /proc/self/status.
func fileRSS(t *testing.T) int64 {
	t.Helper()
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, line := range strings.Split(string(raw), "\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok || name != "RssFile" && name != "RssShmem" {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		total += kb << 10
	}
	return total
}
