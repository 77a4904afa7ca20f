package sim

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// TestDiskStoreResultInvariant: the persistent disk tier is a pure
// performance layer — a stored blob decodes to exactly what PrepareDest
// would have produced, and every validation failure falls back to the
// BFS — so Results are bit-identical with the tier off, cold, warm,
// after a process restart, and with the store arbitrarily corrupted, at
// any worker count and cache budget. This is the invariant that lets
// Config.Fingerprint exclude StaticStoreDir.
func TestDiskStoreResultInvariant(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)

	// ~10 KB per unpacked snapshot at N=300: the tiny budget overflows,
	// repacks, and spills — exercising the eviction → disk path.
	const tinyBudget = 40_000

	root := t.TempDir()
	defer routing.CloseSharedDiskStores()

	var refs []*Result // per worker count, for the later phases
	for _, workers := range []int{1, 3, 5} {
		base := Config{
			Model:           Outgoing,
			Theta:           0.05,
			EarlyAdopters:   adopters,
			StubsBreakTies:  true,
			Workers:         workers,
			RecordUtilities: true,
			RecordStats:     true,
		}
		ref := MustNew(g, base).Run()
		refs = append(refs, ref)

		// A caller-owned resident store of its own budget, beside
		// default-budget records: 1 byte holds nothing, so the disk tier
		// serves every static and sidecar read.
		for _, budget := range []int64{0, tinyBudget, 1} {
			cfg := base
			cfg.SharedStatics = routing.NewSharedStaticCache(budget)
			cfg.StaticStoreDir = root
			got := MustNew(g, cfg).Run()
			label := map[int64]string{0: "default", 1: "starved", tinyBudget: "tiny"}[budget]
			label = fmt.Sprintf("workers=%d/budget=%s", workers, label)
			requireBitIdentical(t, label, ref, got)
			if base.Fingerprint() != cfg.Fingerprint() {
				t.Errorf("%s: StaticStoreDir changed the fingerprint", label)
			}
		}
	}

	// Restart: close (and flush) every shared instance, then run warm
	// from a fresh open. The pristine pass — where all cold static work
	// happens — must be served entirely from disk.
	routing.CloseSharedDiskStores()
	warm := Config{
		Model:           Outgoing,
		Theta:           0.05,
		EarlyAdopters:   adopters,
		StubsBreakTies:  true,
		Workers:         3,
		RecordUtilities: true,
		RecordStats:     true,
		StaticStoreDir:  root,
	}
	got := MustNew(g, warm).Run()
	requireBitIdentical(t, "restart-warm", refs[1], got)
	if got.PristineStats == nil {
		t.Fatal("restart-warm: no pristine stats recorded")
	}
	if hits := got.PristineStats.StaticDiskHits; hits != int64(g.N()) {
		t.Errorf("restart-warm: %d disk hits in the pristine pass, want %d", hits, g.N())
	}
	if w := got.PristineStats.StaticDiskWrites; w != 0 {
		t.Errorf("restart-warm: %d disk writes on a fully warm store", w)
	}
	if r := got.PristineStats.StaticDiskBytesRead; r <= 0 {
		t.Errorf("restart-warm: %d bytes read", r)
	}

	// Corruption: rot a dense spread of bytes across every segment file,
	// restart, and run again. The stride is smaller than any record —
	// static blob or contribution sidecar — so every stored record fails
	// its CRC and recomputes; bits must not move.
	routing.CloseSharedDiskStores()
	segs, err := filepath.Glob(filepath.Join(root, "statics-v1-*", "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to corrupt (err %v)", err)
	}
	for _, path := range segs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for at := 13; at < len(raw); at += 13 {
			raw[at] ^= 0xFF
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got = MustNew(g, warm).Run()
	requireBitIdentical(t, "corrupted-store", refs[1], got)
	if got.PristineStats == nil || got.PristineStats.StaticDiskHits == int64(g.N()) {
		t.Errorf("corrupted-store: every lookup still hit — the corruption missed all records")
	}

	// Self-repair: the corrupted run recomputed and re-appended the
	// damaged destinations, so the next restart is fully warm again.
	routing.CloseSharedDiskStores()
	got = MustNew(g, warm).Run()
	requireBitIdentical(t, "repaired-store", refs[1], got)
	if hits := got.PristineStats.StaticDiskHits; hits != int64(g.N()) {
		t.Errorf("repaired-store: %d disk hits, want %d (repair incomplete)", hits, g.N())
	}
}

// TestDiskStoreUnusablePath: an unusable store path degrades silently —
// no tier, no error, identical bits.
func TestDiskStoreUnusablePath(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(200, 11))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	base := Config{
		Model:           Outgoing,
		Theta:           0.05,
		EarlyAdopters:   adopters,
		StubsBreakTies:  true,
		Workers:         2,
		RecordUtilities: true,
		RecordStats:     true,
	}
	ref := MustNew(g, base).Run()

	// A regular file where the root directory should be: MkdirAll fails.
	bad := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(bad, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.StaticStoreDir = filepath.Join(bad, "store")
	got := MustNew(g, cfg).Run()
	requireBitIdentical(t, "unusable-path", ref, got)
	if got.PristineStats.StaticDiskHits != 0 || got.PristineStats.StaticDiskWrites != 0 {
		t.Errorf("unusable path reported disk traffic: %d hits, %d writes",
			got.PristineStats.StaticDiskHits, got.PristineStats.StaticDiskWrites)
	}
}

// TestDiskStoreValidatesForeignBlob: a disk record whose CRC is valid is
// still decoded with every check live. The test finds a single-byte
// mutation of a real blob that the trusted decode accepts and the full
// one refuses — a wrong static, not a malformed one — and stores it for
// its destination the way a foreign writer would, with a valid CRC. A
// game on that store must match a run without one, and must leave the
// record repaired: Lookup returns the recomputed, pristine bytes.
func TestDiskStoreValidatesForeignBlob(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(200, 7))
	g.SetCPTrafficFraction(0.10)
	tb := routing.HashTiebreaker{Seed: 42}
	cfg := Config{
		Model:          Outgoing,
		Theta:          0.05,
		EarlyAdopters:  append(g.Nodes(asgraph.ContentProvider), asgraph.TopByDegree(g, 3, asgraph.ISP)...),
		StubsBreakTies: true,
		Tiebreaker:     tb,
		Workers:        2,
		RecordStats:    true,
	}
	ref := MustNew(g, cfg).Run()

	w := routing.NewWorkspace(g)
	var (
		dest            int32 = -1
		pristine, wrong []byte
	)
search:
	for d := int32(0); d < int32(g.N()); d++ {
		blob := routing.AppendPacked(nil, w.PrepareDest(d, tb), g)
		for at := range blob {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), blob...)
				mut[at] ^= 1 << bit
				if pd, ok := routing.PackedDest(mut); !ok || pd != d {
					continue
				}
				if _, err := w.DecodePackedTrusted(mut); err != nil {
					continue
				}
				if _, err := w.DecodePacked(mut); err == nil {
					continue
				}
				dest, pristine, wrong = d, blob, mut
				break search
			}
		}
	}
	if dest < 0 {
		t.Fatal("no single-byte mutation passes the trusted decode and fails the full one")
	}

	root := t.TempDir()
	defer routing.CloseSharedDiskStores()
	st, err := routing.OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Put(dest, wrong) {
		t.Fatal("Put refused the mutated blob")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.StaticStoreDir = root
	got := MustNew(g, cfg).Run()
	requireBitIdentical(t, "foreign-blob", ref, got)
	shared, err := routing.SharedStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	if b := shared.Lookup(dest); !bytes.Equal(b, pristine) {
		t.Errorf("dest %d: store holds %d bytes after the game, want the %d recomputed ones (mutated: %v)",
			dest, len(b), len(pristine), bytes.Equal(b, wrong))
	}
}
