package routing

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph/asgraphtest"
)

// checkStreamAgainstReference resolves blob both ways — streaming and
// DecodePackedTrusted+ResolveInto — and compares every observable:
// order, parents, types, secure flags, reachability, the customer-class
// bitset and the AnySecure summary.
func checkStreamAgainstReference(t *testing.T, sr *StreamStatic, w *Workspace, blob []byte,
	sec, brk []bool, tb Tiebreaker, n int32) bool {
	t.Helper()
	if err := sr.Resolve(blob, sec, brk, tb); err != nil {
		t.Logf("stream resolve failed: %v", err)
		return false
	}
	s, err := w.DecodePackedTrusted(blob)
	if err != nil {
		t.Logf("reference decode failed: %v", err)
		return false
	}
	var tree Tree
	tree.Clear(int(n))
	w.ResolveInto(&tree, s, sec, brk, nil, nil, tb)

	if sr.Dest() != s.Dest {
		t.Logf("dest %d vs %d", sr.Dest(), s.Dest)
		return false
	}
	refOrder := s.Order()
	if len(sr.Order()) != len(refOrder) {
		t.Logf("order length %d vs %d", len(sr.Order()), len(refOrder))
		return false
	}
	for k, i := range sr.Order() {
		if i != refOrder[k] {
			t.Logf("order[%d]: %d vs %d", k, i, refOrder[k])
			return false
		}
		if sr.Parents()[k] != tree.Parent[i] {
			t.Logf("node %d: parent %d vs %d", i, sr.Parents()[k], tree.Parent[i])
			return false
		}
		if sr.Types()[k] != s.Type[i] {
			t.Logf("node %d: type %v vs %v", i, sr.Types()[k], s.Type[i])
			return false
		}
		if sr.IsCustomer(i) != (s.Type[i] == CustomerRoute) {
			t.Logf("node %d: IsCustomer %v, type %v", i, sr.IsCustomer(i), s.Type[i])
			return false
		}
	}
	anySec := false
	for i := int32(0); i < n; i++ {
		if sr.Secure(i) != tree.Secure[i] {
			t.Logf("node %d: secure %v vs %v", i, sr.Secure(i), tree.Secure[i])
			return false
		}
		anySec = anySec || tree.Secure[i]
		wantReach := i == s.Dest || s.Type[i] != NoRoute
		if sr.Reachable(i) != wantReach {
			t.Logf("node %d: reachable %v, want %v", i, sr.Reachable(i), wantReach)
			return false
		}
	}
	if sr.AnySecure() != anySec {
		t.Logf("AnySecure %v, want %v", sr.AnySecure(), anySec)
		return false
	}
	return true
}

// TestQuickStreamResolveMatchesReference: the fused streaming walk is
// bit-identical to decode-then-resolve for every destination of random
// graphs under random deployment states — the invariant that lets the
// engine pick either path per destination without changing results.
func TestQuickStreamResolveMatchesReference(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(24), 0.15, 0.1, 0.25)
		n := int32(g.N())
		tb := HashTiebreaker{Seed: uint64(seed)}
		wEnc := NewWorkspace(g)
		wDec := NewWorkspace(g)
		sr := NewStreamStatic(g)
		sec, brk := asgraphtest.RandomState(rng, int(n), 0.5, 0.7)
		for d := int32(0); d < n; d++ {
			blob := AppendPacked(nil, wEnc.PrepareDest(d, tb), g)
			if !checkStreamAgainstReference(t, sr, wDec, blob, sec, brk, tb, n) {
				t.Logf("seed %d dest %d: streaming resolve differs", seed, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestStreamResolveInsecureDestStateBlind: with an insecure destination
// the resolved tree is the static winner tree regardless of every other
// node's deployment state — the property the pristine-contribution
// sidecar tier records once and replays in any state.
func TestStreamResolveInsecureDestStateBlind(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := asgraphtest.Random(rng, 26, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 47}
	w := NewWorkspace(g)
	srRef := NewStreamStatic(g)
	sr := NewStreamStatic(g)
	pristine := make([]bool, n)

	for d := int32(0); d < n; d++ {
		blob := AppendPacked(nil, w.PrepareDest(d, tb), g)
		if err := srRef.Resolve(blob, pristine, pristine, tb); err != nil {
			t.Fatalf("dest %d: pristine resolve failed: %v", d, err)
		}
		if srRef.AnySecure() {
			t.Fatalf("dest %d: pristine resolve claims a secure path", d)
		}
		for trial := 0; trial < 8; trial++ {
			sec, brk := asgraphtest.RandomState(rng, int(n), 0.7, 0.7)
			sec[d] = false // the one thing state-blindness conditions on
			if err := sr.Resolve(blob, sec, brk, tb); err != nil {
				t.Fatalf("dest %d trial %d: resolve failed: %v", d, trial, err)
			}
			if sr.AnySecure() {
				t.Fatalf("dest %d trial %d: insecure dest produced a secure path", d, trial)
			}
			for k := range srRef.Order() {
				if sr.Order()[k] != srRef.Order()[k] || sr.Parents()[k] != srRef.Parents()[k] ||
					sr.Types()[k] != srRef.Types()[k] {
					t.Fatalf("dest %d trial %d entry %d: tree depends on state despite insecure dest",
						d, trial, k)
				}
			}
		}
	}
}

// TestStreamResolveCorruptBlob: every single-byte mutation and every
// truncation of a valid blob either fails cleanly — leaving the scratch
// cleared so the engine's fallback sees a consistent miss — or resolves
// to something, and never panics. The pristine blob still resolves
// exactly afterwards.
func TestStreamResolveCorruptBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := asgraphtest.Random(rng, 20, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 53}
	w := NewWorkspace(g)
	sr := NewStreamStatic(g)
	sec, brk := asgraphtest.RandomState(rng, int(n), 0.5, 0.7)

	var blob []byte // the destination with the largest blob
	for c := int32(0); c < n; c++ {
		if bb := AppendPacked(nil, w.PrepareDest(c, tb), g); len(bb) > len(blob) {
			blob = bb
		}
	}
	check := func(mutated []byte, what string, at int) {
		t.Helper()
		if err := sr.Resolve(mutated, sec, brk, tb); err != nil {
			if sr.Dest() != -1 || len(sr.Order()) != 0 || sr.AnySecure() {
				t.Fatalf("%s at %d: scratch not cleared after error", what, at)
			}
		}
	}
	for at := 0; at < len(blob); at++ {
		mutated := append([]byte(nil), blob...)
		mutated[at] ^= 0xFF
		check(mutated, "mutation", at)
		check(blob[:at], "truncation", at)
	}
	if !checkStreamAgainstReference(t, sr, w, blob, sec, brk, tb, n) {
		t.Fatal("pristine blob differs after corruption sweep")
	}
}

// TestSidecarRoundTrip: entry vectors survive the codec bit-exactly,
// including empty vectors, negative-valued and subnormal floats, a
// reused decode buffer, and the header-only SidecarDest probe.
func TestSidecarRoundTrip(t *testing.T) {
	const n = 500
	cases := [][]SidecarEntry{
		nil,
		{{Node: 0, Bits: math.Float64bits(1.0)}},
		{{Node: 3, Bits: math.Float64bits(0.125)}, {Node: 4, Bits: math.Float64bits(-2.5)},
			{Node: 499, Bits: 1}}, // smallest subnormal
	}
	var buf []SidecarEntry
	for ci, want := range cases {
		for kind := uint8(0); kind <= 1; kind++ {
			dest := int32(7 + ci)
			blob := AppendSidecar(nil, dest, n, kind, want)
			if d, k, ok := SidecarDest(blob); !ok || d != dest || k != kind {
				t.Fatalf("case %d kind %d: SidecarDest = (%d,%d,%v)", ci, kind, d, k, ok)
			}
			got, ok := DecodeSidecar(blob, dest, n, kind, buf)
			if !ok {
				t.Fatalf("case %d kind %d: decode rejected its own encoding", ci, kind)
			}
			if len(got) != len(want) {
				t.Fatalf("case %d kind %d: %d entries, want %d", ci, kind, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("case %d kind %d entry %d: %+v, want %+v", ci, kind, i, got[i], want[i])
				}
			}
			buf = got // exercise buffer reuse across iterations
			// Key mismatches must read as missing, not as someone else's data.
			if _, ok := DecodeSidecar(blob, dest+1, n, kind, nil); ok {
				t.Fatalf("case %d kind %d: decoded under wrong dest", ci, kind)
			}
			if _, ok := DecodeSidecar(blob, dest, n+1, kind, nil); ok {
				t.Fatalf("case %d kind %d: decoded under wrong n", ci, kind)
			}
			if _, ok := DecodeSidecar(blob, dest, n, kind^1, nil); ok {
				t.Fatalf("case %d kind %d: decoded under wrong kind", ci, kind)
			}
		}
	}
}

// TestSidecarDecodeStructural: truncations and structural mutations
// (bad magic, bad version, zero gaps, out-of-range nodes, trailing
// bytes) are all rejected; decode never panics on arbitrary prefixes.
func TestSidecarDecodeStructural(t *testing.T) {
	const n, dest, kind = 64, 9, 1
	entries := []SidecarEntry{
		{Node: 2, Bits: math.Float64bits(3.5)},
		{Node: 40, Bits: math.Float64bits(7.25)},
		{Node: 63, Bits: math.Float64bits(0.5)},
	}
	blob := AppendSidecar(nil, dest, n, kind, entries)
	for at := 0; at < len(blob); at++ {
		if _, ok := DecodeSidecar(blob[:at], dest, n, kind, nil); ok {
			t.Fatalf("truncation at %d decoded", at)
		}
	}
	if _, ok := DecodeSidecar(append(append([]byte(nil), blob...), 0), dest, n, kind, nil); ok {
		t.Fatal("trailing byte accepted")
	}
	// An out-of-range node: the last gap pushed past n.
	big := AppendSidecar(nil, dest, n, kind, []SidecarEntry{{Node: int32(n), Bits: 1}})
	if _, ok := DecodeSidecar(big, dest, n, kind, nil); ok {
		t.Fatal("node == n accepted")
	}
	for _, mut := range []struct {
		at   int
		to   byte
		what string
	}{{0, 0x00, "magic"}, {1, sidecarVersion + 1, "version"}} {
		m := append([]byte(nil), blob...)
		m[mut.at] = mut.to
		if _, ok := DecodeSidecar(m, dest, n, kind, nil); ok {
			t.Fatalf("bad %s accepted", mut.what)
		}
		if _, _, ok := SidecarDest(m); ok {
			t.Fatalf("SidecarDest accepted bad %s", mut.what)
		}
	}
}

// TestSidecarDecodeHostileGap: a node gap is a 64-bit varint under the
// sender's control. One that wraps the int32 node negative (the replay
// loop would index uBase[-2]), one that wraps back into range, and a
// zero-padded varint for an otherwise valid gap must all be rejected.
func TestSidecarDecodeHostileGap(t *testing.T) {
	const n, dest, kind = 64, 9, 1
	for _, tc := range []struct {
		what string
		gap  []byte
	}{
		{"gap 0xFFFFFFFF (node -2)", binary.AppendUvarint(nil, 0xFFFFFFFF)},
		{"gap 1<<32+3 (wraps to 3)", binary.AppendUvarint(nil, 1<<32+3)},
		{"zero-padded gap 3", []byte{0x83, 0x00}},
	} {
		blob := AppendSidecar(nil, dest, n, kind, nil)
		blob[len(blob)-1] = 1 // count
		blob = append(blob, tc.gap...)
		blob = binary.LittleEndian.AppendUint64(blob, math.Float64bits(1.5))
		if entries, ok := DecodeSidecar(blob, dest, n, kind, nil); ok {
			t.Errorf("%s accepted: %+v", tc.what, entries)
		}
	}
}

// TestDiskStoreSidecarCorruptionSweep: the disk tier's CRC fully covers
// the new sidecar record kind. Every single-byte flip and every
// truncation of the segment file must make the store either drop the
// sidecar (LookupSidecar nil → the consumer recomputes) or serve it
// byte-exactly — wrong contribution bits must never surface, because
// nothing downstream revalidates them against a recompute.
func TestDiskStoreSidecarCorruptionSweep(t *testing.T) {
	g, tb, blobs, root := diskTestSetup(t, 8, 59)
	n := g.N()
	w := NewWorkspace(g)

	// Populate with sidecars for both model kinds (and one static blob,
	// so the sweep also crosses record kinds in one segment).
	payloads := map[[2]int32][]byte{}
	st, err := OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Put(0, blobs[0]) {
		t.Fatal("static Put refused")
	}
	for kind := uint8(0); kind <= 1; kind++ {
		for d := int32(0); d < int32(n); d++ {
			var entries []SidecarEntry
			for _, i := range w.PrepareDest(d, tb).Order() {
				entries = append(entries, SidecarEntry{Node: i, Bits: math.Float64bits(float64(i) + 0.5)})
			}
			pl := AppendSidecar(nil, d, n, kind, entries)
			if !st.PutSidecar(kind, d, pl) {
				t.Fatalf("kind %d dest %d: PutSidecar refused", kind, d)
			}
			payloads[[2]int32{int32(kind), d}] = pl
		}
	}
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segName := ""
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if nm := e.Name(); len(nm) > 4 && nm[:4] == "seg-" {
			segName = nm
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

	sweep := func(mutated []byte, what string, at int) {
		t.Helper()
		if err := os.WriteFile(segPath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStaticDiskStore(root, g, tb)
		if err != nil {
			t.Fatalf("%s at %d: open failed: %v", what, at, err)
		}
		for key, want := range payloads {
			got := st.LookupSidecar(uint8(key[0]), key[1], nil)
			if got != nil && string(got) != string(want) {
				t.Fatalf("%s at %d: kind %d dest %d served %d wrong bytes",
					what, at, key[0], key[1], len(got))
			}
		}
		if got := st.Lookup(0); got != nil && string(got) != string(blobs[0]) {
			t.Fatalf("%s at %d: static record served wrong bytes", what, at)
		}
		st.Close()
	}
	for at := 0; at < len(segBytes); at++ {
		mutated := append([]byte(nil), segBytes...)
		mutated[at] ^= 0xFF
		sweep(mutated, "seg flip", at)
		sweep(segBytes[:at], "seg truncation", at)
	}

	// Pristine segment serves every record again.
	if err := os.WriteFile(segPath, segBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStaticDiskStore(root, g, tb)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for key, want := range payloads {
		if got := st.LookupSidecar(uint8(key[0]), key[1], nil); string(got) != string(want) {
			t.Fatalf("kind %d dest %d lost after sweep", key[0], key[1])
		}
	}
}
