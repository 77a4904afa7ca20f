package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
)

// staticsEqual compares every observable of two statics for the same
// destination: the marked arrays, the order, the tiebreak CSR and the
// plain-TB winners.
func staticsEqual(t *testing.T, a, b *Static, n int32) bool {
	t.Helper()
	if a.Dest != b.Dest {
		t.Logf("dest %d vs %d", a.Dest, b.Dest)
		return false
	}
	for i := int32(0); i < n; i++ {
		if a.Type[i] != b.Type[i] || a.Len[i] != b.Len[i] || a.pos[i] != b.pos[i] {
			t.Logf("node %d: type/len/pos (%d,%d,%d) vs (%d,%d,%d)", i,
				a.Type[i], a.Len[i], a.pos[i], b.Type[i], b.Len[i], b.pos[i])
			return false
		}
		if a.Type[i] != NoRoute && a.win[i] != b.win[i] {
			t.Logf("node %d: win %d vs %d", i, a.win[i], b.win[i])
			return false
		}
	}
	if len(a.order) != len(b.order) || len(a.tbAdj) != len(b.tbAdj) || len(a.tbOff) != len(b.tbOff) {
		t.Logf("order/tbAdj/tbOff lengths differ")
		return false
	}
	for k := range a.order {
		if a.order[k] != b.order[k] {
			t.Logf("order[%d]: %d vs %d", k, a.order[k], b.order[k])
			return false
		}
	}
	for k := range a.tbAdj {
		if a.tbAdj[k] != b.tbAdj[k] {
			t.Logf("tbAdj[%d]: %d vs %d", k, a.tbAdj[k], b.tbAdj[k])
			return false
		}
	}
	for k := range a.tbOff {
		if a.tbOff[k] != b.tbOff[k] {
			t.Logf("tbOff[%d]: %d vs %d", k, a.tbOff[k], b.tbOff[k])
			return false
		}
	}
	return true
}

// TestQuickPackedRoundtrip: encode/decode reproduces PrepareDest's
// output exactly — every array, and the resolved trees built from it —
// for every destination of random graphs.
func TestQuickPackedRoundtrip(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 4+rng.Intn(24), 0.15, 0.1, 0.25)
		n := int32(g.N())
		tb := HashTiebreaker{Seed: uint64(seed)}
		wEnc := NewWorkspace(g)
		wDec := NewWorkspace(g)
		sec, brk := asgraphtest.RandomState(rng, int(n), 0.5, 0.7)
		var want, got Tree
		for d := int32(0); d < n; d++ {
			s := wEnc.PrepareDest(d, tb)
			blob := AppendPacked(nil, s, g)
			if pd, ok := PackedDest(blob); !ok || pd != d {
				t.Logf("seed %d dest %d: PackedDest = %d, %v", seed, d, pd, ok)
				return false
			}
			dec, err := wDec.DecodePacked(blob)
			if err != nil {
				t.Logf("seed %d dest %d: decode failed: %v", seed, d, err)
				return false
			}
			if !staticsEqual(t, s, dec, n) {
				t.Logf("seed %d dest %d: decoded static differs", seed, d)
				return false
			}
			want.Clear(int(n))
			wEnc.ResolveInto(&want, s, sec, brk, nil, nil, tb)
			got.Clear(int(n))
			wDec.ResolveInto(&got, dec, sec, brk, nil, nil, tb)
			if !treesEqual(&want, &got, int(n)) {
				t.Logf("seed %d dest %d: resolved tree differs after decode", seed, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPackedInterleavedWorkspace: decodes and cold builds share one
// workspace — DecodePacked must maintain the same clear-invariant
// ComputeStatic relies on, in both directions and after decode errors.
func TestPackedInterleavedWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := asgraphtest.Random(rng, 28, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 19}
	wRef := NewWorkspace(g)
	w := NewWorkspace(g)

	blobs := make([][]byte, n)
	for d := int32(0); d < n; d++ {
		blobs[d] = AppendPacked(nil, wRef.PrepareDest(d, tb), g)
	}
	for step := 0; step < 4*int(n); step++ {
		d := int32(rng.Intn(int(n)))
		want := wRef.PrepareDest(d, tb)
		var got *Static
		switch step % 3 {
		case 0:
			got = w.PrepareDest(d, tb)
		case 1:
			var err error
			got, err = w.DecodePacked(blobs[d])
			if err != nil {
				t.Fatalf("step %d dest %d: decode failed: %v", step, d, err)
			}
		default:
			// A failed decode (truncated blob) must leave the workspace
			// clean enough that a cold build still works.
			if _, err := w.DecodePacked(blobs[d][:len(blobs[d])-1]); err == nil {
				t.Fatalf("step %d: truncated blob decoded", step)
			}
			got = w.PrepareDest(d, tb)
		}
		if !staticsEqual(t, want, got, n) {
			t.Fatalf("step %d dest %d: static differs from cold build", step, d)
		}
	}
}

// TestPackedDeepChain: a provider chain deeper than 255 levels
// round-trips exactly — the per-level counts carry Len without a byte
// shadow, so there is no depth limit to escape.
func TestPackedDeepChain(t *testing.T) {
	const depth = 300
	b := asgraph.NewBuilder()
	for i := int32(0); i < depth; i++ {
		b.AddAS(i + 1)
	}
	for i := int32(0); i+1 < depth; i++ {
		b.AddCustomer(i+1, i+2) // AS i+1 is the provider of AS i+2
	}
	g := b.MustBuild()
	tb := HashTiebreaker{Seed: 5}
	d := g.Index(depth) // bottom of the chain: every route is a customer route
	wEnc := NewWorkspace(g)
	wDec := NewWorkspace(g)
	s := wEnc.PrepareDest(d, tb)
	if got := len(s.Order()); got != depth-1 {
		t.Fatalf("chain order has %d entries, want %d", got, depth-1)
	}
	blob := AppendPacked(nil, s, g)
	dec, err := wDec.DecodePacked(blob)
	if err != nil {
		t.Fatalf("deep chain decode failed: %v", err)
	}
	if !staticsEqual(t, s, dec, int32(g.N())) {
		t.Fatal("deep chain decode differs")
	}
	maxLen := int32(0)
	for _, i := range dec.Order() {
		if dec.Len[i] > maxLen {
			maxLen = dec.Len[i]
		}
	}
	if maxLen != depth-1 {
		t.Fatalf("max decoded Len = %d, want %d", maxLen, depth-1)
	}
}

// TestPackedCorruptBlob: every single-byte mutation and every
// truncation of a valid blob either fails cleanly or decodes to some
// valid static — never panics — and after a failure the workspace
// still produces bit-exact cold builds.
func TestPackedCorruptBlob(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := asgraphtest.Random(rng, 20, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 23}
	wRef := NewWorkspace(g)
	w := NewWorkspace(g)

	var d int32 // pick the destination with the largest blob
	var blob []byte
	for c := int32(0); c < n; c++ {
		bb := AppendPacked(nil, wRef.PrepareDest(c, tb), g)
		if len(bb) > len(blob) {
			d, blob = c, bb
		}
	}
	check := func(mutated []byte, what string, at int) {
		t.Helper()
		if _, err := w.DecodePacked(mutated); err != nil {
			// The workspace must be fully restored: a cold build right
			// after must match a reference workspace bit for bit.
			probe := int32(at) % n
			if !staticsEqual(t, wRef.PrepareDest(probe, tb), w.PrepareDest(probe, tb), n) {
				t.Fatalf("%s at %d: workspace poisoned after decode error", what, at)
			}
		}
	}
	for at := 0; at < len(blob); at++ {
		mutated := append([]byte(nil), blob...)
		mutated[at] ^= 0xFF
		check(mutated, "mutation", at)
		check(blob[:at], "truncation", at)
	}
	// The pristine blob still decodes after all that abuse.
	dec, err := w.DecodePacked(blob)
	if err != nil {
		t.Fatalf("pristine blob failed after corruption sweep: %v", err)
	}
	if !staticsEqual(t, wRef.PrepareDest(d, tb), dec, n) {
		t.Fatal("pristine decode differs after corruption sweep")
	}
}

// TestPackedSizeRatio: the packed form must be at least 2.5x denser
// than the unpacked snapshot accounting it replaces — that factor is
// what turns the 1 GiB default budget from ~N=5000 of residency into
// paper scale.
func TestPackedSizeRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	g := asgraphtest.Random(rng, 600, 0.15, 0.1, 0.25)
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 29}
	w := NewWorkspace(g)
	var packed, unpacked int64
	for d := int32(0); d < n; d++ {
		s := w.PrepareDest(d, tb)
		packed += int64(len(AppendPacked(nil, s, g)))
		unpacked += s.MemBytes()
	}
	if ratio := float64(unpacked) / float64(packed); ratio < 2.5 {
		t.Errorf("packed/unpacked density ratio = %.2fx, want >= 2.5x (packed %d B, unpacked %d B over %d dests)",
			ratio, packed, unpacked, n)
	} else {
		t.Logf("density ratio %.2fx: packed %.1f B/dest, unpacked %.1f B/dest",
			ratio, float64(packed)/float64(n), float64(unpacked)/float64(n))
	}
}

// BenchmarkDecodePacked times the decode of benchSample's packed blobs
// per destination both ways the engine decodes: trusted, as the
// resident tier serves what this process encoded or validated, and
// validating, as every disk hit is decoded before it is trusted.
func BenchmarkDecodePacked(b *testing.B) {
	g, sample := benchSample(b)
	tb := HashTiebreaker{Seed: 42}
	w := NewWorkspace(g)
	blobs := make([][]byte, len(sample))
	for k, d := range sample {
		blobs[k] = AppendPacked(nil, w.PrepareDest(d, tb), g)
	}
	for _, dec := range []struct {
		name   string
		decode func([]byte) (*Static, error)
	}{{"trusted", w.DecodePackedTrusted}, {"validating", w.DecodePacked}} {
		b.Run(dec.name, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for _, blob := range blobs {
					if _, err := dec.decode(blob); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(blobs)), "us/dest")
		})
	}
}
