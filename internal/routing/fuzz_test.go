package routing

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/topogen"
)

// fuzzGraph builds the fixed small graph both fuzz targets decode
// against, plus one valid blob per destination as seed corpus. The
// graph must be deterministic: corpus entries found by one run have to
// reproduce on the next.
func fuzzGraph() (*asgraph.Graph, HashTiebreaker, [][]byte) {
	rng := rand.New(rand.NewSource(71))
	g := asgraphtest.Random(rng, 24, 0.15, 0.1, 0.25)
	tb := HashTiebreaker{Seed: 71}
	w := NewWorkspace(g)
	blobs := make([][]byte, g.N())
	for d := int32(0); d < int32(g.N()); d++ {
		blobs[d] = AppendPacked(nil, w.PrepareDest(d, tb), g)
	}
	return g, tb, blobs
}

// FuzzDecodePacked: DecodePacked must never panic on arbitrary bytes,
// and whatever it accepts must re-encode and survive a resolve — the
// same obligations the corruption sweeps check exhaustively for
// near-valid inputs, here probed over coverage-guided mutations.
func FuzzDecodePacked(f *testing.F) {
	g, tb, blobs := fuzzGraph()
	for _, b := range blobs {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{packedMagic})
	n := g.N()
	w := NewWorkspace(g)
	sec, brk := make([]bool, n), make([]bool, n)
	for i := 0; i < n; i += 3 {
		sec[i] = true
		brk[i] = i%2 == 0
	}
	var tree Tree
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := w.DecodePacked(data)
		if err != nil {
			return
		}
		// Accepted blobs must be internally consistent enough to resolve.
		if s.Dest < 0 || s.Dest >= int32(n) {
			t.Fatalf("decoded dest %d out of range", s.Dest)
		}
		tree.Clear(n)
		w.ResolveInto(&tree, s, sec, brk, nil, nil, tb)
	})
}

// FuzzStreamResolve: the fused streaming resolver walks untrusted bytes
// with hand-rolled varint reads and bitset writes — it must never panic,
// and any blob it accepts must produce the same tree as the
// decode-then-resolve reference path (the bit-identity invariant the
// engine's tier dispatch relies on).
func FuzzStreamResolve(f *testing.F) {
	g, tb, blobs := fuzzGraph()
	for _, b := range blobs {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{packedMagic})
	n := int32(g.N())
	sr := NewStreamStatic(g)
	w := NewWorkspace(g)
	sec, brk := make([]bool, n), make([]bool, n)
	for i := int32(0); i < n; i += 2 {
		sec[i] = true
		brk[i] = i%4 == 0
	}
	var tree Tree
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := sr.Resolve(data, sec, brk, tb); err != nil {
			if sr.Dest() != -1 || len(sr.Order()) != 0 {
				t.Fatal("scratch not cleared after resolve error")
			}
			return
		}
		// DecodePacked (full validation) may reject what the trusted-grade
		// streaming walk accepted; when both accept, results must agree.
		s, err := w.DecodePacked(data)
		if err != nil {
			return
		}
		tree.Clear(int(n))
		w.ResolveInto(&tree, s, sec, brk, nil, nil, tb)
		for k, i := range sr.Order() {
			if sr.Parents()[k] != tree.Parent[i] {
				t.Fatalf("node %d: stream parent %d, reference %d", i, sr.Parents()[k], tree.Parent[i])
			}
			if sr.Secure(i) != tree.Secure[i] {
				t.Fatalf("node %d: stream secure %v, reference %v", i, sr.Secure(i), tree.Secure[i])
			}
		}
	})
}

// FuzzDecodeSidecar: sidecar payloads arrive over the dist wire and
// from foreign disk records, and the replay loop indexes by the decoded
// nodes unchecked — so whatever DecodeSidecar accepts must hold strictly
// ascending nodes in [0,n), and must be the one encoding AppendSidecar
// writes for those entries.
func FuzzDecodeSidecar(f *testing.F) {
	const n, dest, kind = 64, 9, 1
	f.Add(AppendSidecar(nil, dest, n, kind, nil))
	f.Add(AppendSidecar(nil, dest, n, kind, []SidecarEntry{{Node: 2, Bits: 1}, {Node: 40, Bits: 1 << 63}, {Node: 63, Bits: 7}}))
	f.Add([]byte{sidecarMagic, sidecarVersion, kind, dest, n, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, ok := DecodeSidecar(data, dest, n, kind, nil)
		if !ok {
			return
		}
		prev := int32(-1)
		for _, e := range entries {
			if e.Node <= prev || e.Node >= n {
				t.Fatalf("node %d after %d, n=%d", e.Node, prev, n)
			}
			prev = e.Node
		}
		if again := AppendSidecar(nil, dest, n, kind, entries); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, again)
		}
	})
}

// FuzzDecodeTiebreaker: the tiebreaker wire form arrives in the dist
// hello, from any peer a TCP worker accepts. The decode must never panic,
// and whatever it accepts must survive a re-encode: the bytes
// EncodeTiebreaker writes for it decode to the same policy, by
// TiebreakerFingerprint.
func FuzzDecodeTiebreaker(f *testing.F) {
	for _, tb := range []Tiebreaker{HashTiebreaker{Seed: 71}, LowestIndex{}} {
		wire, err := EncodeTiebreaker(tb)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	// A payload of the retired kind 3, a per-node rank table header.
	f.Add([]byte{3, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := DecodeTiebreaker(data)
		if err != nil {
			return
		}
		wire, err := EncodeTiebreaker(tb)
		if err != nil {
			t.Fatalf("accepted %x, which does not re-encode: %v", data, err)
		}
		again, err := DecodeTiebreaker(wire)
		if err != nil {
			t.Fatalf("re-encoding %x decodes with %v", wire, err)
		}
		if a, b := TiebreakerFingerprint(tb), TiebreakerFingerprint(again); a != b {
			t.Fatalf("accepted %x as %s, which round-trips to %s", data, a, b)
		}
	})
}

// FuzzSpliceLeaf: the splice walks a disk record's bytes with varint
// reads and indexes by what it reads, so it must never panic on
// arbitrary or mutated bytes. A filler's own blob must splice to the
// leaf's built bytes, and whatever it splices from a blob that decodes
// as the filler's static must decode as the leaf's: the swap of two
// leaves preserves every relation DecodePacked checks.
func FuzzSpliceLeaf(f *testing.F) {
	g := topogen.MustGenerate(topogen.Default(120, 9))
	tb := HashTiebreaker{Seed: 9}
	w := NewWorkspace(g)
	var pairs [][2]int32 // (filler, leaf)
	blobs := map[int32][]byte{}
	for _, leaves := range siblingLeaves(g) {
		for _, d := range leaves {
			blobs[d] = AppendPacked(nil, w.PrepareDest(d, tb), g)
		}
		pairs = append(pairs, [2]int32{leaves[0], leaves[1]}, [2]int32{leaves[len(leaves)-1], leaves[0]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a][0] < pairs[b][0] })
	if len(pairs) == 0 {
		f.Fatal("the fuzz graph has no sibling leaves")
	}
	for k, pr := range pairs {
		f.Add(blobs[pr[0]], uint16(k))
	}
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{packedMagic}, uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, sel uint16) {
		pr := pairs[int(sel)%len(pairs)]
		filler, leaf := pr[0], pr[1]
		got, ok := SpliceLeafBlob(nil, data, g, filler, leaf, g.Providers(leaf)[0])
		switch {
		case bytes.Equal(data, blobs[filler]):
			if !ok || !bytes.Equal(got, blobs[leaf]) {
				t.Fatalf("splice %d→%d of the filler's own blob: ok=%v, differs from the build", filler, leaf, ok)
			}
		case !ok:
			if len(got) != 0 {
				t.Fatalf("refused splice wrote %d bytes", len(got))
			}
		default:
			if _, err := w.DecodePacked(data); err != nil {
				return
			}
			if _, err := w.DecodePacked(got); err != nil {
				t.Fatalf("splice %d→%d of a valid blob does not decode: %v", filler, leaf, err)
			}
		}
	})
}
