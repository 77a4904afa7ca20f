package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/topogen"
)

// requireLanesMatch builds dests as one batch and checks every lane
// against a width-1 build on a separate workspace: PrepareLane against
// PrepareDest (every array, winners included) and the winner-less
// finalize against ComputeStatic, plus each lane's resolved tree against the path-vector
// reference when ref is set. Lanes finalize in reverse order, so no
// lane may depend on the one before it.
func requireLanesMatch(t *testing.T, label string, g *asgraph.Graph, b *StaticBatch, dests []int32, ref bool) {
	t.Helper()
	n := int32(g.N())
	tb := HashTiebreaker{Seed: 13}
	w, one := NewWorkspace(g), NewWorkspace(g)
	b.Build(dests)
	if !slices.Equal(b.Dests(), dests) {
		t.Fatalf("%s: batch lanes %v, want %v", label, b.Dests(), dests)
	}
	rng := rand.New(rand.NewSource(int64(len(dests))))
	sec, brk := asgraphtest.RandomState(rng, g.N(), 0.5, 0.6)
	for k := len(dests) - 1; k >= 0; k-- {
		d := dests[k]
		got := w.PrepareLane(b, k, tb)
		if want := one.PrepareDest(d, tb); !staticsEqual(t, got, want, n) {
			t.Fatalf("%s width %d lane %d (dest %d): PrepareLane differs from PrepareDest", label, len(dests), k, d)
		}
		if ref {
			fast := resolve(w, got, sec, brk, tb)
			want, err := Reference(g, d, sec, brk, tb)
			if err != nil {
				t.Fatalf("%s dest %d: %v", label, d, err)
			}
			if !slices.Equal(fast.Parent, want.Parent) || !slices.Equal(fast.Secure, want.Secure) {
				t.Fatalf("%s width %d lane %d (dest %d): tree differs from the reference", label, len(dests), k, d)
			}
		}
		got = w.finalize(b, k, nil, false)
		want := one.ComputeStatic(d)
		if got.HasWinners() || !slices.Equal(got.order, want.order) || !slices.Equal(got.tbAdj, want.tbAdj) ||
			!slices.Equal(got.tbOff, want.tbOff) || !slices.Equal(got.Len, want.Len) || !slices.Equal(got.Type, want.Type) {
			t.Fatalf("%s width %d lane %d (dest %d): winner-less lane differs from ComputeStatic", label, len(dests), k, d)
		}
	}
}

// TestStaticBatchWidthInvariance: a lane's static is the destination's
// width-1 static whatever else shares the sweep — at widths 1, 2, 63
// and 64, over shuffled members that span disconnected components, and
// in a batch mixing lanes whose lengths saturate the byte rows with
// short ones.
func TestStaticBatchWidthInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shuffled := func(g *asgraph.Graph) []int32 {
		all := make([]int32, g.N())
		for i := range all {
			all[i] = int32(i)
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all
	}
	// One batch reused across every build: its un-marking between
	// builds of different widths is part of what is checked.
	for _, c := range []struct {
		name string
		g    *asgraph.Graph
	}{
		{"topogen", topogen.MustGenerate(topogen.Default(300, 34))},
		{"components", componentsGraph()},
		{"peer-only", peerOnlyGraph()},
	} {
		b := NewStaticBatch(c.g, BatchWidth)
		all := shuffled(c.g)
		for _, width := range []int{1, 2, 63, 64} {
			for lo := 0; lo < len(all); lo += width {
				requireLanesMatch(t, c.name, c.g, b, all[lo:min(lo+width, len(all))], lo == 0)
			}
		}
	}
	for trial := 0; trial < 10; trial++ {
		g, _ := disconnectedGraph(rng)
		b := NewStaticBatch(g, BatchWidth)
		all := shuffled(g)
		for _, width := range []int{1, 2, 63, 64} {
			requireLanesMatch(t, "disconnected", g, b, all[:min(width, len(all))], true)
		}
	}

	// The ladder's bottom and top rungs reach the far end past 254 hops
	// (saturated lanes); its middle rungs stay within ≈140 (byte rows).
	g := ladderGraph()
	var mixed []int32
	for _, asn := range []int32{2, 3, ladderRungs, ladderRungs + 1, 2 * ladderRungs, 2*ladderRungs + 1, ladderRungs + 2} {
		mixed = append(mixed, idx(t, g, asn))
	}
	b := NewStaticBatch(g, BatchWidth)
	b.Build(mixed)
	if b.sat == 0 || b.sat == 1<<uint(len(mixed))-1 {
		t.Fatalf("ladder batch saturation mask %b: want saturated and short lanes mixed", b.sat)
	}
	requireLanesMatch(t, "ladder", g, b, mixed, true)
	requireLanesMatch(t, "ladder-wide", g, b, shuffled(g)[:BatchWidth], false)
}

// TestStaticBatchDenseSparseIdentical: a lane's two order builds — the
// counting sort over its level row and the key sort over the claim
// lists — give byte-identical statics at any width.
func TestStaticBatchDenseSparseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tb := HashTiebreaker{Seed: 6}
	for trial := 0; trial < 20; trial++ {
		g := asgraphtest.Random(rng, 4+rng.Intn(60), 0.12, 0.10, 0.3)
		n := int32(g.N())
		wd, ws := NewWorkspace(g), NewWorkspace(g)
		wd.forceFinalize = finalizeDense
		ws.forceFinalize = finalizeSparse
		b := NewStaticBatch(g, BatchWidth)
		for lo := int32(0); lo < n; lo += BatchWidth {
			var dests []int32
			for d := lo; d < min(lo+BatchWidth, n); d++ {
				dests = append(dests, d)
			}
			b.Build(dests)
			for k := range dests {
				if !staticsEqual(t, wd.PrepareLane(b, k, tb), ws.PrepareLane(b, k, tb), n) {
					t.Fatalf("trial %d lane %d: dense and sparse finalize differ", trial, k)
				}
			}
		}
	}
}

// FuzzStaticBatch: any batch of destinations of a random graph —
// duplicates included — finalizes every lane to the width-1 static.
func FuzzStaticBatch(f *testing.F) {
	f.Add(int64(1), uint8(20), []byte{0, 1, 2, 3})
	f.Add(int64(7), uint8(60), []byte{5, 5, 9, 0, 200, 17})
	f.Add(int64(3), uint8(2), []byte{1, 0})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, members []byte) {
		rng := rand.New(rand.NewSource(seed))
		g := asgraphtest.Random(rng, 2+int(size)%80, 0.12, 0.10, 0.3)
		n := int32(g.N())
		var dests []int32
		for _, m := range members {
			if len(dests) == BatchWidth {
				break
			}
			dests = append(dests, int32(m)%n)
		}
		if len(dests) == 0 {
			return
		}
		tb := HashTiebreaker{Seed: uint64(seed)}
		w, one := NewWorkspace(g), NewWorkspace(g)
		b := NewStaticBatch(g, BatchWidth)
		b.Build(dests)
		for k, d := range dests {
			if !staticsEqual(t, w.PrepareLane(b, k, tb), one.PrepareDest(d, tb), n) {
				t.Fatalf("lane %d (dest %d of %v) differs from PrepareDest", k, d, dests)
			}
		}
	})
}

// benchSample is the destination sample of the static-build
// benchmarks: 640 destinations spread evenly over the N=10,000 graph's
// ids, so every width builds the same statics.
func benchSample(b *testing.B) (*asgraph.Graph, []int32) {
	b.Helper()
	if graph10k == nil {
		graph10k = topogen.MustGenerate(topogen.Default(10000, 42))
	}
	n := graph10k.N()
	dests := make([]int32, 640)
	for k := range dests {
		dests[k] = int32(k * n / len(dests))
	}
	return graph10k, dests
}

var graph10k *asgraph.Graph

// BenchmarkPrepareBatch times the batched static build of benchSample
// per destination, split into the level phase (Build) and the per-lane
// finalize (PrepareLane), at widths 1, 8 and 64. BenchmarkPrepareDest
// beside it is the width-1 build as the engine's stray misses and the
// sbgpbench probe run it.
func BenchmarkPrepareBatch(b *testing.B) {
	g, sample := benchSample(b)
	tb := HashTiebreaker{Seed: 42}
	for _, width := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			w := NewWorkspace(g)
			bt := NewStaticBatch(g, width)
			var level, final time.Duration
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				for lo := 0; lo < len(sample); lo += width {
					t0 := time.Now()
					bt.Build(sample[lo : lo+width])
					t1 := time.Now()
					for k := 0; k < width; k++ {
						w.PrepareLane(bt, k, tb)
					}
					level += t1.Sub(t0)
					final += time.Since(t1)
				}
			}
			per := float64(b.N * len(sample))
			b.ReportMetric(float64(level.Microseconds())/per, "level-us/dest")
			b.ReportMetric(float64(final.Microseconds())/per, "finalize-us/dest")
		})
	}
}

func BenchmarkPrepareDest(b *testing.B) {
	g, sample := benchSample(b)
	tb := HashTiebreaker{Seed: 42}
	w := NewWorkspace(g)
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, d := range sample {
			w.PrepareDest(d, tb)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(sample)), "us/dest")
}

// BenchmarkSpliceLeaf times SpliceLeafBlob per leaf over the leaves of
// benchSample that have a sibling, each spliced from the blob of its
// provider's lowest other leaf: what a class replay pays, against
// BenchmarkPrepareDest plus the pack, to put a leaf's blob on disk.
func BenchmarkSpliceLeaf(b *testing.B) {
	g, sample := benchSample(b)
	tb := HashTiebreaker{Seed: 42}
	w := NewWorkspace(g)
	type pair struct {
		filler, leaf, p int32
		blob            []byte
	}
	var pairs []pair
	for _, d := range sample {
		prov := g.Providers(d)
		if len(prov) != 1 || !leafOf(g, d, prov[0]) {
			continue
		}
		for _, f := range g.Customers(prov[0]) {
			if f != d && leafOf(g, f, prov[0]) {
				pairs = append(pairs, pair{f, d, prov[0], AppendPacked(nil, w.PrepareDest(f, tb), g)})
				break
			}
		}
	}
	if len(pairs) == 0 {
		b.Fatal("no sampled leaf has a sibling")
	}
	var dst []byte
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for _, pr := range pairs {
			var ok bool
			if dst, ok = SpliceLeafBlob(dst[:0], pr.blob, g, pr.filler, pr.leaf, pr.p); !ok {
				b.Fatalf("splice %d→%d refused", pr.filler, pr.leaf)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(pairs)), "us/leaf")
	b.ReportMetric(float64(len(pairs)), "leaves")
}
