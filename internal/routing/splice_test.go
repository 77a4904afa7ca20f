package routing

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/asgraph/asgraphtest"
	"sbgp/internal/gadgets"
	"sbgp/internal/topogen"
)

// siblingLeaves returns, per provider with two or more leaves, its
// leaves in ascending id.
func siblingLeaves(g *asgraph.Graph) map[int32][]int32 {
	byProv := map[int32][]int32{}
	for x := int32(0); x < int32(g.N()); x++ {
		if prov := g.Providers(x); len(prov) == 1 && leafOf(g, x, prov[0]) {
			byProv[prov[0]] = append(byProv[prov[0]], x)
		}
	}
	for p, leaves := range byProv {
		if len(leaves) < 2 {
			delete(byProv, p)
		}
	}
	return byProv
}

// TestSpliceLeafMatchesBuild: for every ordered pair of sibling leaves,
// the blob spliced from the filler's equals the leaf's own built and
// packed static byte for byte, on topogen graphs, random graphs and the
// gadgets, under both tiebreakers. A splice that names the wrong
// provider, a non-leaf, the filler twice or another destination's blob
// is refused with dst untouched.
func TestSpliceLeafMatchesBuild(t *testing.T) {
	graphs := map[string]*asgraph.Graph{
		"topogen-300":  topogen.MustGenerate(topogen.Default(300, 42)),
		"topogen-2500": topogen.MustGenerate(topogen.Default(2500, 42)),
		"buyers":       gadgets.NewBuyersRemorse(5, 10).Graph,
		"oscillator":   gadgets.NewOscillator().Graph,
		"setcover":     mustSetCover().Graph,
		"interleaved":  interleavedLeaves(),
	}
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 6; k++ {
		graphs[fmt.Sprintf("random-%d", k)] = asgraphtest.Random(rng, 40+20*k, 0.12, 0.05, 0.2)
	}
	pairs := 0
	for name, g := range graphs {
		for _, tb := range []Tiebreaker{HashTiebreaker{Seed: 42}, LowestIndex{}} {
			w := NewWorkspace(g)
			blobs := map[int32][]byte{}
			blob := func(d int32) []byte {
				if blobs[d] == nil {
					blobs[d] = AppendPacked(nil, w.PrepareDest(d, tb), g)
				}
				return blobs[d]
			}
			for p, leaves := range siblingLeaves(g) {
				for _, f := range leaves {
					for _, l := range leaves {
						if f == l {
							continue
						}
						pre := []byte{7}
						got, ok := SpliceLeafBlob(pre, blob(f), g, f, l, p)
						if !ok || got[0] != 7 || !bytes.Equal(got[1:], blob(l)) {
							t.Fatalf("%s/%T: splice %d→%d (provider %d): ok=%v, bytes differ from the build", name, tb, f, l, p, ok)
						}
						pairs++
					}
				}
				f, l := leaves[0], leaves[1]
				refuse := map[string]func() ([]byte, bool){
					"self":         func() ([]byte, bool) { return SpliceLeafBlob(nil, blob(f), g, f, f, p) },
					"wrong-blob":   func() ([]byte, bool) { return SpliceLeafBlob(nil, blob(l), g, f, l, p) },
					"non-leaf":     func() ([]byte, bool) { return SpliceLeafBlob(nil, blob(f), g, f, p, p) },
					"out-of-range": func() ([]byte, bool) { return SpliceLeafBlob(nil, blob(f), g, f, l, int32(g.N())) },
					"truncated":    func() ([]byte, bool) { return SpliceLeafBlob(nil, blob(f)[:3], g, f, l, p) },
				}
				for what, call := range refuse {
					if got, ok := call(); ok || len(got) != 0 {
						t.Errorf("%s: %s splice accepted (%d bytes)", name, what, len(got))
					}
				}
			}
		}
	}
	if pairs < 1000 {
		t.Fatalf("only %d sibling pairs spliced", pairs)
	}
	t.Logf("%d sibling pairs spliced", pairs)
}

func mustSetCover() *gadgets.SetCover {
	sc, err := gadgets.NewSetCover(4, [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	if err != nil {
		panic(err)
	}
	return sc
}

// interleavedLeaves puts a provider and a peer of the leaves' provider
// between the leaves by id, so the Len-2 block mixes all three type
// codes and a swap moves codes across positions: a splice that kept the
// old type bits would fail here.
func interleavedLeaves() *asgraph.Graph {
	b := asgraph.NewBuilder()
	b.AddCustomer(25, 20).AddCustomer(5, 25).AddPeer(20, 40).AddCustomer(40, 45)
	for _, leaf := range []int32{10, 30, 50, 60} {
		b.AddCustomer(20, leaf)
	}
	return b.MustBuild()
}
