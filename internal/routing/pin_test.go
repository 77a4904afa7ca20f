package routing

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/topogen"
)

// TestStaticBytesPinned pins the static build to the byte: the SHA-256
// of AppendPacked over every destination of each graph, in ascending
// destination order. The packed form carries every level, route type,
// tiebreak row and winner, so any change to how statics are built —
// the claim sort, the claim rows, lengths past 254 hops — that moves a
// single bit fails here. The graphs are a topogen topology and the
// adversarial shapes of overhaul_test.go: disconnected components,
// peer-only reachability, a ladder whose paths run past 254 hops, and
// the disconnected random graphs.
func TestStaticBytesPinned(t *testing.T) {
	tb := HashTiebreaker{Seed: 42}
	digest := func(gs ...*asgraph.Graph) string {
		h := sha256.New()
		var buf []byte
		for _, g := range gs {
			w := NewWorkspace(g)
			for d := int32(0); d < int32(g.N()); d++ {
				buf = AppendPacked(buf[:0], w.PrepareDest(d, tb), g)
				h.Write(buf)
			}
		}
		return hex.EncodeToString(h.Sum(nil))[:16]
	}
	rng := rand.New(rand.NewSource(99))
	var fuzz []*asgraph.Graph
	for trial := 0; trial < 25; trial++ {
		g, _ := disconnectedGraph(rng)
		fuzz = append(fuzz, g)
	}
	for _, c := range []struct {
		name string
		gs   []*asgraph.Graph
		want string
	}{
		{"topogen-1000-42", []*asgraph.Graph{topogen.MustGenerate(topogen.Default(1000, 42))}, "833ba5a446a09ee4"},
		{"components", []*asgraph.Graph{componentsGraph()}, "087a58deb7410fd2"},
		{"peer-only", []*asgraph.Graph{peerOnlyGraph()}, "164db04381ce6d62"},
		{"ladder", []*asgraph.Graph{ladderGraph()}, "d42a79a11cdafbbe"},
		{"disconnected", fuzz, "438f1ce925cc2eb2"},
	} {
		if got := digest(c.gs...); got != c.want {
			t.Errorf("%s: packed statics digest %s, want %s", c.name, got, c.want)
		}
	}
}
