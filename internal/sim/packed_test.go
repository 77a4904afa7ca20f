package sim

import (
	"encoding/binary"
	"math"
	"testing"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
	"sbgp/internal/topogen"
)

// TestShardEngineStaticsHandoff: the migration warm-start path —
// ExportStatics on the source engine, ImportStatics on a cold
// destination engine — leaves the destination fully warm (zero static
// misses on its first round) and bit-identical to the source's own
// partials. A class-replayed leaf never fetched a static, so the
// handoff carries exactly the other destinations' blobs, and the
// destination engine — which replays the same leaves — hits on each.
func TestShardEngineStaticsHandoff(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(300, 7))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	cfg := Config{Theta: 0.05, EarlyAdopters: adopters}
	st := RoundState{Secure: make([]bool, g.N()), Breaks: make([]bool, g.N())}
	for _, a := range adopters {
		st.Secure[a] = true
	}
	cands := g.ISPs()
	shard0Dests := (g.N() + 1) / 2 // d ≡ 0 (mod 2)

	src, err := NewShardEngine(g, cfg, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := src.ComputeRound(st, cands)
	wantBase := append([]float64(nil), want[0].UBase...)
	wantDelta := append([]float64(nil), want[0].UDelta...)
	replayed := int(want[0].Stats.ClassReplays)
	if replayed == 0 {
		t.Fatal("no shard-0 leaf was class-replayed")
	}

	if err := src.RemoveShards([]int{0}); err != nil {
		t.Fatal(err)
	}
	blobs := src.ExportStatics([]int{0})
	if len(blobs) != shard0Dests-replayed {
		t.Fatalf("exported %d blobs, want %d (every shard-0 destination not class-replayed)", len(blobs), shard0Dests-replayed)
	}

	dst, err := NewShardEngine(g, cfg, []int{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst.ImportStatics(blobs)
	got := dst.ComputeRound(st, cands)
	if len(got) != 1 || got[0].Shard != 0 {
		t.Fatalf("destination engine returned %d partials", len(got))
	}
	if got[0].Stats.StaticMisses != 0 {
		t.Errorf("imported statics left %d misses; the shard landed cold", got[0].Stats.StaticMisses)
	}
	if hits, again := got[0].Stats.StaticHits, got[0].Stats.ClassReplays; hits != int64(len(blobs)) || again != int64(replayed) {
		t.Errorf("%d static hits + %d class replays, want %d + %d", hits, again, len(blobs), replayed)
	}
	for i := range wantBase {
		if math.Float64bits(wantBase[i]) != math.Float64bits(got[0].UBase[i]) ||
			math.Float64bits(wantDelta[i]) != math.Float64bits(got[0].UDelta[i]) {
			t.Fatalf("partials differ at node %d after warm handoff", i)
		}
	}
}

// TestImportSidecarsRejectsHostile: sidecar payloads arrive over the
// dist wire. One whose node gap wraps the int32 node negative must be
// refused at import — admitted, the next base pass would replay it and
// index uBase[-2] — and a negative destination must not pick a shard.
func TestImportSidecarsRejectsHostile(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(200, 3))
	n := g.N()
	eng, err := NewShardEngine(g, Config{}, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const d, kind = 5, uint8(Outgoing)
	payload := routing.AppendSidecar(nil, d, n, kind, nil)
	payload[len(payload)-1] = 1 // count
	payload = binary.AppendUvarint(payload, 0xFFFFFFFF)
	payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(1.5))
	eng.ImportSidecars([]uint8{kind, kind}, []int32{d, -1}, [][]byte{payload, payload})

	ref, err := NewShardEngine(g, Config{}, []int{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := RoundState{Secure: make([]bool, n), Breaks: make([]bool, n)}
	got, want := eng.ComputeRound(st, nil), ref.ComputeRound(st, nil)
	if got[0].Stats.PristineReplays != 0 {
		t.Errorf("%d destinations replayed an imported hostile sidecar", got[0].Stats.PristineReplays)
	}
	if !utilsBitIdentical(got[0].UBase, want[0].UBase) {
		t.Error("base partials differ after the refused import")
	}
}
