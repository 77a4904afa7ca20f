package sim

import (
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/topogen"
)

// TestShardTimingZeroPartials: a round that computed no shards must
// report zeroed timing aggregates, not a garbage minimum or a division
// by zero.
func TestShardTimingZeroPartials(t *testing.T) {
	wallMax, wallMin, straggler := shardTiming(nil)
	if wallMax != 0 || wallMin != 0 || straggler != 0 {
		t.Fatalf("shardTiming(nil) = %v/%v/%v, want zeros", wallMax, wallMin, straggler)
	}
	wallMax, wallMin, straggler = shardTiming([]ShardPartial{})
	if wallMax != 0 || wallMin != 0 || straggler != 0 {
		t.Fatalf("shardTiming(empty) = %v/%v/%v, want zeros", wallMax, wallMin, straggler)
	}
	one := []ShardPartial{{Stats: ShardStats{WallNS: 40}}}
	wallMax, wallMin, straggler = shardTiming(one)
	if wallMax != 40*time.Nanosecond || wallMin != 40*time.Nanosecond || straggler != 1.0 {
		t.Fatalf("shardTiming(one) = %v/%v/%v, want 40ns/40ns/1.0", wallMax, wallMin, straggler)
	}
}

// TestShardEngineRemoveAddShards covers the migration seam the
// distributed rebalancer drives: removing shards, the error cases, and
// re-adoption of a previously owned shard producing the same partials
// as an engine that never lost it.
func TestShardEngineRemoveAddShards(t *testing.T) {
	g := topogen.MustGenerate(topogen.Default(200, 3))
	g.SetCPTrafficFraction(0.10)
	adopters := append(g.Nodes(asgraph.ContentProvider),
		asgraph.TopByDegree(g, 3, asgraph.ISP)...)
	cfg := Config{Theta: 0.05, EarlyAdopters: adopters}
	st := RoundState{Secure: make([]bool, g.N()), Breaks: make([]bool, g.N())}
	for _, a := range adopters {
		st.Secure[a] = true
	}
	cands := g.ISPs()

	ref, err := NewShardEngine(g, cfg, []int{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.ComputeRound(st, cands)

	eng, err := NewShardEngine(g, cfg, []int{0, 1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng.ComputeRound(st, cands)
	if err := eng.RemoveShards([]int{9}); err == nil {
		t.Fatal("removing an unowned shard succeeded")
	}
	if err := eng.RemoveShards([]int{1, 3}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Shards(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("shards after removal: %v, want [0 2]", got)
	}
	if err := eng.AddShards([]int{1}); err != nil {
		t.Fatal(err) // re-adoption from the retired pool
	}
	if err := eng.AddShards([]int{3}); err != nil {
		t.Fatal(err)
	}
	got := eng.ComputeRound(st, cands)
	if len(got) != len(want) {
		t.Fatalf("%d partials, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Shard != want[i].Shard {
			t.Fatalf("partial %d is shard %d, want %d", i, got[i].Shard, want[i].Shard)
		}
		if !utilsBitIdentical(got[i].UBase, want[i].UBase) || !utilsBitIdentical(got[i].UDelta, want[i].UDelta) {
			t.Fatalf("shard %d partials differ after remove/re-add", want[i].Shard)
		}
	}
}
