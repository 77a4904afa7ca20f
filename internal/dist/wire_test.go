package dist

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"sbgp/internal/routing"
	"sbgp/internal/sim"
)

func TestHelloRoundTrip(t *testing.T) {
	in := &hello{
		N:           1234,
		TotalShards: 7,
		Shards:      []int{1, 3, 5},
		Config:      []byte{9, 8, 7},
		Graph:       []byte("graph bytes here"),
	}
	out, err := decodeHello(encodeHello(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	in := []int{0, 2, 4, 6}
	out, err := decodeHelloAck(encodeHelloAck(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %v, want %v", out, in)
	}
}

func TestRoundRoundTrip(t *testing.T) {
	in := &roundMsg{
		Seq: 42,
		Flips: []flip{
			{Node: 3, Secure: true},
			{Node: 9, Secure: true, Breaks: true},
			{Node: 11},
		},
		Cands: []int32{1, 5, 9},
	}
	var out roundMsg
	if err := decodeRound(encodeRound(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || !reflect.DeepEqual(out.Flips, in.Flips) || !reflect.DeepEqual(out.Cands, in.Cands) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	// Decoding a smaller message into the same struct must not leave
	// stale entries behind.
	small := &roundMsg{Seq: 43, Cands: []int32{2}}
	if err := decodeRound(encodeRound(small), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Flips) != 0 || len(out.Cands) != 1 || out.Cands[0] != 2 {
		t.Fatalf("reuse: got %+v", out)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 100} {
		secure := make([]bool, n)
		breaks := make([]bool, n)
		for i := range secure {
			secure[i] = i%3 == 0
			breaks[i] = i%5 == 1
		}
		in := &snapshotMsg{Seq: uint64(n), Secure: secure, Breaks: breaks}
		var out snapshotMsg
		if err := decodeSnapshot(encodeSnapshot(in), &out); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if out.Seq != in.Seq || !boolsEqual(out.Secure, secure) || !boolsEqual(out.Breaks, breaks) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecomputeRoundTrip(t *testing.T) {
	in := &recomputeMsg{Seq: 5, Shards: []int{1, 2}, Cands: []int32{0, 4, 9}}
	var out recomputeMsg
	if err := decodeRecompute(encodeRecompute(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || !reflect.DeepEqual(out.Shards, in.Shards) || !reflect.DeepEqual(out.Cands, in.Cands) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestAssignRoundTrip(t *testing.T) {
	in := []int{7, 8}
	out, err := decodeAssign(encodeAssign(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %v, want %v", out, in)
	}
}

// TestPartialsRoundTrip checks the float vectors survive bit-exactly —
// including NaN payloads and signed zeros — and that every counter
// travels: the stats value is built through RoundStats.Counters, with a
// distinct value in every field, so a new counter is covered too.
func TestPartialsRoundTrip(t *testing.T) {
	mk := func(vals ...float64) []float64 { return vals }
	var stats sim.RoundStats
	next := int64(100)
	stats.Counters(func(_ string, v *int64) { next++; *v = next })
	in := &partialsMsg{
		Seq: 17,
		Parts: []sim.ShardPartial{
			{
				Shard:  2,
				UBase:  mk(1.5, math.NaN(), math.Inf(1), math.Copysign(0, -1)),
				UDelta: mk(0, -2.25, 1e-308, 3),
				Stats:  stats,
			},
			{
				Shard:  5,
				UBase:  mk(4, 5, 6, 7),
				UDelta: mk(8, 9, 10, 11),
			},
		},
	}
	if got := int(next - 100); got == 0 || got != statsWireFields {
		t.Fatalf("Counters visited %d fields, the wire carries %d", got, statsWireFields)
	}
	var out partialsMsg
	if err := decodePartials(encodePartials(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || len(out.Parts) != len(in.Parts) {
		t.Fatalf("got seq %d, %d parts", out.Seq, len(out.Parts))
	}
	for i := range in.Parts {
		a, b := &in.Parts[i], &out.Parts[i]
		if a.Shard != b.Shard || a.Stats != b.Stats {
			t.Fatalf("part %d: shard/stats mismatch: %+v vs %+v", i, a, b)
		}
		if !bitsEqual(a.UBase, b.UBase) || !bitsEqual(a.UDelta, b.UDelta) {
			t.Fatalf("part %d: vectors not bit-identical", i)
		}
	}
	// Reuse: decoding a 1-part message into the same struct shrinks it.
	one := &partialsMsg{Seq: 18, Parts: in.Parts[:1]}
	if err := decodePartials(encodePartials(one), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Parts) != 1 || out.Parts[0].Shard != 2 {
		t.Fatalf("reuse: got %d parts, shard %d", len(out.Parts), out.Parts[0].Shard)
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestErrorRoundTrip(t *testing.T) {
	msg, err := decodeError(encodeError("boom: something fell over"))
	if err != nil {
		t.Fatal(err)
	}
	if msg != "boom: something fell over" {
		t.Fatalf("got %q", msg)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	cfgs := []sim.Config{
		{},
		{Model: sim.Incoming, StubsBreakTies: true, CacheBytes: 1},
		{ProjectStubUpgrades: true, CacheBytes: 1 << 20, Tiebreaker: routing.HashTiebreaker{Seed: 99}},
		{CacheBytes: -1}, // carried as sent: the worker's NewShardEngine refuses it
		{Tiebreaker: routing.LowestIndex{}},
	}
	for i, in := range cfgs {
		p, err := encodeConfig(in)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		out, err := decodeConfig(p)
		if err != nil {
			t.Fatalf("cfg %d: %v", i, err)
		}
		want := in
		if want.Tiebreaker == nil {
			want.Tiebreaker = routing.HashTiebreaker{}
		}
		if !reflect.DeepEqual(want, out) {
			t.Fatalf("cfg %d: got %+v, want %+v", i, out, want)
		}
	}

	// A v7 frame carried two budgets where v8 carries one; a worker must
	// refuse it by its version, not misread the second budget as the
	// store path's length.
	p, err := encodeConfig(cfgs[2])
	if err != nil {
		t.Fatal(err)
	}
	v7 := append([]byte{7}, p[1:11]...)            // model, flags, the static budget
	v7 = append(append(v7, p[3:11]...), p[11:]...) // the dynamic budget, then the rest
	if _, err := decodeConfig(v7); err == nil || !strings.Contains(err.Error(), "config wire version 7, want 8") {
		t.Fatalf("v7 config frame: got %v, want the version error", err)
	}
}

func TestFrameIO(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{1}, {2, 3, 4}, bytes.Repeat([]byte{5}, 1<<16)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range payloads {
		got, err := readFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame mismatch: %d bytes vs %d", len(got), len(want))
		}
		scratch = got
	}
	if err := writeFrame(&buf, nil); err == nil {
		t.Fatal("empty frame accepted")
	}
}

// The decoders face bytes from the network; none may panic or allocate
// absurdly on corrupt input. The fuzzers seed with valid encodings so
// mutation explores near-valid frames.

func FuzzDecodeRound(f *testing.F) {
	f.Add(encodeRound(&roundMsg{Seq: 1, Flips: []flip{{Node: 2, Secure: true}}, Cands: []int32{0, 1}}))
	f.Add([]byte{frameRound})
	f.Fuzz(func(t *testing.T, p []byte) {
		var m roundMsg
		_ = decodeRound(p, &m)
		_ = decodeRound(p, &m) // reuse path
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(encodeSnapshot(&snapshotMsg{Seq: 3, Secure: []bool{true, false, true}, Breaks: []bool{false, false, true}}))
	f.Add([]byte{frameSnapshot})
	f.Fuzz(func(t *testing.T, p []byte) {
		var m snapshotMsg
		_ = decodeSnapshot(p, &m)
		_ = decodeSnapshot(p, &m)
	})
}

func FuzzDecodePartials(f *testing.F) {
	f.Add(encodePartials(&partialsMsg{Seq: 2, Parts: []sim.ShardPartial{{Shard: 1, UBase: []float64{1, 2}, UDelta: []float64{3, 4}}}}))
	f.Add([]byte{framePartials})
	f.Fuzz(func(t *testing.T, p []byte) {
		var m partialsMsg
		_ = decodePartials(p, &m)
		if decodePartials(p, &m) == nil {
			if q := encodePartials(&m); !bytes.Equal(q, p) {
				t.Fatalf("a decoded frame of %d bytes re-encodes to %d different bytes", len(p), len(q))
			}
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	cfgw, err := encodeConfig(sim.Config{CacheBytes: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeHello(&hello{N: 3, TotalShards: 2, Shards: []int{0, 1}, Config: cfgw, Graph: []byte("g")}))
	f.Fuzz(func(t *testing.T, p []byte) {
		_, _ = decodeHello(p)
		if c, err := decodeHelloAck(p); err == nil {
			_ = c
		}
	})
}

func FuzzDecodeConfig(f *testing.F) {
	if p, err := encodeConfig(sim.Config{Model: sim.Incoming, Tiebreaker: routing.LowestIndex{}}); err == nil {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		_, _ = decodeConfig(p)
	})
}
