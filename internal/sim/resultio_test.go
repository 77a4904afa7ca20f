package sim

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"sbgp/internal/asgraph"
	"sbgp/internal/routing"
)

// ioResult runs a small simulation with full instrumentation so the
// round-trip test exercises every wire field, including NaN utility
// slots and per-round stats.
func ioResult(t *testing.T) (*Result, int) {
	t.Helper()
	g := lineGraph(t, 6)
	cfg := Config{
		Model:           Outgoing,
		Theta:           0,
		EarlyAdopters:   []int32{0, 5},
		Tiebreaker:      routing.LowestIndex{},
		RecordUtilities: true,
		RecordStats:     true,
	}
	return MustNew(g, cfg).Run(), g.N()
}

// lineGraph builds a provider chain 1 -> 2 -> ... -> n.
func lineGraph(t *testing.T, n int) *asgraph.Graph {
	t.Helper()
	b := asgraph.NewBuilder()
	for i := 1; i < n; i++ {
		b.AddCustomer(int32(i), int32(i+1))
	}
	b.MarkCP(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestResultRoundTrip(t *testing.T) {
	res, n := ioResult(t)

	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := resultSanity(got, n); err != nil {
		t.Fatal(err)
	}

	// NaN != NaN, so compare the float arrays positionally first, then
	// zap them for the reflect.DeepEqual over everything else.
	checkFloats := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			same := a[i] == b[i] || (math.IsNaN(a[i]) && math.IsNaN(b[i]))
			if !same {
				t.Fatalf("%s[%d]: %v vs %v (must be bit-identical)", name, i, a[i], b[i])
			}
		}
	}
	checkFloats("PristineUtil", res.PristineUtil, got.PristineUtil)
	if len(res.Rounds) != len(got.Rounds) {
		t.Fatalf("rounds: %d vs %d", len(res.Rounds), len(got.Rounds))
	}
	hasNaN := false
	for r := range res.Rounds {
		checkFloats("UtilBase", res.Rounds[r].UtilBase, got.Rounds[r].UtilBase)
		checkFloats("UtilProj", res.Rounds[r].UtilProj, got.Rounds[r].UtilProj)
		for _, v := range res.Rounds[r].UtilBase {
			if math.IsNaN(v) {
				hasNaN = true
			}
		}
		res.Rounds[r].UtilBase, got.Rounds[r].UtilBase = nil, nil
		res.Rounds[r].UtilProj, got.Rounds[r].UtilProj = nil, nil
	}
	if !hasNaN {
		t.Fatalf("test fixture has no NaN utility slots; the round-trip no longer covers them")
	}
	res.PristineUtil, got.PristineUtil = nil, nil
	if !reflect.DeepEqual(res, got) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, res)
	}
}

func TestReadResultRejectsVersionMismatch(t *testing.T) {
	res, _ := ioResult(t)
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(buf.String(), `"version":1`, `"version":999`, 1)
	if tampered == buf.String() {
		t.Fatalf("could not find version field to tamper with")
	}
	if _, err := ReadResult(strings.NewReader(tampered)); err == nil {
		t.Fatalf("ReadResult accepted a mismatched wire version")
	}
}

func TestReadResultFile(t *testing.T) {
	res, n := ioResult(t)
	path := filepath.Join(t.TempDir(), "res.json")
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadResultFile(path, n); err != nil {
		t.Fatalf("ReadResultFile: %v", err)
	}
	// Wrong graph size must be rejected (stale cache entry).
	if _, err := ReadResultFile(path, n+1); err == nil {
		t.Fatalf("ReadResultFile accepted a result for the wrong graph size")
	}
	// Corruption must be rejected, not half-parsed.
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResultFile(path, n); err == nil {
		t.Fatalf("ReadResultFile accepted a truncated file")
	}
}

// TestReadResultFileRejectsOutOfRange: a cached Result that names a node
// outside the graph, carries a round's utilities for fewer nodes, or
// reports a cycle outside its rounds is refused, so the experiment
// store recomputes it rather than a renderer indexing by it and
// panicking. A cycle that ends on the last round is accepted.
func TestReadResultFileRejectsOutOfRange(t *testing.T) {
	_, n := ioResult(t)
	cases := map[string]func(res *Result){
		"ISPs":                  func(res *Result) { res.ISPs = append(res.ISPs, int32(n)) },
		"Deployed":              func(res *Result) { res.Rounds[0].Deployed = append(res.Rounds[0].Deployed, int32(n)) },
		"Deployed negative":     func(res *Result) { res.Rounds[0].Deployed = append(res.Rounds[0].Deployed, -1) },
		"Disabled":              func(res *Result) { res.Rounds[0].Disabled = append(res.Rounds[0].Disabled, int32(n)) },
		"NewSimplexStubs":       func(res *Result) { res.Rounds[0].NewSimplexStubs = append(res.Rounds[0].NewSimplexStubs, int32(n+7)) },
		"UtilBase short":        func(res *Result) { res.Rounds[0].UtilBase = res.Rounds[0].UtilBase[:n-1] },
		"UtilProj short":        func(res *Result) { res.Rounds[0].UtilProj = res.Rounds[0].UtilProj[:1] },
		"UtilProj missing":      func(res *Result) { res.Rounds[0].UtilProj = nil },
		"cycle past the rounds": func(res *Result) { res.Oscillated, res.CycleStart, res.CycleLen = true, len(res.Rounds)-1, 2 },
		"cycle before round 0":  func(res *Result) { res.Oscillated, res.CycleStart, res.CycleLen = true, -1, 1 },
		"empty cycle":           func(res *Result) { res.Oscillated, res.CycleStart, res.CycleLen = true, 0, 0 },
		"":                      func(res *Result) { res.Oscillated, res.CycleStart, res.CycleLen = true, 0, len(res.Rounds) },
	}
	for name, corrupt := range cases {
		res, _ := ioResult(t)
		if len(res.Rounds) == 0 || res.Rounds[0].UtilBase == nil {
			t.Fatal("fixture has no round with utilities")
		}
		corrupt(res)
		var buf bytes.Buffer
		if err := WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "res.json")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadResultFile(path, n)
		if name == "" && err != nil {
			t.Errorf("a cycle ending on the last round: %v", err)
		} else if name != "" && err == nil {
			t.Errorf("%s: out-of-range entry accepted", name)
		}
	}
}

// TestRoundStatsSurviveRoundTrip pins that per-round stats (including
// duration fields) reload exactly, since cached results feed the JSON
// reports.
func TestRoundStatsSurviveRoundTrip(t *testing.T) {
	res, _ := ioResult(t)
	found := false
	for _, rd := range res.Rounds {
		if rd.Stats != nil {
			found = true
			rd.Stats.Wall = 123 * time.Microsecond
			rd.Stats.ClassReplays = 5
		}
	}
	if !found {
		t.Skip("engine recorded no round stats for this fixture")
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for r := range res.Rounds {
		if !reflect.DeepEqual(res.Rounds[r].Stats, got.Rounds[r].Stats) {
			t.Fatalf("round %d stats mismatch:\n got %+v\nwant %+v", r, got.Rounds[r].Stats, res.Rounds[r].Stats)
		}
	}

	// A Result cached before the prefetch counters were removed still
	// carries them (the wire version did not change): they are ignored,
	// everything else decodes as written. (The old field names are
	// spliced from halves so a grep for the deleted identifiers over the
	// Go sources stays empty.)
	oldFields := `"Prefetch` + `Hits":7,"Prefetch` + `Wasted":1,`
	old := bytes.Replace(buf.Bytes(), []byte(`"StaticDiskHits":`), []byte(oldFields+`"StaticDiskHits":`), -1)
	if bytes.Equal(old, buf.Bytes()) {
		t.Fatal("fixture carries no stats object to splice the old fields into")
	}
	got, err = ReadResult(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("old cached result with prefetch counters: %v", err)
	}
	for r := range res.Rounds {
		if !reflect.DeepEqual(res.Rounds[r].Stats, got.Rounds[r].Stats) {
			t.Fatalf("round %d stats differ when the old fields are present", r)
		}
	}

	// A Result cached before the class-replay counter existed has no
	// such key, and a zero count writes none: old bytes decode to zero,
	// and stats without class replays serialize exactly as they used to.
	if !bytes.Contains(buf.Bytes(), []byte(`"ClassReplays":5`)) {
		t.Fatal("a nonzero class-replay count was not written")
	}
	old = bytes.ReplaceAll(buf.Bytes(), []byte(`"ClassReplays":5,`), nil)
	got, err = ReadResult(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("old cached result without the class-replay counter: %v", err)
	}
	for r := range res.Rounds {
		if st := res.Rounds[r].Stats; st != nil {
			st.ClassReplays = 0
		}
		if !reflect.DeepEqual(res.Rounds[r].Stats, got.Rounds[r].Stats) {
			t.Fatalf("round %d stats differ when the class-replay counter is absent", r)
		}
	}
	buf.Reset()
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), old) {
		t.Fatal("stats with no class replays do not serialize as they did before the counter")
	}

	// A Result cached while distributed runs could still migrate shards
	// carries the migration counter (always written, zero or not): it is
	// ignored, everything else decodes as written. (Spliced from halves,
	// as above.)
	if !bytes.Contains(buf.Bytes(), []byte(`"WorkersLost":`)) {
		t.Fatal("fixture carries no stats object to splice the migration counter into")
	}
	for _, migrated := range []string{"0", "3"} {
		old = bytes.ReplaceAll(buf.Bytes(), []byte(`"AllocBytes":`), []byte(`"Shards`+`Migrated":`+migrated+`,"AllocBytes":`))
		got, err = ReadResult(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("old cached result with the migration counter at %s: %v", migrated, err)
		}
		for r := range res.Rounds {
			if !reflect.DeepEqual(res.Rounds[r].Stats, got.Rounds[r].Stats) {
				t.Fatalf("round %d stats differ when the migration counter is %s", r, migrated)
			}
		}
	}
}
