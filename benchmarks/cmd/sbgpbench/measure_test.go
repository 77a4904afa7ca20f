package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		values []float64
		q      [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		s := summarize(c.values)
		got := [3]float64{s.Q1, s.Median, s.Q3}
		for i := range got {
			if math.Abs(got[i]-c.q[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.values, got, c.q)
				break
			}
		}
	}
}

func writeSet(t *testing.T, dir, name string, wall []float64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var runs []workloadResult
	for _, v := range wall {
		runs = append(runs, workloadResult{
			Workload: "game-incoming-2500", Attempted: 5,
			EndToEnd: map[string]metricValue{"wall_s": {Value: v, Unit: "s"}},
		})
	}
	if err := appendResults(path, runs); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := writeSet(t, dir, "a.json", []float64{2.00, 2.02, 2.01, 1.99, 2.00})
	cases := []struct {
		name    string
		wall    []float64
		verdict string
		code    int
	}{
		{"same", []float64{2.01, 2.00, 2.02, 2.00, 1.99}, "ok", 0},
		{"slower", []float64{3.00, 3.02, 3.01, 2.99, 3.00}, "regressed", 1},
		{"noisy", []float64{1.4, 2.8, 2.0, 1.5, 2.7}, "unresolved", 1},
		{"faster", []float64{1.0, 1.5, 1.2, 1.1, 1.6}, "ok", 0}, // wide, but every run beats every run of A
	}
	for _, c := range cases {
		other := writeSet(t, dir, c.name+".json", c.wall)
		var stdout, stderr bytes.Buffer
		code := compareSets(base, other, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d with verdict %s\n%s", c.name, code, c.code, c.verdict, stdout.String())
		}
	}
	if code := compareSets(base, filepath.Join(dir, "missing.json"), &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("comparing against a missing file succeeded")
	}
	_ = os.Remove(base)
}
