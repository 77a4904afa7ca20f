package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sbgp/internal/dist"
)

// The test binary is its own phase child and its own dist worker.
func TestMain(m *testing.M) {
	dist.MaybeRunWorker()
	maybeRunChild()
	os.Exit(m.Run())
}

func loadBenchmarkDoc(t *testing.T) (benchmarkDoc, []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc, raw
}

// BENCHMARK.json is generated from spec.go; regenerate it with
// `sbgpbench -print-benchmark-json` when this fails.
func TestBenchmarkJSONInStep(t *testing.T) {
	_, raw := loadBenchmarkDoc(t)
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("BENCHMARK.json differs from sbgpbench -print-benchmark-json")
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	lineRE = regexp.MustCompile(`^([A-Za-z0-9_.-]+) (\S+) (\S+)(  #.*)?$`)
)

// parseReport splits a -workload all report into one name -> unit map per
// workload, failing on a metric a workload prints twice.
func parseReport(t *testing.T, report string) map[string]map[string]string {
	t.Helper()
	byWorkload := map[string]map[string]string{}
	var cur map[string]string
	for _, line := range strings.Split(report, "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			cur = map[string]string{}
			byWorkload[strings.Fields(rest)[0]] = cur
			continue
		}
		m := lineRE.FindStringSubmatch(line)
		if m == nil || cur == nil || strings.HasPrefix(line, "#") {
			continue
		}
		if _, dup := cur[m[1]]; dup {
			t.Errorf("metric %s printed twice in one workload", m[1])
		}
		cur[m[1]] = m[3]
	}
	return byWorkload
}

// TestSmoke runs all four workloads at N=300, one repeat, untraced and
// traced, and holds the report to BENCHMARK.json: every end-to-end metric
// once per workload, every per-layer metric once in each workload it
// applies to and in at least one, each with its unit.
func TestSmoke(t *testing.T) {
	doc, _ := loadBenchmarkDoc(t)
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "all", "-n", "300", "-repeats", "1", "-out", out,
		"-golden", filepath.Join(out, "no-golden.json")}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	report := parseReport(t, stdout.String())
	if len(report) != len(doc.Workloads) {
		t.Fatalf("report covers %d workloads, BENCHMARK.json names %d", len(report), len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q breaks the name rule", w.Name)
		}
		got, ok := report[w.Name]
		if !ok {
			t.Errorf("workload %s missing from the report", w.Name)
			continue
		}
		for _, m := range doc.EndToEnd {
			if unit, ok := got[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s: unit %q, want %q", w.Name, m.Name, unit, m.Unit)
			}
		}
		if unit := got["failed_ops_share"]; unit != "ratio" {
			t.Errorf("%s: failed_ops_share missing", w.Name)
		}
		if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
			t.Errorf("%s: no trace written: %v", w.Name, err)
		}
	}
	for _, m := range doc.PerLayer {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q breaks the name rule", m.Name)
		}
		seen := 0
		for w, got := range report {
			if unit, ok := got[m.Name]; ok {
				seen++
				if unit != m.Unit {
					t.Errorf("%s: per-layer metric %s: unit %q, want %q", w, m.Name, unit, m.Unit)
				}
			}
		}
		if seen == 0 {
			t.Errorf("per-layer metric %s not emitted by any workload", m.Name)
		}
	}
	if !strings.Contains(stdout.String(), "-cold and -diskwarm result_digest agree") {
		t.Error("report does not show the -cold == -diskwarm digest check")
	}
	left, err := filepath.Glob(filepath.Join(out, "tmp-*"))
	if err != nil || len(left) > 0 {
		t.Errorf("temporary stores left behind: %v %v", left, err)
	}
}

// TestResultLine checks the driver's contract on one workload: the last
// line is one JSON object whose metrics are exactly the end-to-end set
// untraced and exactly the per-layer set traced.
func TestResultLine(t *testing.T) {
	doc, _ := loadBenchmarkDoc(t)
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		out := t.TempDir()
		code := run([]string{"--workload", "game-incoming-2500", "--seed", "7", "--seconds", "1", "--trace", trace,
			"-n", "300", "-repeats", "1", "-out", out, "-golden", filepath.Join(out, "no-golden.json")}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", trace, err)
		}
		if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
			t.Errorf("trace %s: correct=%v attempted=%d failed=%d", trace, last.Correct, last.Attempted, last.Failed)
		}
		want := map[string]string{}
		if trace == "0" {
			for _, m := range doc.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range doc.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		if len(last.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, want %d", trace, len(last.Metrics), len(want))
		}
		for name, unit := range want {
			got, ok := last.Metrics[name]
			if !ok || got.Unit != unit {
				t.Errorf("trace %s: metric %s: %+v, want unit %s", trace, name, got, unit)
			}
			if trace == "0" && got.Value == 0 {
				t.Errorf("end-to-end metric %s is 0", name)
			}
		}
	}
}
