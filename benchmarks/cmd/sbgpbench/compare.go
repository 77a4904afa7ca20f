package main

import (
	"fmt"
	"io"
)

// compareSets prints, per (workload, end-to-end metric), set A's and set
// B's medians, B's relative worsening, the bound and a verdict, and
// returns non-zero unless every pair is ok. A set is the file -json
// appended to over one or more complete runs of one commit: the tool for
// the two-sets agreement check and for parent-versus-change runs.
//
// Verdicts: "regressed" — B's median is worse than A's by more than the
// bound; "unresolved" — it is not, but either set's quartile range is
// wider than the bound, so "unchanged" cannot be claimed (unless every B
// value beats every A value); "ok" otherwise.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadResultSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "sbgpbench:", err)
		return 2
	}
	b, err := loadResultSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "sbgpbench:", err)
		return 2
	}
	bad := 0
	fmt.Fprintf(stdout, "%-30s %-18s %12s %12s %8s %6s %7s  %s\n",
		"workload", "metric", "A", "B", "worse", "bound", "spread", "verdict")
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := setValues(a, w.Name, m.Name), setValues(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			sa, sb := summarize(va), summarize(vb)
			worse := ratio(sb.Median-sa.Median, sa.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(ratio(sa.Q3-sa.Q1, sa.Median), ratio(sb.Q3-sb.Q1, sb.Median))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "regressed"
			case spread > m.Bound && !allBetter(va, vb, m.Better):
				verdict = "unresolved"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(stdout, "%-30s %-18s %12.6g %12.6g %+7.1f%% %5.0f%% %6.1f%%  %s\n",
				w.Name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, 100*spread, verdict)
		}
		for i, set := range []resultSet{a, b} {
			if attempted, failed := setFailures(set, w.Name); failed > 0 {
				bad++
				fmt.Fprintf(stdout, "%-30s %-18s set %c: %d of %d operations failed\n", w.Name, "failed_ops_share", 'A'+rune(i), failed, attempted)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d (workload, metric) pairs out of bound\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "every pair within its bound")
	return 0
}

// setValues are a set's values of one metric on one workload: one per
// run when the set holds several runs of the workload, else the single
// run's per-operation samples.
func setValues(set resultSet, workload, metric string) []float64 {
	var perRun []float64
	var samples []float64
	for _, r := range set.Runs {
		v, ok := r.EndToEnd[metric]
		if r.Workload != workload || !ok {
			continue
		}
		perRun = append(perRun, v.Value)
		samples = v.Samples
	}
	if len(perRun) == 1 && len(samples) > 0 {
		return samples
	}
	return perRun
}

func setFailures(set resultSet, workload string) (attempted, failed int) {
	for _, r := range set.Runs {
		if r.Workload == workload {
			attempted += r.Attempted
			failed += r.Failed
		}
	}
	return attempted, failed
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := summarize(a), summarize(b)
	if better == "higher" {
		return sb.Min > sa.Max
	}
	return sb.Max < sa.Min
}
