package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// pinProcs caps the Go scheduler at min(2, nproc) threads running user
// code, so load is generated from at most two busy threads on any box.
func pinProcs() {
	p := runtime.NumCPU()
	if p > 2 {
		p = 2
	}
	runtime.GOMAXPROCS(p)
}

// settle returns freed heap to the OS between repeats, outside every
// timed section. Without it the next repeat's wall and the process's
// high-water mark depend on where the previous repeat's garbage left
// the heap.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark in MB
// (10^6 bytes): VmHWM where /proc has it, else getrusage's ru_maxrss
// (kilobytes on Linux).
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// summary is the order statistics of a sample; quartiles follow
// Python's statistics.quantiles(values, n=4), the rule the driver uses.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

func summarize(values []float64) summary {
	s := summary{N: len(values)}
	if s.N == 0 {
		return s
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s.Min, s.Max = v[0], v[s.N-1]
	s.Median = quantile(v, 2)
	s.Q1, s.Q3 = quantile(v, 1), quantile(v, 3)
	return s
}

// quantile returns the i-th quartile cut point of sorted v (exclusive
// method); a single value is its own quartiles.
func quantile(v []float64, i int) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	// Clamp j first and take delta from the clamped j, as Python does:
	// at the ends of a small sample the cut point extrapolates.
	j := i * (n + 1) / 4
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	delta := i*(n+1) - j*4
	return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
}

func median(values []float64) float64 { return summarize(values).Median }

// percentile is the nearest-rank p-th percentile of values (p in
// (0,100]); 0 for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	k := int(float64(len(v))*p/100+0.999999) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(v) {
		k = len(v) - 1
	}
	return v[k]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
