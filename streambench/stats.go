package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the median of xs (mean of the middle pair for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB returns the process's resident set size in MiB, or 0 where
// /proc is unavailable.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// procSnap is the process-level counters read at a window boundary.
type procSnap struct {
	at         time.Time
	cpu        time.Duration
	totalAlloc uint64
	mallocs    uint64
	gcCPU      float64 // seconds, runtime/metrics estimate
	allCPU     float64 // seconds, runtime/metrics estimate
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	s := procSnap{
		at:         time.Now(),
		cpu:        cpuTime(),
		totalAlloc: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
	}
	if cpuSamples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuSamples[0].Value.Float64()
	}
	if cpuSamples[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = cpuSamples[1].Value.Float64()
	}
	return s
}

// procDelta is the process-level work done between two snapshots.
type procDelta struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
	gcFrac  float64
}

func diffProc(a, b procSnap) procDelta {
	return procDelta{
		wall:    b.at.Sub(a.at),
		cpu:     b.cpu - a.cpu,
		alloc:   b.totalAlloc - a.totalAlloc,
		mallocs: b.mallocs - a.mallocs,
		gcFrac:  ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU),
	}
}
