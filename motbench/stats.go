package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a percentile read from fewer tail samples is mostly noise.
const minBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-quantile of xs (0 < q < 1) together
// with the number of samples ranked strictly beyond it.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	k = max(0, min(k, len(s)-1))
	return s[k], len(s) - 1 - k
}

// minOf is the smallest of xs.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}

// minLen and maxLen are the shortest and longest lengths in xss.
func minLen(xss [][]float64) int {
	m := len(xss[0])
	for _, xs := range xss {
		m = min(m, len(xs))
	}
	return m
}

func maxLen(xss [][]float64) int {
	m := 0
	for _, xs := range xss {
		m = max(m, len(xs))
	}
	return m
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// usage is a sample of the process's CPU time and cumulative heap
// allocation.
type usage struct {
	cpu   time.Duration
	alloc uint64
}

// sampleUsage reads user+system CPU time and total bytes allocated so
// far. ReadMemStats stops the world briefly, so callers sample outside
// timed regions.
func sampleUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpu: processCPU(), alloc: ms.TotalAlloc}
}

// processCPU is the process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sub returns the usage accrued between before and u.
func (u usage) sub(before usage) usage {
	return usage{cpu: u.cpu - before.cpu, alloc: u.alloc - before.alloc}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
