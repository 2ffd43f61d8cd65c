package main

import (
	"runtime"
	"syscall"
	"time"

	"presence/internal/stats"
)

// summary is a metric as reported: the median over its slices, the
// quartiles beside it, and the values themselves.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarise(values []float64) summary {
	s := summary{N: len(values), Values: values}
	q := quantiles(values, 0.25, 0.5, 0.75)
	s.Q1, s.Median, s.Q3 = q[0], q[1], q[2]
	return s
}

// quantiles returns the nearest-rank quantiles of data (zeros when
// there is none).
func quantiles(data []float64, probs ...float64) []float64 {
	q, err := stats.Quantiles(data, probs...)
	if err != nil {
		return make([]float64, len(probs))
	}
	return q
}

func median(data []float64) float64 { return quantiles(data, 0.5)[0] }

// scaled returns values multiplied by f.
func scaled(values []float64, f float64) []float64 {
	for i := range values {
		values[i] *= f
	}
	return values
}

// timeCalls runs loop(n) — n calls of the function under test in a
// plain for loop — reps times and returns the nanoseconds per call of
// each repetition.
func timeCalls(reps, n int, loop func(n int)) []float64 {
	loop(n / 10) // warm caches and pools
	out := make([]float64, reps)
	for i := range out {
		start := time.Now()
		loop(n)
		out[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return out
}

// mallocs returns how many heap objects fn allocated, process-wide.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime returns the process's user and system CPU time so far.
func cpuTime() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}
