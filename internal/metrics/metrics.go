// Package metrics is the fleet's stdlib-only telemetry core: fixed-
// bucket log₂ histograms built from cache-line-padded atomics, cheap
// enough to record on the shard hot path (one atomic add per bucket
// sample, no allocation, no lock), and a Prometheus text-exposition
// writer (expo.go) that renders merged snapshots for scraping.
//
// The paper's headline figures are latency distributions — detection
// latency, probe round trips — yet flat counters can only report means.
// A histogram per shard closes that gap without touching the 0
// allocs/op budget: writers touch only their own shard's padded
// buckets, scrapers snapshot each shard with atomic loads and merge the
// snapshots outside the hot path.
//
// # Bucket layout
//
// Histograms use 32 fixed buckets with power-of-two upper bounds:
// bucket i holds observations v with 2^(i-1) < v ≤ 2^i (bucket 0 holds
// v ≤ 1), and the last bucket is the overflow. Durations are recorded
// in microseconds, so the finite buckets span 1 µs to 2^30 µs ≈ 18
// minutes — below a microsecond nothing in a UDP probe path is
// distinguishable, and above minutes every verdict has long fired.
// Packet-count histograms (receive batch fill) use the same layout
// unit-free. Log₂ resolution (worst-case bucket width = the value
// itself) matches how the latencies are read: "sub-millisecond",
// "tens of ms", "seconds" — and makes Observe two instructions
// (bits.Len64 + add) with no search and no configuration to get wrong.
package metrics

import (
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every Histogram. Bucket i
// has upper bound 2^i (i < NumBuckets-1); the last bucket is overflow.
const NumBuckets = 32

// Histogram is a fixed-bucket log₂ histogram safe for one writer and
// any number of snapshotting readers without locks. The struct is
// padded to keep a scraper's atomic loads off the cache lines of
// whatever the owner allocates around it — the false-sharing trap a
// one-core benchmark can't see.
//
// The zero value is ready to use.
type Histogram struct {
	_       [64]byte
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
	_       [64]byte
}

// BucketIndex returns the bucket for one observation: the smallest i
// with v ≤ 2^i, clamped into the overflow bucket.
func BucketIndex(v uint64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(v - 1) // ceil(log₂ v)
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// UpperBound returns bucket i's inclusive upper bound, valid for
// i < NumBuckets-1 (the last bucket is unbounded).
func UpperBound(i int) uint64 { return 1 << uint(i) }

// Observe records one sample. It allocates nothing and takes no lock:
// three uncontended atomic adds.
func (h *Histogram) Observe(v uint64) {
	h.buckets[BucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Snapshot returns a point-in-time copy. Concurrent with Observe the
// fields are each atomically read but not mutually consistent — a
// sample landing mid-snapshot may be visible in count and not yet in
// its bucket. Scrape-grade accuracy, exact on a quiescent histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a plain-value copy of one Histogram, mergeable
// across shards and renderable by the exposition writer.
type HistogramSnapshot struct {
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum"`
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// Merge adds o into s element-wise: merging every shard's snapshot
// equals a single histogram having recorded all their samples.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper bound on the q-quantile (0 ≤ q ≤ 1) by
// walking the cumulative buckets — the standard le-bucket estimate:
// the answer is the upper bound of the bucket the quantile falls in,
// so it is exact to within one log₂ bucket.
func (s HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var cum uint64
	for i, b := range s.Buckets {
		cum += b
		if cum > rank {
			return UpperBound(i)
		}
	}
	return UpperBound(NumBuckets - 1)
}
