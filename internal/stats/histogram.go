package stats

import (
	"math"
	"math/bits"
	"time"
)

// NumBuckets is the number of log₂ buckets in a Histogram. Bucket 0
// holds the value 0; bucket i (i ≥ 1) holds values in
// [2^(i-1), 2^i-1]; the last bucket additionally absorbs everything
// above its lower bound.
const NumBuckets = 64

// Histogram is a log₂-bucketed distribution. Observe is a pair of
// atomic adds — no locks, no allocations — so it can sit on the RPC
// dispatch path. Units are the caller's choice; the repo's latency
// histograms use microseconds (ObserveDuration).
type Histogram struct {
	count   Counter
	sum     Counter
	buckets [NumBuckets]Counter
}

// BucketOf returns the bucket index Observe(v) lands in.
func BucketOf(v uint64) int {
	b := bits.Len64(v) // 0 for 0, i for [2^(i-1), 2^i-1]
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// BucketBounds returns the inclusive [lo, hi] range of bucket i.
func BucketBounds(i int) (lo, hi uint64) {
	if i <= 0 {
		return 0, 0
	}
	lo = 1 << (i - 1)
	if i == NumBuckets-1 {
		return lo, ^uint64(0)
	}
	return lo, 1<<i - 1
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[BucketOf(v)].Inc()
	h.count.Inc()
	h.sum.Add(v)
}

// ObserveDuration records a duration in microseconds; negative
// durations clamp to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.Observe(uint64(us))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Reset zeroes the histogram. Not atomic with respect to concurrent
// Observes; only reset paths (test scoping) should use it.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Bucket is one populated histogram bucket in a snapshot.
type Bucket struct {
	Lo    uint64 `json:"lo"`
	Hi    uint64 `json:"hi"`
	Count uint64 `json:"count"`
}

// HistSnapshot is the JSON form of a Histogram: totals plus only the
// populated buckets. Taken while writers are active it is a
// consistent-enough view (each field is atomically read; cross-field
// skew is bounded by in-flight observations).
type HistSnapshot struct {
	Count uint64  `json:"count"`
	Sum   uint64  `json:"sum"`
	Mean  float64 `json:"mean,omitempty"`
	// Derived quantiles (upper bound of the log₂ bucket where the
	// cumulative count crosses the mark), so humans and dashboards read
	// latency without post-processing the bucket dump.
	P50     uint64   `json:"p50,omitempty"`
	P95     uint64   `json:"p95,omitempty"`
	P99     uint64   `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			lo, hi := BucketBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, Count: n})
		}
	}
	s.P50, s.P95, s.P99 = s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the snapshot's
// buckets, returning the upper bound of the bucket holding the
// nearest-rank sample, rank ceil(q·N). Zero if the snapshot is empty.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	// The epsilon keeps float error in q·N (0.07·100 = 7.000000000000001)
	// from pushing an exact rank up by one.
	target := uint64(math.Ceil(q*float64(s.Count) - 1e-9))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= target {
			return b.Hi
		}
	}
	return s.Buckets[len(s.Buckets)-1].Hi
}
