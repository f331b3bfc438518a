package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects raw latencies of one operation class, with the
// time each operation completed. Percentiles are taken by nearest rank
// from the raw values, never from log₂ histogram buckets.
type samples struct {
	mu  sync.Mutex
	ns  []int64
	end []int64 // completion, Unix nanoseconds
}

func (s *samples) add(d time.Duration) {
	now := time.Now().UnixNano()
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.end = append(s.end, now)
	s.mu.Unlock()
}

// split sorts the samples of sets into sub-windows by completion
// time: window i holds those completing in [bounds[i], bounds[i+1]),
// the first and last windows also taking any before or after.
func split(bounds []time.Time, sets ...*samples) [][]int64 {
	out := make([][]int64, len(bounds)-1)
	for _, s := range sets {
		s.mu.Lock()
		for j, end := range s.end {
			i := sort.Search(len(bounds)-2, func(i int) bool { return end < bounds[i+1].UnixNano() })
			out[i] = append(out[i], s.ns[j])
		}
		s.mu.Unlock()
	}
	for _, w := range out {
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	}
	return out
}

// evenBounds cuts [t0, t0+dur) into windows of about every.
func evenBounds(t0 time.Time, dur, every time.Duration) []time.Time {
	k := int(dur / every)
	if k < 1 {
		k = 1
	}
	b := make([]time.Time, k+1)
	for i := range b {
		b[i] = t0.Add(dur * time.Duration(i) / time.Duration(k))
	}
	return b
}

// merged returns the sorted union of sets.
func merged(sets ...*samples) []int64 {
	var out []int64
	for _, s := range sets {
		s.mu.Lock()
		out = append(out, s.ns...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rank returns the q-quantile of sorted by nearest rank: the smallest
// value with at least a q share of the samples at or below it.
func rank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// tailQuantile is the highest of the standard tail percentiles that
// still has at least ten samples beyond it, so a tail figure is never
// a single outlier. It returns 0.5 when even the median does not.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q
		}
	}
	return 0.5
}

// stat is one reported figure with its unit and the number of samples
// behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// quantileStat reports the q-quantile of sorted in unit (us or ms).
func quantileStat(sorted []int64, q float64, unit string) stat {
	return stat{Value: scaleNS(rank(sorted, q), unit), Unit: unit, N: len(sorted)}
}

func scaleNS(ns int64, unit string) float64 {
	switch unit {
	case "us":
		return float64(ns) / 1e3
	case "ms":
		return float64(ns) / 1e6
	}
	return float64(ns)
}

// geoMean returns the geometric mean of vs, 0 for none.
func geoMean(vs []int64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += math.Log(float64(max(v, 1)))
	}
	return math.Exp(sum / float64(len(vs)))
}

// medianFloat returns the median of vs (the mean of the middle pair
// for an even count).
func medianFloat(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
