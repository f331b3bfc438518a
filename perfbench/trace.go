package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// keepSpans bounds how many spans the traced run holds for the span
// file; the per-name aggregates always cover every span.
const keepSpans = 200000

// recorder keeps the traced run's spans in memory. A nil recorder is
// the untraced run: start returns a nil span and end does nothing.
type recorder struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	kept    []*span
	dropped int
	agg     map[string]*spanAgg
}

// span is one timed call into a layer, made from the benchmark's own
// files. parent is set where the benchmark knows the caller; spans on
// server goroutines (store, wire) have none.
type span struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Duration // since the recorder started
	Dur    time.Duration

	up      *span
	childNS atomic.Int64 // time covered by finished children
}

// spanAgg is one span name's totals: count, summed duration, and self
// time (duration minus the children the benchmark attributed).
type spanAgg struct {
	N      int64
	Total  time.Duration
	Self   time.Duration
	sorted []int64 // raw durations, for medians
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), agg: make(map[string]*spanAgg)}
}

func (r *recorder) start(name string, parent *span) *span {
	if r == nil {
		return nil
	}
	sp := &span{ID: r.nextID.Add(1), Name: name, Start: time.Since(r.t0), up: parent}
	if parent != nil {
		sp.Parent = parent.ID
	}
	return sp
}

func (r *recorder) end(sp *span) {
	if r == nil || sp == nil {
		return
	}
	sp.Dur = time.Since(r.t0) - sp.Start
	if sp.up != nil {
		sp.up.childNS.Add(int64(sp.Dur))
	}
	self := sp.Dur - time.Duration(sp.childNS.Load())
	r.mu.Lock()
	a := r.agg[sp.Name]
	if a == nil {
		a = &spanAgg{}
		r.agg[sp.Name] = a
	}
	a.N++
	a.Total += sp.Dur
	a.Self += self
	a.sorted = append(a.sorted, int64(sp.Dur))
	if len(r.kept) < keepSpans {
		r.kept = append(r.kept, sp)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent *span, f func() error) error {
	sp := r.start(name, parent)
	err := f()
	r.end(sp)
	return err
}

// median returns the median duration of name's spans in unit, with
// the span count.
func (r *recorder) median(name, unit string) stat {
	st := stat{Unit: unit}
	if r == nil {
		return st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	a := r.agg[name]
	if a == nil {
		return st
	}
	sort.Slice(a.sorted, func(i, j int) bool { return a.sorted[i] < a.sorted[j] })
	return quantileStat(a.sorted, 0.5, unit)
}

// writeFile writes the kept spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, sp := range r.kept {
		if err := enc.Encode(map[string]any{
			"id": sp.ID, "parent": sp.Parent, "name": sp.Name,
			"start_us": sp.Start.Microseconds(), "dur_us": float64(sp.Dur.Nanoseconds()) / 1e3,
		}); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	if r.dropped > 0 {
		_ = enc.Encode(map[string]any{"dropped_spans": r.dropped})
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotal is one span name's count, summed duration and self time.
type spanTotal struct {
	N           int64
	Total, Self time.Duration
}

// sums returns every span name's count and summed duration so far.
func (r *recorder) sums() map[string]spanTotal {
	out := map[string]spanTotal{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, a := range r.agg {
		out[name] = spanTotal{N: a.N, Total: a.Total, Self: a.Self}
	}
	return out
}
