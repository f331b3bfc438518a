package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	workdir  string // work directory inside the checkout
	smoke    bool   // self-test sizes
	corrupt  bool   // self-test: corrupt store reads once the window opens (traced runs)
}

// phase is one measured pass over a fresh deployment.
type phase struct {
	rc     runConfig
	name   string // distinguishes store directories
	dur    time.Duration
	rec    *recorder // nil: untraced, wrappers off
	setups int       // set-ups timed for setup_s
}

// outcome is what one phase measured.
type outcome struct {
	e2e       map[string]stat // the gated end-to-end metrics
	detail    map[string]stat // the workload's own end-to-end metrics
	whole     map[string]stat // whole-window figures, for reference
	layers    map[string]stat // per-layer table, traced phase only
	subs      []subWindow     // the end-to-end figures' sub-windows
	attempted int
	failed    int // failed, refused or wrong
	wrong     int // wrong data among failed
	firstErr  error
}

func newOutcome() *outcome { return &outcome{detail: map[string]stat{}, whole: map[string]stat{}} }

// fail counts a failed operation, and a wrong-data one separately.
func (o *outcome) fail(err error) {
	o.failed++
	if errors.Is(err, errWrongData) {
		o.wrong++
	}
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// measureSetup builds reps times, timing each build, and tears down
// all but the last. It reports the median build time.
func measureSetup(reps int, build func(i int) (closeFn func() error, err error)) (stat, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		closeFn, err := build(i)
		if err != nil {
			return stat{}, fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
		if i < reps-1 {
			if err := closeFn(); err != nil {
				return stat{}, fmt.Errorf("tear-down: %w", err)
			}
		}
	}
	return stat{Value: medianFloat(ts), Unit: "s", N: reps}, nil
}

// setupFileStack is the set-up of the file workloads: open the store,
// boot the server with keys from the key seed, start the first client
// daemon and complete its first mount and login (a GETATTR of the
// root as the user). More client daemons start untimed.
func setupFileStack(ph phase, i int, hotBytes, ckptBytes uint64, clients int) (*deployment, []*client.Client, error) {
	d, err := deploy(deployConfig{
		dir:      storeDir(ph, i),
		hotBytes: hotBytes, ckptBytes: ckptBytes, users: 1,
		rec: ph.rec, corrupt: ph.rc.corrupt,
	})
	if err != nil {
		return nil, nil, err
	}
	cls := make([]*client.Client, 0, clients)
	for c := 0; c < clients; c++ {
		cl, err := d.newClient(fmt.Sprintf("client%d", c), d.users[0])
		if err == nil && c == 0 {
			_, err = cl.Stat(d.users[0].name, d.root())
		}
		if err != nil {
			d.close()
			return nil, nil, err
		}
		cls = append(cls, cl)
	}
	return d, cls, nil
}

func storeDir(ph phase, i int) string {
	return filepath.Join(ph.rc.workdir, fmt.Sprintf("store-%d-%s-%d", os.Getpid(), ph.name, i))
}

// window brackets the measured part of a phase: counter snapshots at
// both ends and, in between, a sampler of the process heap, the
// process CPU time and the host's CPU steal.
type window struct {
	d    *deployment
	cls  []*client.Client
	a, b snapshot // at open and close
	t0   time.Time
	stop chan struct{}
	done chan struct{}
	// host is written by the sampler goroutine until done closes.
	host []hostSample
}

// hostSample is one reading of the sampler.
type hostSample struct {
	at           time.Time
	heap         uint64 // heap in use, bytes
	cpuNS        int64  // process user+system CPU time
	steal, total uint64 // host CPU time stolen by the hypervisor, and all
}

func openWindow(d *deployment, cls ...*client.Client) *window {
	w := &window{d: d, cls: cls, stop: make(chan struct{}), done: make(chan struct{})}
	w.a = takeSnapshot(d, cls)
	if d.cfg.corrupt && d.traced != nil {
		d.traced.corrupt.Store(true)
	}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			h := hostSample{at: time.Now(), heap: heapInUse(), cpuNS: cpuTime()}
			h.steal, h.total = hostSteal()
			w.host = append(w.host, h)
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	w.t0 = time.Now()
	return w
}

// close ends the window and returns the closing snapshot.
func (w *window) close() snapshot {
	close(w.stop)
	<-w.done
	w.b = takeSnapshot(w.d, w.cls)
	return w.b
}

// at returns the last sample taken at or before t (the first sample
// when none was).
func (w *window) at(t time.Time) hostSample {
	i := sort.Search(len(w.host), func(i int) bool { return w.host[i].at.After(t) })
	return w.host[max(i-1, 0)]
}

var heapSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/memory/classes/heap/unused:bytes"},
}

// heapInUse reads the heap in use (objects plus free space inside
// in-use spans) without stopping the world.
func heapInUse() uint64 {
	metrics.Read(heapSamples)
	var n uint64
	for _, s := range heapSamples {
		if s.Value.Kind() == metrics.KindUint64 {
			n += s.Value.Uint64()
		}
	}
	return n
}

// hostSteal reads the host's cumulative CPU steal and total CPU time,
// in clock ticks, from the kernel's CPU accounting; zeros when the
// kernel does not expose it.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// quietShare is the share of sub-windows the gated figures are taken
// over: those with the least host CPU steal. Half rather than fewer:
// run to run, the host's speed varies more than the steal between
// sub-windows of one run, and a median over more sub-windows spreads
// less.
const quietShare = 0.5

// subWindow is one sub-window of the end-to-end figures.
type subWindow struct {
	Steal    float64   `json:"steal"`     // share of host CPU time stolen
	Rate     float64   `json:"ops_per_s"` // operations completed per second
	Lat      float64   `json:"p50_geomean_us"`
	ClassP50 []float64 `json:"class_p50_us"` // each class's median, in endToEnd's order
	CPU      float64   `json:"cpu_us_per_op"`
	MB       float64   `json:"heap_peak_mb"`
	N        int       `json:"n"`
}

// endToEnd builds the gated metrics every workload reports: the
// typical latency the application saw, the CPU time the process — the
// daemons and the benchmark's own generator — spent per operation, and
// the peak heap in use. Each class is one kind of operation
// (small-files' reads, writes, stats, ...; bulk-rw's writes and reads;
// login-storm's resumed, full and anonymous sessions), given as the
// sample sets that hold it. The latency is the
// geometric mean of the classes' medians, not the median of all
// operations: where kinds of very different cost mix, the overall
// median falls in the sparse gap between their modes and a shift of a
// few percent in the mix moves it by half (small-files' median over
// all ops jumps from 23 to 49 us between its 45th and 50th
// percentiles), while each class's median sits inside a mode. A class
// that gets slower by a share moves the figure by that share over the
// number of classes.
//
// The window is cut into sub-windows at bounds. On a shared host the
// hypervisor steals CPU in bursts, and a sub-window with a tenth of the
// CPU stolen ran this code 30% (small-files) to 100% (login-storm)
// slower, so the latency is the median over the half of the
// sub-windows with the least steal: what moves with the code, while a
// regression moves every sub-window. Where the kernel does not report
// steal, every sub-window counts alike. Stolen time is not charged to
// the process, so the CPU time per operation is the median over every
// sub-window: over ten runs of the same code its spread (IQR over
// median) was 0.07 on small-files and 0.04 on login-storm, against
// 0.10 and 0.07 for the median over the quieter half. The heap, which
// steal does not move, is the median sub-window peak. Throughput and
// tail latency are reported but not gated: over ten runs of the same
// code bulk-rw's throughput spread by 30% and login-storm's p99 by 35%
// as the host's steal swung between 0 and 30%. They go with the other
// whole-window figures into o.whole.
func endToEnd(o *outcome, setup stat, bounds []time.Time, w *window, classes ...[]*samples) {
	perClass := make([][][]int64, len(classes))
	var sets []*samples
	for c, cl := range classes {
		perClass[c] = split(bounds, cl...)
		sets = append(sets, cl...)
	}
	subs := make([]subWindow, len(bounds)-1)
	for i := range subs {
		a, b := w.at(bounds[i]), w.at(bounds[i+1])
		var peak uint64
		for _, h := range w.host {
			if !h.at.Before(bounds[i]) && h.at.Before(bounds[i+1]) {
				peak = max(peak, h.heap)
			}
		}
		var meds []int64
		s := &subs[i]
		for _, wins := range perClass {
			s.N += len(wins[i])
			if len(wins[i]) > 0 {
				meds = append(meds, rank(wins[i], 0.5))
			}
			s.ClassP50 = append(s.ClassP50, scaleNS(rank(wins[i], 0.5), "us"))
		}
		s.Steal = ratio(float64(b.steal-a.steal), float64(b.total-a.total))
		s.Rate = float64(s.N) / bounds[i+1].Sub(bounds[i]).Seconds()
		s.Lat = geoMean(meds) / 1e3
		s.CPU = ratio(float64(b.cpuNS-a.cpuNS)/1e3, float64(s.N))
		s.MB = float64(peak) / 1e6
	}
	o.subs = subs
	var peaks, cpus []float64
	for _, s := range subs {
		peaks = append(peaks, s.MB)
		cpus = append(cpus, s.CPU)
	}
	quiet := append([]subWindow(nil), subs...)
	sort.SliceStable(quiet, func(i, j int) bool { return quiet[i].Steal < quiet[j].Steal })
	quiet = quiet[:max(int(float64(len(quiet))*quietShare), 1)]
	var rates, lats, steals []float64
	n := 0
	for _, s := range quiet {
		rates = append(rates, s.Rate)
		lats = append(lats, s.Lat)
		steals = append(steals, s.Steal)
		n += s.N
	}

	all := merged(sets...)
	first, last := w.at(bounds[0]), w.at(bounds[len(bounds)-1])
	o.whole["ops_per_s"] = stat{Value: ratio(float64(len(all)), bounds[len(bounds)-1].Sub(bounds[0]).Seconds()), Unit: "1/s", N: len(all)}
	o.whole["p50_us"] = quantileStat(all, 0.5, "us")
	o.whole["p99_us"] = quantileStat(all, 0.99, "us")
	q := tailQuantile(len(all))
	o.whole[fmt.Sprintf("p%g_us", q*100)] = quantileStat(all, q, "us")
	o.whole["sub_windows"] = stat{Value: float64(len(subs)), Unit: "count", N: len(subs)}
	o.whole["host_steal"] = stat{Value: ratio(float64(last.steal-first.steal), float64(last.total-first.total)), Unit: "ratio", N: len(subs)}
	o.whole["quiet_host_steal"] = stat{Value: medianFloat(steals), Unit: "ratio", N: len(quiet)}
	o.whole["quiet_ops_per_s"] = stat{Value: medianFloat(rates), Unit: "1/s", N: n}
	o.whole["cpu_us_per_op"] = stat{Value: ratio(float64(last.cpuNS-first.cpuNS)/1e3, float64(len(all))), Unit: "us", N: len(all)}
	o.e2e = map[string]stat{
		"setup_s":        setup,
		"p50_geomean_us": {Value: medianFloat(lats), Unit: "us", N: n},
		"cpu_us_per_op":  {Value: medianFloat(cpus), Unit: "us", N: len(all)},
		"heap_peak_mb":   {Value: medianFloat(peaks), Unit: "MB", N: len(peaks)},
	}
	o.detail["setup_s"] = o.e2e["setup_s"]
	o.detail["heap_peak_mb"] = o.e2e["heap_peak_mb"]
}
