// Command perfbench is the repository benchmark: it runs one named
// workload against a complete SFS deployment — disk store, server
// master, auth server, client daemons and agents, composed from the
// daemons' public functions — on raw loopback TCP with encryption on,
// checks every output, and prints its metrics.
//
//	go run . --workload small-files --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones every workload reports (set-up time, the
// geometric mean of each kind of operation's median latency, CPU time
// per operation, peak heap);
// the lines before it give each workload's own figures with their
// sample counts. With --trace 1 the run is split: an untraced half,
// then a traced half on a fresh deployment with the forwarding
// wrappers and the stage tracer on, and the metrics are the per-layer
// table, including the tracing overhead (traced minus untraced) and
// the gap between the benchmark's outside timings and the stage
// tracer's sums. The traced half's spans are written to the work
// directory.
//
// Store directories, span files and the built binary live in the work
// directory, inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/stats"
)

// workloadDef is one named workload with the reason it exists.
type workloadDef struct {
	name string
	why  string
	run  func(phase) (*outcome, error)
}

var workloads = []workloadDef{
	{"bulk-rw", "streams a file 8x the server hot budget through write-behind and readahead: per-byte layers (seal/open, xdr, framing, WAL appends, pager) dominate", runBulk},
	{"small-files", "two closed-loop clients over a cache-resident file set: per-op layers (nfs dispatch, vfs locks, WAL group commit, client caches, leases) dominate", runSmall},
	{"login-storm", "open-loop sessions at a fifth of capacity: key management (Rabin, resumption, agent, authserv) is on the critical path and storage does nothing", runLogin},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// report is one invocation's result.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]stat // the result line's metrics
	// own is the workload's own end-to-end figures, printed before
	// the result line.
	own map[string]stat
}

// metricOut is a metric as the result line prints it.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var rc runConfig
	var seconds float64
	var trace int
	flag.StringVar(&rc.workload, "workload", "", "workload name: bulk-rw, small-files or login-storm")
	flag.Int64Var(&rc.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer pass")
	flag.StringVar(&rc.workdir, "workdir", ".bench_build", "work directory for stores and span files")
	flag.Parse()
	rc.dur = time.Duration(seconds * float64(time.Second))
	rc.trace = trace == 1
	if _, ok := findWorkload(rc.workload); !ok || rc.dur <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <bulk-rw|small-files|login-storm> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	rep, detail, err := run(rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, rep, detail)
}

// run executes one invocation and returns the result line and the
// detail document printed before it.
func run(rc runConfig) (*report, map[string]any, error) {
	w, _ := findWorkload(rc.workload)
	if err := os.MkdirAll(rc.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	detail := map[string]any{
		"workload": map[string]string{"name": w.name, "why": w.why},
		"meta":     runMeta(rc),
	}
	if !rc.trace {
		if stats.StageTimingOn() {
			return nil, nil, fmt.Errorf("stage timing is on in an untraced run")
		}
		o, err := w.run(phase{rc: rc, name: "timed", dur: rc.dur, setups: setupReps(rc)})
		if err != nil {
			return nil, nil, err
		}
		noteErrors(detail, o)
		detail["end_to_end"] = o.e2e
		detail["workload_metrics"] = o.detail
		detail["whole_window"] = o.whole
		detail["sub_windows"] = o.subs
		return o.report(o.e2e), detail, nil
	}

	u, err := w.run(phase{rc: rc, name: "untraced", dur: rc.dur / 2, setups: 1})
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	t, err := w.run(phase{rc: rc, name: "traced", dur: rc.dur / 2, rec: rec, setups: 1})
	if err != nil {
		return nil, nil, err
	}
	noteErrors(detail, u)
	noteErrors(detail, t)
	layers := t.layers
	for _, m := range []struct {
		name string
		u, t stat
	}{
		{"ops_per_s", u.whole["ops_per_s"], t.whole["ops_per_s"]},
		{"p50_geomean_us", u.e2e["p50_geomean_us"], t.e2e["p50_geomean_us"]},
		{"cpu_us_per_op", u.e2e["cpu_us_per_op"], t.e2e["cpu_us_per_op"]},
	} {
		layers["trace.overhead_"+m.name+"_ratio"] = stat{Value: ratio(m.t.Value-m.u.Value, m.u.Value), Unit: "ratio", N: m.t.N}
	}
	layers["error_ratio"] = t.detail["error_ratio"]
	spanFile := filepath.Join(rc.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
	if err := rec.writeFile(spanFile); err != nil {
		return nil, nil, err
	}
	detail["untraced_end_to_end"] = u.e2e
	detail["traced_end_to_end"] = t.e2e
	detail["traced_workload_metrics"] = t.detail
	detail["span_file"] = spanFile
	rep := t.report(layers)
	rep.Correct = rep.Correct && u.wrong == 0
	rep.Attempted += u.attempted
	rep.Failed += u.failed
	return rep, detail, nil
}

// setupReps is how many set-ups a timed run makes for setup_s.
func setupReps(rc runConfig) int {
	if rc.smoke {
		return 2
	}
	return 7
}

// noteErrors adds error_ratio — failed, refused or wrong operations
// over attempted ones — to o's figures, and its first failure to the
// detail.
func noteErrors(detail map[string]any, o *outcome) {
	o.detail["error_ratio"] = stat{Value: ratio(float64(o.failed), float64(o.attempted)), Unit: "ratio", N: o.attempted}
	if o.firstErr != nil && detail["first_error"] == nil {
		detail["first_error"] = o.firstErr.Error()
	}
}

func (o *outcome) report(metrics map[string]stat) *report {
	return &report{Correct: o.wrong == 0 && o.attempted > 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics, own: o.detail}
}

// printReport writes readable tables of the result's metrics and the
// workload's own, the detail document as one JSON line, and the result
// line last.
func printReport(f io.Writer, rep *report, detail map[string]any) {
	for _, set := range []map[string]stat{rep.Metrics, rep.own} {
		for _, k := range sortedKeys(set) {
			m := set[k]
			fmt.Fprintf(f, "# %-40s %14.4f %-8s n=%d\n", k, m.Value, m.Unit, m.N)
		}
		fmt.Fprintln(f, "#")
	}
	if b, err := json.Marshal(detail); err == nil {
		fmt.Fprintf(f, "%s\n", b)
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metricOut{}}
	for k, m := range rep.Metrics {
		out.Metrics[k] = metricOut{Value: m.Value, Unit: m.Unit}
	}
	b, _ := json.Marshal(out)
	fmt.Fprintf(f, "%s\n", b)
}
