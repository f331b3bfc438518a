package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func smokeConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload: workload, seed: 7, dur: 800 * time.Millisecond, trace: trace,
		workdir: t.TempDir(), smoke: true,
	}
}

// TestSmokeEmitsEveryMetric runs every workload at smoke size, timed
// and traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json names, each with its unit, and that every
// output was correct.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	// Untraced runs first: a traced run leaves the process-wide stage
	// timing switched on, which an untraced run refuses (outside this
	// test every invocation is its own process).
	for _, trace := range []bool{false, true} {
		for _, w := range sp.Workloads {
			def, ok := findWorkload(w.Name)
			if !ok {
				t.Fatalf("workload %s in BENCHMARK.json is unknown", w.Name)
			}
			if w.Why != def.why {
				t.Errorf("workload %s: BENCHMARK.json gives another reason than the benchmark", w.Name)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			rep, _, err := run(smokeConfig(t, w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var buf bytes.Buffer
			printReport(&buf, rep, nil)
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, out.Correct, out.Attempted, out.Failed)
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(out.Metrics), len(want))
			}
			if !trace {
				for _, m := range want {
					if out.Metrics[m.Name].Value == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
					}
				}
			}
		}
	}
}

// TestCorruptedReadCaught flips a bit in every store read once the
// measured window opens and checks that the run reports wrong data
// instead of a slow read.
func TestCorruptedReadCaught(t *testing.T) {
	rc := smokeConfig(t, "bulk-rw", true)
	rc.corrupt = true
	rep, _, err := run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed == 0 {
		t.Fatalf("corrupted reads passed: correct=%v failed=%d", rep.Correct, rep.Failed)
	}
}

func TestPercentilesByNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {0.991, 100}, {0.001, 1}} {
		if got := rank(s, c.q); got != c.want {
			t.Errorf("rank(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	// 1000 samples leave exactly 10 beyond p99; 999 leave only 9.
	if q := tailQuantile(1000); q != 0.99 {
		t.Errorf("tailQuantile(1000) = %v, want 0.99", q)
	}
	if q := tailQuantile(999); q != 0.95 {
		t.Errorf("tailQuantile(999) = %v, want 0.95", q)
	}
}

func TestWrongDataIsAFailure(t *testing.T) {
	o := newOutcome()
	o.fail(errors.New("refused"))
	o.fail(errWrongData)
	if o.failed != 2 || o.wrong != 1 {
		t.Fatalf("failed=%d wrong=%d, want 2 and 1", o.failed, o.wrong)
	}
}
