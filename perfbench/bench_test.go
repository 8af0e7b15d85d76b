package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the subset of BENCHMARK.json the self-test checks the
// output against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// buildDaemon compiles multihitd from the parent module.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "multihitd")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/multihitd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building multihitd: %v\n%s", err, out)
	}
	return bin
}

// Self-test run lengths.
const (
	tinySeconds = 700 * time.Millisecond
	tinyWarmup  = 200 * time.Millisecond
)

// tinyRun runs one workload at self-test sizes and returns its exit code,
// its stdout, and the decoded final line.
func tinyRun(t *testing.T, daemon, workload string, trace, corrupt bool) (int, string, outcome) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := &config{
		workload: workload, seed: 7, seconds: tinySeconds, warmup: tinyWarmup, trace: trace,
		daemon: daemon, work: t.TempDir(), tiny: true, nproc: 2, setups: 2,
		stdout: &stdout, stderr: &stderr, corruptReference: corrupt,
	}
	code := run(context.Background(), cfg)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, err, stdout.String(), stderr.String())
	}
	return code, stdout.String(), out
}

// TestTinyWorkloads runs every workload of BENCHMARK.json untraced and
// traced, and requires every named metric to be printed with its unit
// and every phase to send the job count its length fixes.
func TestTinyWorkloads(t *testing.T) {
	bf := loadBenchmarkFile(t)
	daemon := buildDaemon(t)
	for _, w := range bf.Workloads {
		wl, err := lookupWorkload(w.Name, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			code, stdout, out := tinyRun(t, daemon, w.Name, trace, false)
			if code != 0 || !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: exit %d, result %+v", w.Name, trace, code, out)
			}
			phases := 1
			if trace {
				phases = 2 // the untraced and the traced phase
			}
			if want := phases * (wl.count(tinyWarmup) + wl.count(tinySeconds)); out.Attempted != want {
				t.Errorf("%s trace=%v: %d jobs attempted, want %d", w.Name, trace, out.Attempted, want)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the result, BENCHMARK.json names %d", w.Name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(stdout, "metric "+m.Name+" ") {
					t.Errorf("%s trace=%v: metric %s not printed", w.Name, trace, m.Name)
				}
			}
			if !trace && w.Name == "serve_mix" {
				for _, name := range []string{"cached_latency_p50_s", "slo_ok_frac", "loadgen.late_p99_s", "loadgen.peak_inflight"} {
					if !strings.Contains(stdout, "metric "+name+" ") {
						t.Errorf("serve_mix: metric %s not printed", name)
					}
				}
			}
		}
	}
}

// TestGateTripsOnCorruptedReference perturbs one F score of every
// reference and requires the run to be reported incorrect.
func TestGateTripsOnCorruptedReference(t *testing.T) {
	daemon := buildDaemon(t)
	code, _, out := tinyRun(t, daemon, "brca4_dense", false, true)
	if code == 0 || out.Correct || out.Failed == 0 {
		t.Fatalf("corrupted reference passed the gate: exit %d, result %+v", code, out)
	}
}

// TestResidualCountsUncoveredTime builds one job whose layer spans leave
// two gaps under the grouping spans ("job", "client.watch") and requires
// its residual to be exactly their length.
func TestResidualCountsUncoveredTime(t *testing.T) {
	tr := &tracer{}
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	root := tr.add("job", 0, "j", at(0), at(100))
	tr.add("loadgen.late", root, "j", at(0), at(2))
	tr.add("client.submit", root, "j", at(1), at(10))
	watch := tr.add("client.watch", root, "j", at(10), at(95))
	tr.add("loadgen.watch_wait", watch, "j", at(10), at(12))
	tr.add("service.queue_wait", watch, "j", at(8), at(20))
	run := tr.add("service.run", watch, "j", at(20), at(60))
	tr.add("harness.elapsed", run, "j", at(25), at(58))
	tr.add("service.notify", watch, "j", at(70), at(90)) // 60–70 uncovered
	tr.add("client.get", root, "j", at(95), at(100))     // 90–95 uncovered
	// A cache hit never reaches service.run and has no residual.
	tr.add("job", 0, "hit", at(0), at(5))
	got := residuals(tr)
	if len(got) != 1 || math.Abs(got[0]-0.015) > 1e-12 {
		t.Fatalf("residuals = %v, want [0.015]", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 0}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}
