// Command perfbench is the repository benchmark: it drives the real
// multihitd daemon over loopback with one of three workloads, checks
// every result against an in-process reference, and prints each metric
// with its unit, ending with one JSON line.
//
//	bash perfbench/run.sh --workload brca4_dense --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: the same load with spans around every client call, then the
// layers below the daemon replayed in process with spans around each
// module's public entry points; it reports the per-layer metrics and
// writes the spans and a self-time table under the work directory.
// LAYERS.md lists which end-to-end metric each layer metric should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	warmup   time.Duration // unmeasured load before each measured window
	trace    bool
	daemon   string // multihitd binary
	work     string // directory for daemon data and trace output
	tiny     bool   // self-test sizes; set only by the self-test
	nproc    int
	setups   int // daemon starts timed for setup_s, per group of starts

	stdout, stderr io.Writer
	// corruptReference perturbs every reference result before the gate
	// compares; the self-test uses it to prove the gate trips.
	corruptReference bool
}

func main() {
	cfg := &config{stdout: os.Stdout, stderr: os.Stderr, nproc: runtime.NumCPU(), setups: 17}
	flag.StringVar(&cfg.workload, "workload", "", "workload: brca4_dense, acc4_sparse or serve_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the job specs are a function of it")
	seconds := flag.Float64("seconds", 15, "length of the measured load phase")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&cfg.daemon, "daemon", "", "multihitd binary")
	flag.StringVar(&cfg.work, "work", "", "directory for daemon data dirs and trace files")
	flag.Parse()
	cfg.seconds = time.Duration(*seconds * float64(time.Second))
	// A freshly started daemon serves its first seconds slower (small
	// heap, cold connections); users meet a warm one.
	cfg.warmup = 5 * time.Second
	cfg.trace = *traced == 1
	if cfg.daemon == "" || cfg.work == "" || cfg.seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -daemon and -work are required, -seconds must be positive and -trace 0 or 1 (use perfbench/run.sh)")
		os.Exit(2)
	}
	os.Exit(run(context.Background(), cfg))
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // extra context printed beside the value
}

// gatedEndToEnd are the end-to-end metrics of BENCHMARK.json, the ones
// the final JSON line carries with --trace 0. The wall-clock throughput
// and latency metrics are printed above it but not gated: on a shared
// virtual machine they drift by more than any allowed bound between runs
// a minute apart (LAYERS.md, "Noise").
var gatedEndToEnd = []string{"setup_s", "cpu_s_per_job", "peak_rss_mb"}

// outcome is the final JSON line.
type outcome struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]outcomeMetric `json:"metrics"`
}

type outcomeMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, cfg *config) int {
	w, err := lookupWorkload(cfg.workload, cfg.tiny)
	if err != nil {
		fmt.Fprintln(cfg.stderr, "perfbench:", err)
		return 2
	}
	runDir := filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-%d-%d", w.name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	fmt.Fprintf(cfg.stdout, "perfbench: workload %s seed %d seconds %g trace %v\n", w.name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)
	prov := provenance(cfg, w)
	fmt.Fprintf(cfg.stdout, "provenance %s\n", prov)

	metrics, verdict, err := measure(ctx, cfg, w, runDir, prov)
	if err != nil {
		fmt.Fprintln(cfg.stderr, "perfbench:", err)
		return 1
	}
	out := outcome{Correct: verdict.correct, Attempted: verdict.attempted, Failed: verdict.failed, Metrics: map[string]outcomeMetric{}}
	printMetrics(cfg.stdout, metrics)
	want := gatedEndToEnd
	if cfg.trace {
		want = perLayerNames
	}
	byName := map[string]metric{}
	for _, m := range metrics {
		byName[m.name] = m
	}
	for _, name := range want {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(cfg.stderr, "perfbench: metric %s was not measured (too few samples)\n", name)
			return 1
		}
		out.Metrics[name] = outcomeMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(cfg.stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(cfg.stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// printMetrics writes one line per metric; a metric without samples
// reads "n/a".
func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		if math.IsNaN(m.value) {
			fmt.Fprintf(w, "metric %-26s %14s %-6s %s\n", m.name, "n/a", m.unit, "no samples")
			continue
		}
		fmt.Fprintf(w, "metric %-26s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// verdict is the correctness gate's tally.
type verdict struct {
	correct           bool
	attempted, failed int
}

// measure runs the set-up timing, the load phase(s), the reference runs
// and the gate, and returns the metrics of the run's kind.
func measure(ctx context.Context, cfg *config, w workload, runDir, prov string) ([]metric, verdict, error) {
	// An untraced run times three groups of daemon starts: before the
	// load, after it, and after the reference runs. The daemon's start-up
	// time drifted by tens of percent between stretches a few seconds
	// apart on the VM the benchmark was built on, far more than within
	// one group, so the groups sample the run's whole span.
	var setups []float64
	timeSetups := func() error {
		if cfg.trace {
			return nil // the traced run does not report setup_s
		}
		syscall.Sync()
		for i := 0; i < cfg.setups; i++ {
			d, err := startDaemon(ctx, cfg.daemon, filepath.Join(runDir, fmt.Sprintf("setup-%d", len(setups))), cfg.nproc)
			if err != nil {
				return err
			}
			setups = append(setups, d.setup.Seconds())
			d.stop()
		}
		return nil
	}

	if err := timeSetups(); err != nil {
		return nil, verdict{}, err
	}
	phase, err := runPhase(ctx, cfg, w, filepath.Join(runDir, "load"), nil)
	if err != nil {
		return nil, verdict{}, err
	}
	if err := timeSetups(); err != nil {
		return nil, verdict{}, err
	}
	phases := []*phaseResult{phase}
	var tr *tracer
	var traced *phaseResult
	if cfg.trace {
		tr = &tracer{}
		if traced, err = runPhase(ctx, cfg, w, filepath.Join(runDir, "traced"), tr); err != nil {
			return nil, verdict{}, err
		}
		phases = append(phases, traced)
	}

	refs, order, err := references(ctx, cfg, phases, tr, filepath.Join(runDir, "ckpt"))
	if err != nil {
		return nil, verdict{}, err
	}
	v := gate(cfg, phases, refs)

	if !cfg.trace {
		if err := timeSetups(); err != nil {
			return nil, verdict{}, err
		}
		return endToEnd(w, setups, phase), v, nil
	}
	lm, err := layerMetrics(ctx, cfg, w, phase, traced, tr, refs, order, runDir)
	if err != nil {
		return nil, verdict{}, err
	}
	dir := filepath.Join(cfg.work, "trace", fmt.Sprintf("%s-seed%d", w.name, cfg.seed))
	err = tr.writeFiles(dir, func(f io.Writer) {
		fmt.Fprintf(f, "\nprovenance %s\n\n", prov)
		printMetrics(f, lm)
	})
	if err != nil {
		return nil, verdict{}, fmt.Errorf("writing trace files: %w", err)
	}
	writeTable(cfg.stdout, tr.table())
	fmt.Fprintf(cfg.stdout, "trace files: %s/{spans.jsonl,layers.txt}\n", dir)
	return lm, v, nil
}

// references runs harness.Run in process once per distinct completed
// spec, outside every timed phase. It returns them by spec key and in
// first-completed order.
func references(ctx context.Context, cfg *config, phases []*phaseResult, tr *tracer, dir string) (map[string]*refRun, []string, error) {
	refs := map[string]*refRun{}
	var order []string
	for _, ph := range phases {
		for _, o := range ph.all() {
			if !o.ok() {
				continue
			}
			key := specKey(o.status.Spec)
			if refs[key] != nil {
				continue
			}
			rr, err := reference(ctx, o.status.Spec, tr, fmt.Sprintf("ref-%d", len(order)), dir)
			if err != nil {
				return nil, nil, fmt.Errorf("reference run: %w", err)
			}
			if cfg.corruptReference && len(rr.res.Steps) > 0 {
				rr.res.Steps[0].Combo.F = math.Nextafter(rr.res.Steps[0].Combo.F, math.Inf(1))
			}
			refs[key] = rr
			order = append(order, key)
		}
	}
	return refs, order, nil
}

// gate checks every job of every phase. A refused submission, a job that
// did not succeed, and a result that differs from its reference each
// count as one failed operation; only a differing result makes the run
// incorrect.
func gate(cfg *config, phases []*phaseResult, refs map[string]*refRun) verdict {
	v := verdict{correct: true}
	var problems []string
	for _, ph := range phases {
		for _, o := range ph.all() {
			v.attempted++
			switch {
			case o.err != nil:
				v.failed++
				problems = append(problems, o.err.Error())
			case !o.ok():
				v.failed++
				problems = append(problems, fmt.Sprintf("job %s ended %s", o.status.ID, o.status.State))
			default:
				if err := checkJob(o.status, refs[specKey(o.status.Spec)].res); err != nil {
					v.failed++
					v.correct = false
					problems = append(problems, "MISMATCH: "+err.Error())
				}
			}
		}
	}
	if v.attempted == 0 {
		v.correct = false
		problems = append(problems, "no job was attempted")
	}
	for i, p := range problems {
		if i == 10 {
			fmt.Fprintf(cfg.stderr, "perfbench: ... and %d more\n", len(problems)-i)
			break
		}
		fmt.Fprintln(cfg.stderr, "perfbench:", p)
	}
	return v
}

// latencies splits the completed jobs' submit-to-readable times (from
// when each was due) into fresh runs and result-cache hits.
func latencies(ph *phaseResult) (fresh, cached []float64) {
	for _, o := range ph.jobs {
		if !o.ok() {
			continue
		}
		if o.cached {
			cached = append(cached, o.latency().Seconds())
		} else {
			fresh = append(fresh, o.latency().Seconds())
		}
	}
	return fresh, cached
}

func completed(ph *phaseResult) int {
	n := 0
	for _, o := range ph.jobs {
		if o.ok() {
			n++
		}
	}
	return n
}

// endToEnd computes the user-visible metrics of one untraced phase.
func endToEnd(w workload, setups []float64, ph *phaseResult) []metric {
	fresh, cached := latencies(ph)
	done := completed(ph)
	ms := []metric{
		{name: "setup_s", value: median(setups), unit: "s", note: fmt.Sprintf("median of %d daemon starts", len(setups))},
		{name: "jobs_per_s", value: float64(done) / ph.end.Sub(ph.start).Seconds(), unit: "1/s", note: fmt.Sprintf("%d jobs", done)},
		{name: "latency_p50_s", value: median(fresh), unit: "s", note: fmt.Sprintf("n=%d", len(fresh))},
	}
	if p := tailPercentile(len(fresh)); p > 0 {
		ms = append(ms, metric{name: "latency_tail_s", value: quantile(fresh, p/100), unit: "s",
			note: fmt.Sprintf("p%g n=%d", p, len(fresh))})
	}
	if w.repeatFrac > 0 {
		ms = append(ms, metric{name: "cached_latency_p50_s", value: median(cached), unit: "s", note: fmt.Sprintf("n=%d", len(cached))})
	}
	if w.slo > 0 {
		ok := 0
		for _, o := range ph.jobs {
			if o.ok() && o.latency() <= w.slo {
				ok++
			}
		}
		ms = append(ms, metric{name: "slo_ok_frac", value: float64(ok) / float64(len(ph.jobs)), unit: "frac",
			note: fmt.Sprintf("limit %s, %d of %d submissions", w.slo, ok, len(ph.jobs))})
	}
	ms = append(ms,
		metric{name: "cpu_s_per_job", value: ph.cpuSeconds / float64(done), unit: "s"},
		metric{name: "peak_rss_mb", value: ph.peakRSSMB, unit: "MB"},
		metric{name: "loadgen.late_p99_s", value: quantile(lateness(ph), 0.99), unit: "s"},
		metric{name: "loadgen.peak_inflight", value: float64(ph.peakInflight), unit: "count"},
		metric{name: "host.steal_frac", value: ph.stealFrac, unit: "frac", note: "CPU time the hypervisor gave other guests"},
	)
	return ms
}

// lateness is how long after its due time each submission got its
// connection.
func lateness(ph *phaseResult) []float64 {
	var out []float64
	for _, o := range ph.jobs {
		if !o.sent.IsZero() {
			out = append(out, o.sent.Sub(o.due).Seconds())
		}
	}
	return out
}

// provenance describes the run: source, toolchain, machine, and the
// workload's parameters.
func provenance(cfg *config, w workload) string {
	p := map[string]any{
		"commit":        gitCommit(),
		"source_sha256": sourceDigest(),
		"go":            runtime.Version(),
		"nproc":         cfg.nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu":           cpuModel(),
		"workload":      w.name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds.Seconds(),
		"trace":         cfg.trace,
		"tiny":          cfg.tiny,
		"first_job":     w.spec(newRNG(cfg.seed), 0),
		"daemon_flags":  fmt.Sprintf("-workers %d", cfg.nproc),
		"max_conns":     cfg.nproc,
		"warmup_jobs":   w.count(cfg.warmup),
		"measured_jobs": w.count(cfg.seconds),
		"rate_per_s":    w.rate,
	}
	if w.openLoop {
		p["loop"] = "open"
		p["slo_s"] = w.slo.Seconds()
		p["repeat_frac"] = w.repeatFrac
		p["tenants"] = 4
		p["priorities"] = "batch 0.3, normal 0.5, urgent 0.2"
	} else {
		p["loop"] = "closed, 1 client"
	}
	b, err := json.Marshal(p)
	if err != nil {
		return fmt.Sprintf("{\"error\": %q}", err.Error())
	}
	return string(b)
}

// gitCommit reads HEAD without running git; a checkout that is not a
// repository reports "unknown" and relies on source_sha256.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(".git", ref))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(sha))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under the
// checkout, so a run names the code it measured even where no commit id
// is available.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
