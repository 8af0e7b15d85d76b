package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/ckptstore"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/harness"
	"repro/internal/kernelize"
	"repro/internal/service"
	"repro/internal/sparsemat"
)

// refRun is the in-process harness.Run of one distinct spec: the
// correctness reference, and in a traced run the source of the harness,
// checkpoint and dataset layer numbers.
type refRun struct {
	spec   service.JobSpec
	cohort *dataset.Cohort
	opt    cover.Options
	res    *harness.Result

	generate, run time.Duration
	saves         []time.Duration
	partitions    int
	retries       int
}

// timingStore is a harness.Store that times every checkpoint publish of
// the wrapped ckptstore.
type timingStore struct {
	store  *ckptstore.Store
	tr     *tracer
	parent int64
	job    string
	saves  []time.Duration
}

func (s *timingStore) Save(payload []byte) (uint64, error) {
	start := time.Now()
	gen, err := s.store.Save(payload)
	end := time.Now()
	s.saves = append(s.saves, end.Sub(start))
	s.tr.add("ckptstore.save", s.parent, s.job, start, end)
	return gen, err
}

func (s *timingStore) Load() (*ckptstore.Snapshot, error) { return s.store.Load() }

// resolveOptions turns a daemon-echoed spec into the engine options the
// daemon ran it with.
func resolveOptions(spec service.JobSpec) (cover.Options, error) {
	opt, err := spec.Options.CoverOptions(spec.Cohort.Hits)
	if err != nil {
		return opt, err
	}
	return opt.Normalized()
}

// reference runs one spec in process. With a tracer it also checkpoints
// every step to a fresh store under dir, as the daemon does, and times
// each publish.
func reference(ctx context.Context, spec service.JobSpec, tr *tracer, job, dir string) (*refRun, error) {
	rr := &refRun{spec: spec}
	root, endRoot := tr.open("reference", 0, job)
	defer endRoot()

	start := time.Now()
	cohort, err := spec.Cohort.Generate()
	rr.generate = time.Since(start)
	tr.add("dataset.generate", root, job, start, start.Add(rr.generate))
	if err != nil {
		return nil, err
	}
	rr.cohort = cohort
	if rr.opt, err = resolveOptions(spec); err != nil {
		return nil, err
	}
	hopt := harness.Options{Cover: rr.opt}
	var mu sync.Mutex // harness callbacks are serialized but may switch goroutines
	hopt.OnProgress = func(p harness.Progress) {
		mu.Lock()
		if p.Done == p.Total {
			rr.partitions += p.Total
		}
		mu.Unlock()
	}
	hopt.OnEvent = func(e harness.Event) {
		mu.Lock()
		if e.Kind == harness.EventRetry {
			rr.retries++
		}
		mu.Unlock()
	}
	runID, endRun := tr.open("harness.run", root, job)
	var ts *timingStore
	if tr != nil {
		storeDir := filepath.Join(dir, job)
		defer os.RemoveAll(storeDir)
		store, err := ckptstore.Open(storeDir, ckptstore.Options{})
		if err != nil {
			endRun()
			return nil, err
		}
		ts = &timingStore{store: store, tr: tr, parent: runID, job: job}
		hopt.Store = ts
	}
	start = time.Now()
	rr.res, err = harness.Run(ctx, cohort.Tumor, cohort.Normal, hopt)
	rr.run = time.Since(start)
	endRun()
	if err != nil {
		return nil, err
	}
	if ts != nil {
		rr.saves = ts.saves
	}
	return rr, nil
}

// layerRun holds the traced run's per-spec replays of the layers below
// the daemon.
type layerRun struct {
	keptFrac    float64 // kernelize: surviving genes / genes
	reduce      time.Duration
	tumor       *bitmat.Matrix // the tumor matrix the engine scans
	sparse      bool           // engine auto resolved to sparse
	coverRun    time.Duration
	coverPasses uint64
	coverRes    *cover.Result
	harness     *refRun
}

// replayLayers runs kernelize.Reduce, engine resolution and cover.Run on
// one spec the reference already covered, so harness.Run and cover.Run
// are reported side by side on the same input.
func replayLayers(rr *refRun, tr *tracer, job string) (*layerRun, error) {
	lr := &layerRun{harness: rr}
	hits := rr.spec.Cohort.Hits
	root, endRoot := tr.open("layers", 0, job)
	defer endRoot()

	start := time.Now()
	k, err := kernelize.Reduce(rr.cohort.Tumor, rr.cohort.Normal, hits)
	lr.reduce = time.Since(start)
	tr.add("kernelize.reduce", root, job, start, start.Add(lr.reduce))
	if err != nil {
		return nil, err
	}
	lr.keptFrac = float64(len(k.Keep)) / float64(k.Genes)
	tumor, normal := scanned(rr, k)
	lr.tumor = tumor
	lr.sparse = cover.ResolveEngine(rr.opt, tumor, normal) == cover.EngineSparse

	start = time.Now()
	res, err := cover.Run(rr.cohort.Tumor, rr.cohort.Normal, rr.opt)
	lr.coverRun = time.Since(start)
	tr.add("cover.run", root, job, start, start.Add(lr.coverRun))
	if err != nil {
		return nil, err
	}
	lr.coverRes = res
	per, err := passSize(rr.spec)
	if err != nil {
		return nil, err
	}
	lr.coverPasses = (res.Evaluated + res.Pruned) / per
	return lr, nil
}

// scanned returns the matrices the engine scans for the spec: the kernel
// when the job kernelizes, the cohort otherwise.
func scanned(rr *refRun, k *kernelize.Kernel) (tumor, normal *bitmat.Matrix) {
	if rr.opt.Kernelize {
		return k.Tumor, k.Normal
	}
	return rr.cohort.Tumor, rr.cohort.Normal
}

// serviceSubmits times in-process Service.Submit — the daemon's submit
// path without HTTP: cohort generation, admission pricing, cache lookup
// and the spec fsync — waiting for each job before the next submit so
// the measurement does not share the CPU with a running scan.
func serviceSubmits(ctx context.Context, specs []service.JobSpec, workers int, dir string, tr *tracer) ([]time.Duration, error) {
	svc, err := service.Open(service.Config{DataDir: dir, JobWorkers: workers})
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = svc.Close()
		_ = os.RemoveAll(dir)
	}()
	var out []time.Duration
	for i, spec := range specs {
		job := fmt.Sprintf("svc-%d", i)
		start := time.Now()
		st, err := svc.Submit(spec)
		end := time.Now()
		tr.add("service.submit", 0, job, start, end)
		if err != nil {
			return nil, err
		}
		out = append(out, end.Sub(start))
		if _, err := svc.WaitJob(ctx, st.ID); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Microbenchmark sinks keep the compiler from dropping the timed calls.
var sinkInt int

// microBatches is how many timed batches a microbenchmark takes; it
// reports their median.
const microBatches = 7

// andPopNs times bitmat.AndWordsPop on pairs of the matrix's rows and
// returns the median nanoseconds per call.
func andPopNs(m *bitmat.Matrix, tr *tracer, budget time.Duration) float64 {
	g := m.Genes()
	dst := make([]uint64, m.Words())
	calls := 256
	var perCall []float64
	for b := 0; b < microBatches; b++ {
		start := time.Now()
		s := 0
		for i := 0; i < calls; i++ {
			s += bitmat.AndWordsPop(dst, m.Row(i%g), m.Row((i*7+1)%g))
		}
		d := time.Since(start)
		sinkInt += s
		tr.add("bitmat.andpop", 0, "micro", start, start.Add(d))
		perCall = append(perCall, float64(d.Nanoseconds())/float64(calls))
		if b == 0 {
			// Size the remaining batches to the budget.
			calls = max(calls, int(float64(calls)*float64(budget)/microBatches/float64(d+1)))
		}
	}
	return median(perCall)
}

// intersectNs times sparsemat.IntersectCount over pairs of non-empty
// rows and returns the median nanoseconds and the mean computed bytes
// (both lists' int32 entries) per call.
func intersectNs(m *bitmat.Matrix, tr *tracer, budget time.Duration) (ns, bytes float64) {
	sm := sparsemat.FromBitmat(m)
	var rows [][]int32
	for g := 0; g < sm.Genes() && len(rows) < 64; g++ {
		if r := sm.Row(g); len(r) > 0 {
			rows = append(rows, r)
		}
	}
	if len(rows) < 2 {
		return 0, 0
	}
	var pairBytes float64
	n := len(rows)
	for i := 0; i < n; i++ {
		pairBytes += float64(4 * (len(rows[i]) + len(rows[(i*7+1)%n])))
	}
	bytes = pairBytes / float64(n)
	calls := 256
	var perCall []float64
	for b := 0; b < microBatches; b++ {
		start := time.Now()
		s := 0
		for i := 0; i < calls; i++ {
			j := i % n
			s += sparsemat.IntersectCount(rows[j], rows[(j*7+1)%n])
		}
		d := time.Since(start)
		sinkInt += s
		tr.add("sparsemat.intersect", 0, "micro", start, start.Add(d))
		perCall = append(perCall, float64(d.Nanoseconds())/float64(calls))
		if b == 0 {
			calls = max(calls, int(float64(calls)*float64(budget)/microBatches/float64(d+1)))
		}
	}
	return median(perCall), bytes
}
