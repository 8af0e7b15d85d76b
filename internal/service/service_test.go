package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/combinat"
	"repro/internal/cover"
	"repro/internal/failpoint"
	"repro/internal/harness"
)

// testSpec is the canonical small BRCA job the e2e tests submit.
func testSpec() JobSpec {
	return JobSpec{
		Tenant:   "alice",
		Cohort:   CohortSpec{Code: "BRCA", Genes: 40, Hits: 2, Seed: 11},
		Options:  OptionsSpec{Workers: 2},
		Priority: "normal",
	}
}

// directRun computes the ground-truth result with an uninterrupted
// harness run of the same spec.
func directRun(t *testing.T, spec JobSpec) *harness.Result {
	t.Helper()
	cohort, err := spec.Cohort.Generate()
	if err != nil {
		t.Fatalf("generating cohort: %v", err)
	}
	opt, err := spec.Options.CoverOptions(spec.Cohort.Hits)
	if err != nil {
		t.Fatalf("resolving options: %v", err)
	}
	res, err := harness.Run(context.Background(), cohort.Tumor, cohort.Normal, harness.Options{Cover: opt})
	if err != nil {
		t.Fatalf("direct harness run: %v", err)
	}
	return res
}

// assertMatchesDirect pins the issue's acceptance bar: combos, cover, and
// the Evaluated/Pruned work counters of a service job must be
// bit-identical to the uninterrupted direct run.
// assertCohortFingerprints requires a result to carry the fingerprints
// of the cohort its spec generates, however the daemon came by them.
func assertCohortFingerprints(t *testing.T, got *JobResult, spec CohortSpec) {
	t.Helper()
	c, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.TumorFingerprint != c.Tumor.Fingerprint() || got.NormalFingerprint != c.Normal.Fingerprint() {
		t.Fatalf("result fingerprints are not the cohort's: %+v, cohort %#x/%#x", got, c.Tumor.Fingerprint(), c.Normal.Fingerprint())
	}
}

func assertMatchesDirect(t *testing.T, got *JobResult, want *harness.Result) {
	t.Helper()
	if got == nil {
		t.Fatal("job has no result")
	}
	if got.Error != "" {
		t.Fatalf("job failed: %s", got.Error)
	}
	if len(got.Combos) != len(want.Steps) {
		t.Fatalf("%d combos, want %d", len(got.Combos), len(want.Steps))
	}
	for i, c := range got.Combos {
		ids := want.Steps[i].Combo.GeneIDs()
		if len(c.GeneIDs) != len(ids) {
			t.Fatalf("combo %d has %d genes, want %d", i, len(c.GeneIDs), len(ids))
		}
		for k := range ids {
			if c.GeneIDs[k] != ids[k] {
				t.Fatalf("combo %d gene %d = %d, want %d", i, k, c.GeneIDs[k], ids[k])
			}
		}
		if c.F != want.Steps[i].Combo.F {
			t.Fatalf("combo %d F = %v, want %v (must be bit-identical)", i, c.F, want.Steps[i].Combo.F)
		}
		if c.NewlyCovered != want.Steps[i].NewlyCovered {
			t.Fatalf("combo %d NewlyCovered = %d, want %d", i, c.NewlyCovered, want.Steps[i].NewlyCovered)
		}
	}
	if got.Covered != want.Covered || got.Uncoverable != want.Uncoverable {
		t.Fatalf("cover %d/%d uncoverable, want %d/%d", got.Covered, got.Uncoverable, want.Covered, want.Uncoverable)
	}
	if got.Evaluated != want.Evaluated || got.Pruned != want.Pruned {
		t.Fatalf("work counters Evaluated=%d Pruned=%d, want %d/%d (crash-invariance broken)",
			got.Evaluated, got.Pruned, want.Evaluated, want.Pruned)
	}
	if got.Stop != harness.StopCompleted.String() {
		t.Fatalf("stop = %q, want completed", got.Stop)
	}
}

// TestServiceResumeMatchesDirectRun is the in-process half of the issue's
// acceptance test: submit, stream progress, kill the daemon mid-job,
// restart, and require the resumed job's result bit-identical to an
// uninterrupted harness run — then require an identical resubmission to
// be served from the result cache without scanning, including by a fresh
// daemon that only ever saw the result on disk.
func TestServiceResumeMatchesDirectRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second e2e")
	}
	spec := testSpec()
	want := directRun(t, spec)
	if len(want.Steps) < 2 {
		t.Fatalf("test workload finds %d combos; need ≥2 so a mid-job kill lands between steps", len(want.Steps))
	}

	// Slow every partition scan down so the daemon is reliably killed
	// between the first checkpoint and completion.
	if err := failpoint.Enable("harness/partition", "delay(15ms)"); err != nil {
		t.Fatalf("arming delay failpoint: %v", err)
	}
	defer failpoint.DisableAll()

	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sub, err := svc.Subscribe(st.ID, 0)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	// Stream until the first persisted checkpoint, collecting progress
	// evidence on the way.
	sawProgress := false
	streamCtx, cancelStream := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelStream()
stream:
	for {
		e, ok := sub.Next(streamCtx)
		if !ok {
			t.Fatal("event stream ended before the first checkpoint — job finished too fast to test the kill, or no checkpoint within 30s")
		}
		switch e.Type {
		case "progress":
			if e.Progress == nil || e.Progress.TotalPartitions == 0 {
				t.Fatalf("progress event without partition tally: %+v", e)
			}
			sawProgress = true
		case "checkpoint":
			break stream
		}
	}
	if !sawProgress {
		t.Fatal("no per-partition progress event before the first checkpoint")
	}

	// Kill the daemon mid-job; the run parks at its newest generation.
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := svc.Submit(spec); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}

	// Restart: the job must be re-enqueued, resumed from its checkpoint
	// store, and completed bit-identically.
	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := svc2.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != StateSucceeded.String() {
		t.Fatalf("resumed job ended %s (result %+v), want succeeded", final.State, final.Result)
	}
	if !final.Resumed {
		t.Fatal("restarted job did not resume from its checkpoint store")
	}
	assertMatchesDirect(t, final.Result, want)
	if final.ExitCode == nil || *final.ExitCode != ExitOK {
		t.Fatalf("exit code = %v, want %d", final.ExitCode, ExitOK)
	}

	// Identical resubmission: answered from the cache, no scan, terminal
	// at submission, provenance pointing at the producing job.
	before := svc2.Stats()
	st2, err := svc2.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if st2.State != StateSucceeded.String() {
		t.Fatalf("resubmission state = %s, want immediate succeeded", st2.State)
	}
	if st2.Result == nil || st2.Result.CachedFrom != st.ID {
		t.Fatalf("resubmission CachedFrom = %+v, want %s", st2.Result, st.ID)
	}
	assertMatchesDirect(t, st2.Result, want)
	after := svc2.Stats()
	if after.Cache.Hits != before.Cache.Hits+1 {
		t.Fatalf("cache hits %d → %d, want one new hit", before.Cache.Hits, after.Cache.Hits)
	}
	if err := svc2.Close(); err != nil {
		t.Fatalf("closing second daemon: %v", err)
	}

	// A third daemon never ran the job; its cache is re-seeded from the
	// persisted results, so the resubmission still skips the scan.
	svc3, err := Open(cfg)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer svc3.Close()
	st3, err := svc3.Submit(spec)
	if err != nil {
		t.Fatalf("submit to third daemon: %v", err)
	}
	if st3.State != StateSucceeded.String() || st3.Result == nil || st3.Result.CachedFrom == "" {
		t.Fatalf("restart-seeded cache missed: state=%s result=%+v", st3.State, st3.Result)
	}
	assertMatchesDirect(t, st3.Result, want)
}

// TestKernelizedSubmissionDoesNotHitPlainCache: the same cohort submitted
// with and without Kernelize must run twice — their results differ
// observably (kernel fingerprint, work-counter split).
func TestKernelizedSubmissionDoesNotHitPlainCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two discovery jobs")
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	plain := testSpec()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := svc.Submit(plain)
	if err != nil {
		t.Fatalf("submit plain: %v", err)
	}
	if _, err := svc.WaitJob(ctx, st.ID); err != nil {
		t.Fatalf("waiting plain: %v", err)
	}

	kern := testSpec()
	kern.Options.Kernelize = true
	st2, err := svc.Submit(kern)
	if err != nil {
		t.Fatalf("submit kernelized: %v", err)
	}
	// A fresh job may finish within its own POST (preack.go), so a
	// terminal answer alone is no cache hit: its cache provenance is.
	if st2.Result != nil && st2.Result.CachedFrom != "" {
		t.Fatal("kernelized submission was served from the plain run's cache entry")
	}
	final, err := svc.WaitJob(ctx, st2.ID)
	if err != nil {
		t.Fatalf("waiting kernelized: %v", err)
	}
	if final.Result == nil || final.Result.KernelFingerprint == 0 {
		t.Fatalf("kernelized result has no kernel fingerprint: %+v", final.Result)
	}
	if final.Result.CachedFrom != "" {
		t.Fatal("kernelized run claims cache provenance")
	}
	// Same discovery, distinct provenance: winners agree with the plain
	// run, the cache keeps both entries.
	if st := svc.Stats(); st.Cache.Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2 (plain + kernelized)", st.Cache.Entries)
	}
}

// TestCancelQueuedAndRunning covers both cancellation paths and the
// terminal-cancel exit code.
func TestCancelQueuedAndRunning(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery job")
	}
	if err := failpoint.Enable("harness/partition", "delay(10ms)"); err != nil {
		t.Fatalf("arming delay failpoint: %v", err)
	}
	defer failpoint.DisableAll()

	// Capacity 1 GPU: the first job occupies the cluster, the second
	// queues behind it.
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 1, ClusterGPUs: 1, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	first := testSpec()
	st1, err := svc.Submit(first)
	if err != nil {
		t.Fatalf("submit first: %v", err)
	}
	second := testSpec()
	second.Cohort.Seed = 99 // distinct job, same footprint
	st2, err := svc.Submit(second)
	if err != nil {
		t.Fatalf("submit second: %v", err)
	}

	// The second job is queued behind the first: cancel it there.
	if err := svc.Cancel(st2.ID); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	got, err := svc.Get(st2.ID)
	if err != nil {
		t.Fatalf("get canceled: %v", err)
	}
	if got.State != StateCanceled.String() {
		t.Fatalf("queued cancel → %s, want canceled", got.State)
	}
	if got.ExitCode == nil || *got.ExitCode != ExitEarlyStop {
		t.Fatalf("canceled exit code = %v, want %d", got.ExitCode, ExitEarlyStop)
	}
	if err := svc.Cancel(st2.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("double cancel = %v, want ErrTerminal", err)
	}

	// Cancel the running job too.
	if err := svc.Cancel(st1.ID); err != nil {
		t.Fatalf("cancel running: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := svc.WaitJob(ctx, st1.ID)
	if err != nil {
		t.Fatalf("waiting canceled job: %v", err)
	}
	if final.State != StateCanceled.String() {
		t.Fatalf("running cancel → %s, want canceled", final.State)
	}
}

// TestSubmitValidation covers the admission-side rejections.
func TestSubmitValidation(t *testing.T) {
	cfg := Config{DataDir: t.TempDir(), ClusterGPUs: 1, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	bad := testSpec()
	bad.Cohort.Hits = 9
	if _, err := svc.Submit(bad); err == nil {
		t.Fatal("submit with hits=9 succeeded")
	}
	badPrio := testSpec()
	badPrio.Priority = "extreme"
	if _, err := svc.Submit(badPrio); err == nil {
		t.Fatal("submit with unknown priority succeeded")
	}
	// The wire scheme selects nothing, but it is still validated: unknown
	// names, the rejected 1x3/4x1 and a scheme on a hit count it does not
	// serve are refused.
	for _, bad := range []struct {
		scheme string
		hits   int
	}{{"17x3", 2}, {"1x3", 4}, {"4x1", 4}, {"2x2", 3}, {"pair", 4}} {
		spec := testSpec()
		spec.Cohort.Hits = bad.hits
		spec.Options.Scheme = bad.scheme
		if _, err := svc.Submit(spec); err == nil {
			t.Fatalf("submit of scheme %q on a %d-hit cohort succeeded", bad.scheme, bad.hits)
		}
	}

	// A 4-hit job over the full registry footprint wants more simulated
	// GPUs than this 1-GPU cluster owns — reject at submission, never
	// queue it.
	huge := JobSpec{
		Cohort:  CohortSpec{Code: "BRCA", Genes: 2000, Hits: 4, Seed: 1},
		Options: OptionsSpec{Workers: 1},
	}
	if _, err := svc.Submit(huge); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized submit = %v, want ErrOversized", err)
	}
}

// TestEngineSubmissionsShareCacheEntry: the scan engine is an execution
// knob, so a sparse-engine resubmission of a cohort first solved with the
// dense engine is answered from the cache without scanning — and /v1/stats
// tallies the jobs by their requested engine either way.
func TestEngineSubmissionsShareCacheEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery job")
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	dense := JobSpec{
		Tenant:  "alice",
		Cohort:  CohortSpec{Code: "BRCA", Genes: 30, Hits: 3, Seed: 5},
		Options: OptionsSpec{Workers: 2, Engine: "dense"},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := svc.Submit(dense)
	if err != nil {
		t.Fatalf("submit dense: %v", err)
	}
	if _, err := svc.WaitJob(ctx, st.ID); err != nil {
		t.Fatalf("waiting dense: %v", err)
	}

	sparse := dense
	sparse.Options.Engine = "sparse"
	st2, err := svc.Submit(sparse)
	if err != nil {
		t.Fatalf("submit sparse: %v", err)
	}
	if st2.State != StateSucceeded.String() {
		t.Fatalf("sparse resubmission state = %s, want immediate cache hit", st2.State)
	}
	if st2.Result == nil || st2.Result.CachedFrom != st.ID {
		t.Fatalf("sparse resubmission CachedFrom = %+v, want %s", st2.Result, st.ID)
	}

	stats := svc.Stats()
	if stats.Engines["dense"] != 1 || stats.Engines["sparse"] != 1 {
		t.Fatalf("engine tally = %v, want one dense and one sparse job", stats.Engines)
	}

	bad := dense
	bad.Options.Engine = "gpu"
	if _, err := svc.Submit(bad); err == nil {
		t.Fatal("submit with unknown engine succeeded")
	}
}

// TestFiveHitJob: a small 5-hit job is priced on the 4+1 scheme's curve,
// admitted, and completed with exactly cover.Run's cover, work counts
// included.
func TestFiveHitJob(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery job")
	}
	svc, err := Open(Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	spec := JobSpec{
		Tenant:  "alice",
		Cohort:  CohortSpec{Code: "ACC", Genes: 30, Hits: 5, Seed: 3},
		Options: OptionsSpec{Workers: 2},
	}
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	svc.mu.Lock()
	j := svc.jobs[st.ID]
	svc.mu.Unlock()
	if j.cost.Threads != combinat.QuadCount(30) || j.cost.GPUs < 1 || j.cost.DeviceSeconds <= 0 {
		t.Fatalf("5-hit job priced %+v, want C(30, 4) = %d threads on ≥1 GPU", j.cost, combinat.QuadCount(30))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := svc.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != StateSucceeded.String() || final.StartedAt.IsZero() {
		t.Fatalf("5-hit job ended %s (started %v), want admitted and succeeded", final.State, final.StartedAt)
	}

	cohort, err := spec.Cohort.Generate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := cover.Run(cohort.Tumor, cohort.Normal, cover.Options{Hits: 5, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Steps) == 0 {
		t.Fatal("the 5-hit cohort has no cover; the test is vacuous")
	}
	assertMatchesDirect(t, final.Result, &harness.Result{
		Steps: want.Steps, Covered: want.Covered, Uncoverable: want.Uncoverable,
		Evaluated: want.Evaluated, Pruned: want.Pruned,
	})
}

// holdsCohort reports whether the daemon's record of job id still holds
// its cohort.
func holdsCohort(svc *Service, id string) bool {
	svc.mu.Lock()
	j := svc.jobs[id]
	svc.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cohort != nil
}

// TestTerminalJobReleasesCohort: a job lets go of its cohort's matrices
// when it turns terminal — by completing, by a cache hit, on restore, and
// by stopping early — while result reads, cache hits, restarts and the
// resume of an early-stopped job keep working.
func TestTerminalJobReleasesCohort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	spec := testSpec()
	want := directRun(t, spec)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := svc.WaitJob(ctx, st.ID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if holdsCohort(svc, st.ID) {
		t.Fatal("completed job still holds its cohort")
	}
	hit, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if hit.Result == nil || hit.Result.CachedFrom != st.ID {
		t.Fatalf("resubmission was not a cache hit: %+v", hit.Result)
	}
	if holdsCohort(svc, hit.ID) {
		t.Fatal("cache-hit job holds a cohort")
	}

	// A job stopped by its deadline is terminal (partial) and releases
	// its cohort; resuming it rebuilds the cohort for the next leg.
	early := testSpec()
	early.Cohort.Seed = 12
	early.DeadlineSec = 1e-9
	pst, err := svc.Submit(early)
	if err != nil {
		t.Fatalf("submit early-stopping job: %v", err)
	}
	if p, err := svc.WaitJob(ctx, pst.ID); err != nil || p.State != StatePartial.String() {
		t.Fatalf("deadline job ended %+v (%v), want partial", p, err)
	}
	if holdsCohort(svc, pst.ID) {
		t.Fatal("partial job still holds its cohort")
	}
	if _, err := svc.Resume(pst.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if p, err := svc.WaitJob(ctx, pst.ID); err != nil || p.State != StatePartial.String() {
		t.Fatalf("resumed deadline job ended %+v (%v), want partial again", p, err)
	} else {
		assertCohortFingerprints(t, p.Result, early.Cohort)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A restarted daemon restores the terminal jobs without their
	// cohorts, serves their results, and answers resubmissions from the
	// re-seeded cache.
	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer svc2.Close()
	for _, id := range []string{st.ID, hit.ID, pst.ID} {
		if holdsCohort(svc2, id) {
			t.Fatalf("restored terminal job %s holds its cohort", id)
		}
	}
	restored, err := svc2.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("reading the restored result: %v", err)
	}
	assertMatchesDirect(t, restored.Result, want)
	assertCohortFingerprints(t, restored.Result, spec.Cohort)
	again, err := svc2.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit after restart: %v", err)
	}
	if again.Result == nil || again.Result.CachedFrom == "" {
		t.Fatalf("resubmission after restart was not a cache hit: %+v", again.Result)
	}
	assertMatchesDirect(t, again.Result, want)
}
