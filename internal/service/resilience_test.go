package service

// Tests for the resilience layer (docs/RESILIENCE.md): overload
// shedding, per-tenant rate limiting, the execution-backend circuit
// breaker, idempotent submission, and the disk guardrails. The unit
// pieces (limiter, drain estimator, breaker) run against an injected
// clock; the end-to-end pieces drive real jobs with failpoints.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// fakeClock is an injectable time source for the unit tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func TestRateLimiterTokenBucket(t *testing.T) {
	clk := newFakeClock()
	l := newRateLimiter(1, 2, clk.now) // 1 token/s, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := l.allow("alice"); !ok {
			t.Fatalf("burst submission %d denied", i)
		}
	}
	ok, wait := l.allow("alice")
	if ok {
		t.Fatal("third immediate submission allowed past burst")
	}
	if wait < time.Second {
		t.Fatalf("denial wait = %v, want ≥ 1s", wait)
	}
	// Another tenant has its own bucket.
	if ok, _ := l.allow("bob"); !ok {
		t.Fatal("fresh tenant denied")
	}
	// Tokens accrue with time.
	clk.advance(1500 * time.Millisecond)
	if ok, _ := l.allow("alice"); !ok {
		t.Fatal("submission denied after a token accrued")
	}
	if ok, _ := l.allow("alice"); ok {
		t.Fatal("fractional token spent as a whole one")
	}
	// A zero rate disables limiting entirely.
	open := newRateLimiter(0, 1, clk.now)
	for i := 0; i < 100; i++ {
		if ok, _ := open.allow("alice"); !ok {
			t.Fatal("disabled limiter denied a submission")
		}
	}
}

func TestDrainEstimatorRetryAfter(t *testing.T) {
	clk := newFakeClock()
	d := newDrainEstimator(clk.now)

	// No history: the default per-job estimate, clamped.
	if got := d.retryAfter(1); got != defaultPerJob {
		t.Fatalf("cold retryAfter(1) = %v, want %v", got, defaultPerJob)
	}
	// Completions 100ms apart → perJob ≈ 100ms.
	for i := 0; i < 5; i++ {
		d.completed()
		clk.advance(100 * time.Millisecond)
	}
	if got := d.perJob(); got != 100*time.Millisecond {
		t.Fatalf("perJob = %v, want 100ms", got)
	}
	if got := d.retryAfter(20); got != 2*time.Second {
		t.Fatalf("retryAfter(20) = %v, want 2s", got)
	}
	// Clamps: never below minRetryAfter, never above maxRetryAfter.
	if got := d.retryAfter(1); got != minRetryAfter {
		t.Fatalf("retryAfter(1) = %v, want clamp %v", got, minRetryAfter)
	}
	if got := d.retryAfter(1 << 20); got != maxRetryAfter {
		t.Fatalf("huge depth retryAfter = %v, want clamp %v", got, maxRetryAfter)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk := newFakeClock()
	b := &breaker{threshold: 3, cooldown: 10 * time.Second, now: clk.now}

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		b.onFailure()
		if ok, _ := b.allowed(); !ok {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	// A success resets the consecutive count.
	b.onSuccess()
	b.onFailure()
	b.onFailure()
	if ok, _ := b.allowed(); !ok {
		t.Fatal("breaker opened after a success reset the streak")
	}
	// The third consecutive failure trips it.
	b.onFailure()
	if ok, _ := b.allowed(); ok {
		t.Fatal("breaker still allowing after the threshold trip")
	}
	if st := b.status(); st.State != "open" || st.Trips != 1 {
		t.Fatalf("status = %+v, want open with 1 trip", st)
	}
	// Cooldown elapses → half-open with exactly one probe slot.
	clk.advance(10 * time.Second)
	ok, probe := b.allowed()
	if !ok || !probe {
		t.Fatalf("allowed() after cooldown = (%v, %v), want a probe", ok, probe)
	}
	b.beginProbe()
	if ok, _ := b.allowed(); ok {
		t.Fatal("second job admitted while the probe is in flight")
	}
	// A failed probe re-opens immediately.
	b.onFailure()
	if ok, _ := b.allowed(); ok {
		t.Fatal("breaker closed after a failed probe")
	}
	if st := b.status(); st.Trips != 2 {
		t.Fatalf("trips = %d, want 2", st.Trips)
	}
	// Next probe succeeds → closed for good.
	clk.advance(10 * time.Second)
	if ok, probe := b.allowed(); !ok || !probe {
		t.Fatal("no probe after the second cooldown")
	}
	b.beginProbe()
	b.onSuccess()
	if ok, probe := b.allowed(); !ok || probe {
		t.Fatalf("allowed() after probe success = (%v, %v), want plain closed", ok, probe)
	}
	if st := b.status(); st.State != "closed" || st.ConsecutiveFailures != 0 {
		t.Fatalf("status = %+v, want closed with streak 0", st)
	}
	// Disabled breaker never blocks and reports so.
	off := &breaker{threshold: -1, now: clk.now}
	off.onFailure()
	off.onFailure()
	if ok, _ := off.allowed(); !ok {
		t.Fatal("disabled breaker blocked dispatch")
	}
	if st := off.status(); st.State != "disabled" {
		t.Fatalf("disabled status = %+v", st)
	}
}

// retryAfterOf unwraps the Retry-After hint a rejection carries.
func retryAfterOf(t *testing.T, err error) time.Duration {
	t.Helper()
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("rejection %v carries no RetryAfterError", err)
	}
	if ra.After < minRetryAfter {
		t.Fatalf("Retry-After %v below the floor %v", ra.After, minRetryAfter)
	}
	return ra.After
}

// TestBatchSheddingAndQueueFull pins the admission ladder: batch work is
// shed at the watermark while normal work still queues, and the hard
// depth limit rejects everything — both with Retry-After hints, and
// neither ever touching an already-accepted job.
func TestBatchSheddingAndQueueFull(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	// Slow the scans so the queue holds still while we probe admission.
	if err := failpoint.Enable("harness/partition", "delay(20ms)"); err != nil {
		t.Fatalf("arming delay failpoint: %v", err)
	}
	defer failpoint.DisableAll()

	svc, err := Open(Config{
		DataDir:     t.TempDir(),
		JobWorkers:  2,
		ClusterGPUs: 1, // one job runs at a time; the rest queue
		MaxQueued:   3,
		ShedBatchAt: 2,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	submit := func(prio string, seed int64) (*JobStatus, error) {
		spec := testSpec()
		spec.Priority = prio
		spec.Cohort.Seed = seed // distinct seeds defeat the result cache
		return svc.Submit(spec)
	}

	// One running + queue up to the batch watermark.
	if _, err := submit("normal", 100); err != nil {
		t.Fatalf("first submission: %v", err)
	}
	for i := int64(0); i < 2; i++ {
		if _, err := submit("normal", 200+i); err != nil {
			t.Fatalf("queueing submission %d: %v", i, err)
		}
	}

	// Depth ≥ ShedBatchAt: batch is shed, normal still queues.
	if _, err := submit("batch", 300); !errors.Is(err, ErrShed) {
		t.Fatalf("batch at watermark: err = %v, want ErrShed", err)
	} else {
		retryAfterOf(t, err)
	}
	if _, err := submit("normal", 301); err != nil {
		t.Fatalf("normal at watermark rejected: %v", err)
	}

	// Depth = MaxQueued: everything is rejected.
	if _, err := submit("urgent", 400); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission at hard limit: err = %v, want ErrQueueFull", err)
	} else {
		retryAfterOf(t, err)
	}

	st := svc.Stats()
	if st.Shed.BatchShed != 1 || st.Shed.QueueFull != 1 {
		t.Fatalf("shed counters = %+v, want 1 batch shed and 1 queue-full", st.Shed)
	}
	// Every accepted job is still present — shedding is admission-only.
	if got := len(svc.List("")); got != 4 {
		t.Fatalf("%d jobs after shedding, want the 4 accepted", got)
	}
}

func TestTenantRateLimitAtSubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	svc, err := Open(Config{
		DataDir:          t.TempDir(),
		JobWorkers:       2,
		TenantRatePerSec: 0.001, // ~17min per token: no accrual during the test
		TenantBurst:      1,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	spec := testSpec()
	if _, err := svc.Submit(spec); err != nil {
		t.Fatalf("first submission: %v", err)
	}
	spec.Cohort.Seed = 12
	_, err = svc.Submit(spec)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submission: err = %v, want ErrRateLimited", err)
	}
	retryAfterOf(t, err)
	if n := svc.Stats().Shed.RateLimited; n != 1 {
		t.Fatalf("RateLimited counter = %d, want 1", n)
	}
	// Another tenant is unaffected.
	spec.Tenant = "bob"
	if _, err := svc.Submit(spec); err != nil {
		t.Fatalf("other tenant's submission: %v", err)
	}
}

// TestBreakerTripsOnBackendFailures drives the breaker end to end:
// persistent checkpoint-write failures fail jobs, consecutive failures
// trip the breaker (queued jobs wait instead of burning), and once the
// fault clears the half-open probe closes it and the queue drains.
func TestBreakerTripsOnBackendFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()

	svc, err := Open(Config{
		DataDir:          t.TempDir(),
		JobWorkers:       2,
		ClusterGPUs:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	// Queue four jobs, then break the checkpoint path. The spec files are
	// already persisted, so only the running jobs' stores fail.
	var ids []string
	for i := int64(0); i < 4; i++ {
		spec := testSpec()
		spec.Cohort.Seed = 500 + i
		st, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}
	if err := failpoint.Enable("ckptstore/write", "error"); err != nil {
		t.Fatalf("arming write failpoint: %v", err)
	}

	// Two jobs fail → the breaker opens with ≥2 jobs still queued.
	waitFor(t, 30*time.Second, "breaker open", func() bool {
		return svc.Stats().Breaker.State == "open"
	})
	st := svc.Stats()
	if st.Queued == 0 {
		t.Fatal("breaker opened only after the whole queue burned")
	}

	// Clear the fault: the cooldown elapses, one probe job runs, closes
	// the breaker, and the remaining jobs drain to success.
	failpoint.DisableAll()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	failed := 0
	for _, id := range ids {
		final, err := svc.WaitJob(ctx, id)
		if err != nil {
			t.Fatalf("WaitJob(%s): %v", id, err)
		}
		switch final.State {
		case StateFailed.String():
			failed++
		case StateSucceeded.String():
		default:
			t.Fatalf("job %s ended %s", id, final.State)
		}
	}
	if failed != 2 {
		t.Fatalf("%d jobs failed, want exactly the 2 that tripped the breaker", failed)
	}
	if got := svc.Stats().Breaker; got.State != "closed" || got.Trips != 1 {
		t.Fatalf("final breaker = %+v, want closed after 1 trip", got)
	}
}

func TestIdempotentSubmitDedupesAndSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	const key = "soak-round-7-client-3"
	st, dup, err := svc.SubmitIdempotent(testSpec(), key)
	if err != nil || dup {
		t.Fatalf("first keyed submission: dup=%v err=%v", dup, err)
	}
	// A retried POST with the same key lands on the same job.
	st2, dup, err := svc.SubmitIdempotent(testSpec(), key)
	if err != nil || !dup || st2.ID != st.ID {
		t.Fatalf("retry: id=%v dup=%v err=%v, want duplicate of %s", st2, dup, err, st.ID)
	}
	if got := len(svc.List("")); got != 1 {
		t.Fatalf("%d jobs after a keyed retry, want 1", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := svc.WaitJob(ctx, st.ID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The key is persisted with the job: a restarted daemon still dedupes.
	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer svc2.Close()
	st3, dup, err := svc2.SubmitIdempotent(testSpec(), key)
	if err != nil || !dup || st3.ID != st.ID {
		t.Fatalf("post-restart retry: id=%v dup=%v err=%v, want duplicate of %s", st3, dup, err, st.ID)
	}
	if st3.State != StateSucceeded.String() {
		t.Fatalf("deduped job reports %s, want the terminal result", st3.State)
	}
}

// TestDiskFullDegradesWithoutFailingInFlight is the issue's storage
// acceptance test: an injected ENOSPC on the checkpoint path flips the
// service into the degraded state — submissions are rejected with
// Retry-After, /readyz turns unready with the reason — while the
// in-flight job parks on the retry loop instead of failing; when space
// returns the service recovers on its own and the job completes
// bit-identically to a fault-free run.
func TestDiskFullDegradesWithoutFailingInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	spec := testSpec()
	want := directRun(t, spec)

	// Slow the scans so the job is reliably mid-flight when the disk
	// "fills".
	if err := failpoint.Enable("harness/partition", "delay(10ms)"); err != nil {
		t.Fatalf("arming delay failpoint: %v", err)
	}
	defer failpoint.DisableAll()

	svc, err := Open(Config{
		DataDir:    t.TempDir(),
		JobWorkers: 2,
		DiskPoll:   50 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sub, err := svc.Subscribe(st.ID, 0)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	streamCtx, cancelStream := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelStream()
	for {
		e, ok := sub.Next(streamCtx)
		if !ok {
			t.Fatal("stream ended before the first checkpoint")
		}
		if e.Type == "checkpoint" {
			break
		}
	}

	// The disk fills: the next checkpoint write hits ENOSPC.
	if err := failpoint.Enable("ckptstore/write", "diskfull"); err != nil {
		t.Fatalf("arming diskfull failpoint: %v", err)
	}
	waitFor(t, 30*time.Second, "degraded state", func() bool {
		return svc.Stats().Disk.Degraded != ""
	})

	// Degraded: new work is rejected with the reason and a hint...
	_, err = svc.Submit(JobSpec{Tenant: "bob", Cohort: CohortSpec{Code: "BRCA", Genes: 40, Hits: 2, Seed: 77}, Options: OptionsSpec{Workers: 2}})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("submission while degraded: err = %v, want ErrDegraded", err)
	}
	retryAfterOf(t, err)
	rd := svc.Readiness()
	if rd.Ready {
		t.Fatal("Readiness reports ready while degraded")
	}
	if len(rd.Reasons) == 0 || !strings.Contains(rd.Reasons[0], "degraded") {
		t.Fatalf("readiness reasons = %v, want the degraded detail", rd.Reasons)
	}
	// ...but the in-flight job is alive, not failed.
	if cur, err := svc.Get(st.ID); err != nil || cur.State != StateRunning.String() {
		t.Fatalf("in-flight job during disk-full: %+v, %v — must stay running", cur, err)
	}

	// Space returns: the monitor's probe write lands, the degraded state
	// lifts, and the parked checkpoint write goes through.
	failpoint.Disable("ckptstore/write")
	waitFor(t, 30*time.Second, "recovery", func() bool {
		return svc.Stats().Disk.Degraded == ""
	})
	if !svc.Readiness().Ready {
		t.Fatal("Readiness not restored after recovery")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := svc.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if final.State != StateSucceeded.String() {
		t.Fatalf("job survived disk-full but ended %s (%+v)", final.State, final.Result)
	}
	assertMatchesDirect(t, final.Result, want)
}

// TestDiskBudgetGCReclaimsTerminalCheckpoints pins the accountant: over
// budget, the background GC removes terminal jobs' checkpoint stores
// (the result file is the durable artifact) and the degraded state
// clears once usage is back under.
func TestDiskBudgetGCReclaimsTerminalCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st, err := svc.Submit(testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := svc.WaitJob(ctx, st.ID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	total := svc.measureUsage()
	ckptBytes := dirSize(filepath.Join(svc.jobDir(st.ID), ckptDirName))
	if ckptBytes == 0 {
		t.Fatal("terminal job kept no checkpoints; nothing for GC to test")
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen with a budget the checkpoints bust but the spec/result files
	// fit: the first tick must degrade, GC, and recover.
	cfg.DiskBudgetBytes = total - 1
	if cfg.DiskBudgetBytes <= total-ckptBytes {
		t.Fatalf("budget %d not separable from post-GC usage %d", cfg.DiskBudgetBytes, total-ckptBytes)
	}
	cfg.DiskPoll = 50 * time.Millisecond
	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer svc2.Close()

	waitFor(t, 30*time.Second, "GC pass", func() bool {
		d := svc2.Stats().Disk
		return d.GCRuns > 0 && d.Degraded == ""
	})
	if n := dirSize(filepath.Join(svc2.jobDir(st.ID), ckptDirName)); n != 0 {
		t.Fatalf("terminal job's checkpoint dir still holds %d bytes after GC", n)
	}
	d := svc2.Stats().Disk
	if d.GCFreedBytes < ckptBytes {
		t.Fatalf("GC accounted %d freed bytes, want ≥ %d", d.GCFreedBytes, ckptBytes)
	}
	if d.UsageBytes > cfg.DiskBudgetBytes {
		t.Fatalf("usage %d still over budget %d after GC", d.UsageBytes, cfg.DiskBudgetBytes)
	}
	// The result is untouched: the job still answers with its outcome.
	if got, err := svc2.Get(st.ID); err != nil || got.Result == nil {
		t.Fatalf("terminal result lost to GC: %+v, %v", got, err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUnbudgetedUsageMeasuredOnRead pins the accountant's default: with
// no budget and a healthy service a tick does not walk the jobs tree,
// and the stats measure usage when read, at most once per DiskPoll.
func TestUnbudgetedUsageMeasuredOnRead(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery job")
	}
	// An hour-long poll: the monitor never ticks by itself, and every
	// read below falls inside one poll interval of the first.
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, DiskPoll: time.Hour, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	st, err := svc.Submit(testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := svc.WaitJob(ctx, st.ID); err != nil {
		t.Fatalf("WaitJob: %v", err)
	}

	svc.diskTick()
	svc.mu.Lock()
	measured := !svc.usageAt.IsZero()
	svc.mu.Unlock()
	if measured {
		t.Fatal("an unbudgeted, healthy accountant tick walked the jobs directory")
	}
	want := svc.measureUsage()
	if got := svc.Stats().Disk.UsageBytes; got != want || got == 0 {
		t.Fatalf("Stats usage %d, want the measured %d", got, want)
	}
	extra := filepath.Join(cfg.DataDir, jobsDirName, "extra")
	if err := os.WriteFile(extra, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().Disk.UsageBytes; got != want {
		t.Fatalf("a second read within DiskPoll re-measured: usage %d, want the cached %d", got, want)
	}
}
