package service

// Tests for submissions started at once (preack.go): answered in their
// own POST, acknowledged at the wait budget, committed by their first
// checkpoint publish, withdrawn when the deferred spec commit fails or
// the daemon closes, and the submissions that still take the queue.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// priceDaemon makes the daemon behave as if it had measured a publish
// costing d, which sets a fresh job's wait budget to PublishRatio × d.
func priceDaemon(svc *Service, d time.Duration) { svc.cheapestSave.Store(int64(d)) }

// answer is the outcome of a submission made on another goroutine.
type answer struct {
	st  *JobStatus
	err error
}

// jobRecordKinds lists the kinds of a job's journal records, in order.
func jobRecordKinds(t *testing.T, dataDir, id string) string {
	t.Helper()
	var kinds []string
	for _, r := range journalRecords(t, dataDir) {
		if r.ID == id {
			kinds = append(kinds, r.Kind)
		}
	}
	return strings.Join(kinds, ",")
}

// TestPreAckAnsweredAtSubmission: a fresh job that finishes within its
// wait budget is answered in its own submission with its terminal status
// and result; its spec and result records share one append and one
// fsync. A restart restores it as terminal without running it, and an
// identical resubmission is a cache hit.
func TestPreAckAnsweredAtSubmission(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	priceDaemon(svc, time.Second)
	before := svc.Stats().Disk
	spec := cheapSpec(61)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != StateSucceeded.String() || st.Result == nil || st.Result.CachedFrom != "" {
		t.Fatalf("submission answered %s (%+v), want its own succeeded result", st.State, st.Result)
	}
	assertMatchesDirect(t, st.Result, directRun(t, spec))
	stats := svc.Stats()
	if d := stats.Disk; d.JournalAppends != before.JournalAppends+2 || d.JournalSyncs != before.JournalSyncs+1 {
		t.Fatalf("journal appends %d → %d, syncs %d → %d; want two records under one fsync",
			before.JournalAppends, d.JournalAppends, before.JournalSyncs, d.JournalSyncs)
	}
	if s := stats.Submit; s.AnsweredAtSubmission != 1 || s.DeferredSpecs != (DeferredSpecStats{Result: 1}) {
		t.Fatalf("submit stats %+v, want one job answered at submission, its spec carried by its result", s)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := jobRecordKinds(t, cfg.DataDir, st.ID); got != "spec,result" {
		t.Fatalf("journal records of %s: %s, want spec,result", st.ID, got)
	}
	if _, err := os.Stat(svc.jobDir(st.ID)); !os.IsNotExist(err) {
		t.Fatalf("answered job's directory: stat err = %v, want it absent", err)
	}

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer svc2.Close()
	restored, err := svc2.Get(st.ID)
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if statusView(t, restored) != statusView(t, st) {
		t.Fatalf("restored %s reports\n%s\nwant\n%s", st.ID, statusView(t, restored), statusView(t, st))
	}
	again, err := svc2.Submit(spec)
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if again.Result == nil || again.Result.CachedFrom != st.ID {
		t.Fatalf("resubmission after restart answered %+v, want a cache hit from %s", again.Result, st.ID)
	}
}

// TestPreAckBudgetExpiry: a fresh job that outlives its wait budget is
// acknowledged at the budget with its spec record committed alone and
// the job still running; it completes, and its result record is written
// separately.
func TestPreAckBudgetExpiry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	priceDaemon(svc, 5*time.Millisecond) // a 40 ms budget
	if err := failpoint.Enable("harness/partition", "delay(300ms)@1"); err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(62)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != StateRunning.String() {
		t.Fatalf("submission answered %s, want the job still running", st.State)
	}
	if got := jobRecordKinds(t, cfg.DataDir, st.ID); got != "spec" {
		t.Fatalf("journal records of %s at acknowledgement: %s, want its spec alone", st.ID, got)
	}
	if _, err := svc.Get(st.ID); err != nil {
		t.Fatalf("acknowledged job is not visible: %v", err)
	}
	final := waitSucceeded(t, svc, st.ID)
	assertMatchesDirect(t, final.Result, directRun(t, spec))
	if got := jobRecordKinds(t, cfg.DataDir, st.ID); got != "spec,result" {
		t.Fatalf("journal records of %s: %s, want spec,result", st.ID, got)
	}
	if s := svc.Stats().Submit; s.AnsweredAtSubmission != 0 || s.DeferredSpecs != (DeferredSpecStats{Budget: 1}) {
		t.Fatalf("submit stats %+v, want one spec carried by the budget", s)
	}
}

// TestPreAckPublishBeforeBudget: a fresh job whose first checkpoint
// publish comes before its wait budget runs out (here a deadline stop)
// commits its spec record first: jobs/<id>/ is never seen without it.
func TestPreAckPublishBeforeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	priceDaemon(svc, 10*time.Second) // an 80 s budget
	for _, fp := range [][2]string{
		{"harness/partition", "delay(5ms)"},
		// Hold the spec commit, so a directory made before it would show.
		{"service/deferred-spec", "delay(200ms)"},
	} {
		if err := failpoint.Enable(fp[0], fp[1]); err != nil {
			t.Fatal(err)
		}
	}
	spec := testSpec()
	spec.DeadlineSec = 0.2
	answered := make(chan answer, 1)
	go func() {
		st, err := svc.Submit(spec)
		answered <- answer{st, err}
	}()
	dir := svc.jobDir("job-000000001")
	var a *answer
	deadline := time.Now().Add(30 * time.Second)
	for seen := false; !seen || a == nil; {
		if time.Now().After(deadline) {
			t.Fatalf("no answer (%v) or no jobs/job-000000001/ (%v) after 30 s", a, seen)
		}
		select {
		case got := <-answered:
			a = &got
		case <-time.After(2 * time.Millisecond):
		}
		if _, err := os.Stat(dir); err == nil && !seen {
			seen = true
			if got := jobRecordKinds(t, cfg.DataDir, "job-000000001"); !strings.HasPrefix(got, "spec") {
				t.Fatalf("jobs/job-000000001/ exists with journal records %q, want the spec record before it", got)
			}
		}
	}
	if a.err != nil {
		t.Fatalf("Submit: %v", a.err)
	}
	if s := svc.Stats().Submit; s.DeferredSpecs != (DeferredSpecStats{Checkpoint: 1}) {
		t.Fatalf("submit stats %+v, want one spec carried by a checkpoint", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if final, err := svc.WaitJob(ctx, a.st.ID); err != nil || final.State != StatePartial.String() {
		t.Fatalf("deadline job ended %+v (%v), want partial", final, err)
	}
	if len(generations(t, svc, a.st.ID)) == 0 {
		t.Fatal("the deadline stop published no checkpoint")
	}
}

// TestPreAckFailedSpecCommitWithdraws: when the deferred spec commit
// fails — carried by the result or by the budget — the POST answers 503
// on a full disk and 500 otherwise, the idempotency key is released, and
// the job leaves nothing behind: no record, no jobs/<id>/, before or
// after a restart.
func TestPreAckFailedSpecCommitWithdraws(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	for _, tc := range []struct {
		name, action string
		price        time.Duration
		status       int
	}{
		{"result-diskfull", "diskfull", time.Second, http.StatusServiceUnavailable},
		{"result-error", "error", time.Second, http.StatusInternalServerError},
		{"budget-diskfull", "diskfull", 0, http.StatusServiceUnavailable},
		{"budget-error", "error", 0, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer failpoint.DisableAll()
			svc, ts := startTestServer(t, Config{JobWorkers: 2})
			priceDaemon(svc, tc.price)
			if err := failpoint.Enable("service/deferred-spec", tc.action); err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(cheapSpec(63))
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Idempotency-Key", "k-"+tc.name)
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatalf("POST /v1/jobs: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("failed deferred spec commit (%s) → %d, want %d", tc.action, resp.StatusCode, tc.status)
			}
			failpoint.Disable("service/deferred-spec")
			waitFor(t, 30*time.Second, "the withdrawn run to end", func() bool { return svc.Stats().Running == 0 })
			if n := len(svc.List("")); n != 0 {
				t.Fatalf("%d jobs after a refused submission, want 0", n)
			}
			svc.mu.Lock()
			_, held := svc.keys["k-"+tc.name]
			svc.mu.Unlock()
			if held {
				t.Fatal("the refused submission's idempotency key is still reserved")
			}
			if s := svc.Stats().Submit; s != (SubmitStats{}) {
				t.Fatalf("submit stats %+v after a withdrawal, want none", s)
			}
			dataDir := svc.cfg.DataDir
			ts.Close()
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if recs := journalRecords(t, dataDir); len(recs) != 0 {
				t.Fatalf("journal holds %d records after a withdrawal, want none", len(recs))
			}
			if entries, _ := os.ReadDir(filepath.Join(dataDir, jobsDirName)); len(entries) != 0 {
				t.Fatalf("jobs/ holds %d entries after a withdrawal, want none", len(entries))
			}
			svc2, err := Open(Config{DataDir: dataDir, JobWorkers: 2, Logf: quiet})
			if err != nil {
				t.Fatalf("reopening: %v", err)
			}
			defer svc2.Close()
			if n := len(svc2.List("")); n != 0 {
				t.Fatalf("%d jobs after a restart, want the withdrawn submission gone", n)
			}
			// The released key submits afresh.
			st, dup, err := svc2.SubmitIdempotent(cheapSpec(63), "k-"+tc.name)
			if err != nil || dup {
				t.Fatalf("resubmitting the released key: %+v dup=%v err=%v", st, dup, err)
			}
		})
	}
}

// TestPreAckCloseDuringRun: Close during a run started at submission
// leaves the job either absent with its submission failed, or in flight
// (or finished) with its submission acknowledged — never acknowledged
// and lost, never on disk and refused.
func TestPreAckCloseDuringRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	for _, tc := range []struct {
		name      string
		partition string        // the harness/partition delay
		closeAt   time.Duration // after the run started
		absent    bool          // the outcome this timing forces
	}{
		// Closed inside the first partition: no step is committed, so
		// nothing carries the spec record and the job is withdrawn.
		{"before-first-step", "delay(300ms)@1", 50 * time.Millisecond, true},
		// Closed after steps committed: the cancel stop publishes them,
		// which carries the spec record; the job is parked in flight.
		{"after-steps", "delay(5ms)", 150 * time.Millisecond, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer failpoint.DisableAll()
			cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
			svc, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			priceDaemon(svc, 10*time.Second) // an 80 s budget
			if err := failpoint.Enable("harness/partition", tc.partition); err != nil {
				t.Fatal(err)
			}
			answered := make(chan answer, 1)
			go func() {
				st, _, err := svc.SubmitIdempotent(testSpec(), "close-key")
				answered <- answer{st, err}
			}()
			waitFor(t, 10*time.Second, "the run to start", func() bool { return svc.Stats().Running == 1 })
			time.Sleep(tc.closeAt)
			if err := svc.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			a := <-answered
			failpoint.DisableAll()
			if a.err != nil && !errors.Is(a.err, ErrClosed) {
				t.Fatalf("submission failed with %v, want ErrClosed", a.err)
			}
			if got := a.err != nil; got != tc.absent {
				t.Fatalf("submission err = %v, want absent = %v", a.err, tc.absent)
			}
			assertJobDirsHaveSpecs(t, cfg.DataDir)

			svc2, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopening: %v", err)
			}
			defer svc2.Close()
			if a.err != nil {
				if n := len(svc2.List("")); n != 0 {
					t.Fatalf("refused submission came back: %d jobs after the restart", n)
				}
				if recs := journalRecords(t, cfg.DataDir); len(recs) != 0 {
					t.Fatalf("journal holds %d records of a refused submission", len(recs))
				}
				return
			}
			js, dup, err := svc2.SubmitIdempotent(testSpec(), "close-key")
			if err != nil || !dup || js.ID != a.st.ID {
				t.Fatalf("key after restart: %+v dup=%v err=%v, want a duplicate of %s", js, dup, err, a.st.ID)
			}
			final := waitSucceeded(t, svc2, a.st.ID)
			assertMatchesDirect(t, final.Result, directRun(t, testSpec()))
		})
	}
}

// TestStartableRequiresEmptyQueueClosedBreakerAndFreeDevices pins which
// submissions start at once: only with nothing queued, the breaker
// closed (not open, not half-open) and the job's devices free.
func TestStartableRequiresEmptyQueueClosedBreakerAndFreeDevices(t *testing.T) {
	fresh := func() (*Service, *job) {
		s := &Service{
			queue: newFairQueue(),
			adm:   admission{capacity: 2},
			brk:   &breaker{threshold: 1, cooldown: time.Hour, now: time.Now},
		}
		return s, &job{id: "job-000000009", tenant: "t", cost: Cost{GPUs: 1}}
	}
	s, j := fresh()
	if !s.startableLocked(j) {
		t.Fatal("an idle daemon does not start a fitting job at once")
	}
	s, j = fresh()
	s.queue.Push(&job{id: "job-000000001", tenant: "u", cost: Cost{GPUs: 1}})
	if s.startableLocked(j) {
		t.Fatal("a job started at once past a queued one")
	}
	s, j = fresh()
	s.adm.reserve(Cost{GPUs: 2})
	if s.startableLocked(j) {
		t.Fatal("a job started at once without free devices")
	}
	s, j = fresh()
	s.brk.onFailure() // trips: open
	if s.startableLocked(j) {
		t.Fatal("a job started at once past an open breaker")
	}
	s.brk.now = func() time.Time { return time.Now().Add(2 * time.Hour) }
	if ok, probe := s.brk.allowed(); !ok || !probe {
		t.Fatal("the breaker did not turn half-open after its cooldown")
	}
	if s.startableLocked(j) {
		t.Fatal("a job started at once past a half-open breaker: the probe goes through the queue")
	}
	s, j = fresh()
	s.brk.threshold = -1 // disabled
	if !s.startableLocked(j) {
		t.Fatal("a disabled breaker keeps jobs from starting at once")
	}
}

// TestQueuedSubmissionCommitsSpecFirst: a submission that finds the
// devices busy takes the queue: its spec record is committed before the
// POST answers queued, and nothing is deferred.
func TestQueuedSubmissionCommitsSpecFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, ClusterGPUs: 1, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	if err := failpoint.Enable("harness/partition", "delay(200ms)@1"); err != nil {
		t.Fatal(err)
	}
	first, err := svc.Submit(testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	second, err := svc.Submit(cheapSpec(64))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if second.State != StateQueued.String() {
		t.Fatalf("submission behind a running job answered %s, want queued", second.State)
	}
	if got := jobRecordKinds(t, cfg.DataDir, second.ID); got != "spec" {
		t.Fatalf("journal records of the queued %s: %s, want its spec", second.ID, got)
	}
	waitSucceeded(t, svc, first.ID)
	waitSucceeded(t, svc, second.ID)
	// The first job started at once with no publish measured: its budget
	// was 0, so its submitter committed its spec. The queued one deferred
	// nothing.
	if s := svc.Stats().Submit; s.AnsweredAtSubmission != 0 || s.DeferredSpecs != (DeferredSpecStats{Budget: 1}) {
		t.Fatalf("submit stats %+v, want only the first job's spec, carried by a zero budget", s)
	}
}
