package service

// Tests for the job journal (persist.go): restart from result records,
// crashes at every journal record, compaction at Open, and the refusal
// of the old per-job file layout.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
	"repro/internal/harness"
)

// quiet drops the daemon's log lines in tests that open many daemons.
func quiet(string, ...any) {}

// statusView is the part of a job's status that survives a restart
// (timestamps are per daemon life).
func statusView(t *testing.T, st *JobStatus) string {
	t.Helper()
	v, err := json.Marshal(struct {
		ID, Tenant, Priority, State string
		ExitCode                    *int
		Spec                        JobSpec
		Result                      *JobResult
	}{st.ID, st.Tenant, st.Priority, st.State, st.ExitCode, st.Spec, st.Result})
	if err != nil {
		t.Fatal(err)
	}
	return string(v)
}

// TestRestartRestoresFinishedJobsWithoutCohorts: a restarted daemon
// restores finished jobs from their result records alone — it generates
// none of their cohorts — reports them unchanged, and still answers a
// repeat submission from the re-seeded cache.
func TestRestartRestoresFinishedJobsWithoutCohorts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// 10 distinct cohorts submitted 5 times each: 10 runs, 40 cache hits.
	before := map[string]string{}
	for round := 0; round < 5; round++ {
		for seed := int64(0); seed < 10; seed++ {
			st, err := svc.Submit(cheapSpec(100 + seed))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			final, err := svc.WaitJob(ctx, st.ID)
			if err != nil || final.State != StateSucceeded.String() {
				t.Fatalf("job %s ended %+v (%v)", st.ID, final, err)
			}
			before[st.ID] = statusView(t, final)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer svc2.Close()
	if n := svc2.cohorts.Load(); n != 0 {
		t.Fatalf("restoring 50 finished jobs generated %d cohorts, want 0", n)
	}
	if n := len(svc2.List("")); n != len(before) {
		t.Fatalf("restored %d jobs, want %d", n, len(before))
	}
	for id, want := range before {
		st, err := svc2.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if got := statusView(t, st); got != want {
			t.Fatalf("restored %s reports\n%s\nwant\n%s", id, got, want)
		}
	}
	again, err := svc2.Submit(cheapSpec(103))
	if err != nil {
		t.Fatalf("repeat submission: %v", err)
	}
	if again.Result == nil || again.Result.CachedFrom == "" {
		t.Fatalf("repeat submission after restart was not a cache hit: %+v", again.Result)
	}
	assertMatchesDirect(t, again.Result, directRun(t, cheapSpec(103)))
}

// TestCrashAtEveryJournalRecord fails every journal write (a torn append)
// or every fsync from the n-th on, for each n a short scenario reaches,
// then restarts the daemon on what is left. Every acknowledged
// submission must come back exactly once under its idempotency key, no
// refused one may come back, a job reported terminal must have its result
// record on disk and come back from it without running again, every
// jobs/<id>/ directory must belong to a job whose spec record is durable,
// and every job must end bit-identical to an uninterrupted run.
func TestCrashAtEveryJournalRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	steps := []struct {
		key  string
		spec JobSpec
	}{{"a", testSpec()}, {"a-again", testSpec()}, {"b", cheapSpec(41)}}
	want := map[int64]*harness.Result{}
	for _, st := range steps {
		if want[st.spec.Cohort.Seed] == nil {
			want[st.spec.Cohort.Seed] = directRun(t, st.spec)
		}
	}
	// n grows until the scenario ends before its n-th hit, so the sweep
	// covers every journal append (and every fsync, checkpoint
	// publishes' included) a fault-free scenario makes. How many that is
	// varies between runs: checkpoints publish on the measured cadence,
	// and a job's spec record rides on its result record only when the
	// job beats its wait budget. So the sweep also covers the most hits
	// seen in any run (12 fsyncs, 6 appends on a 2-vCPU VM); a hit past
	// the scenario's end runs it fault-free.
	for _, fp := range []struct {
		name    string
		minHits int
	}{{"ckptstore/journal-torn", 6}, {"ckptstore/sync", 12}} {
		fired := true
		for n := 1; fired || n <= fp.minHits; n++ {
			if n > 100 {
				t.Fatalf("%s still fired at hit %d; the scenario does not end", fp.name, n)
			}
			t.Run(fmt.Sprintf("%s@%d", fp.name, n), func(t *testing.T) {
				defer failpoint.DisableAll()
				cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet}
				svc, err := Open(cfg)
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				if err := failpoint.Enable(fp.name, fmt.Sprintf("error@%d-1000", n)); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				acked := map[string]string{}    // idempotency key → job id
				terminal := map[string]string{} // job id → the state reported
				for _, st := range steps {
					js, _, err := svc.SubmitIdempotent(st.spec, st.key)
					if err != nil {
						if !errors.Is(err, ErrStorage) {
							t.Fatalf("submission %s refused with %v, want a storage error", st.key, err)
						}
						continue
					}
					acked[st.key] = js.ID
					// A job whose result record cannot be made durable is
					// parked in flight rather than reported terminal.
					if final := waitSettled(t, ctx, svc, js.ID); isTerminalState(final.State) {
						terminal[js.ID] = final.State
					}
				}
				if err := svc.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				fired = failpoint.Hits(fp.name) >= uint64(n)
				failpoint.DisableAll()
				t.Logf("%d submissions acknowledged, %d reported terminal before the crash", len(acked), len(terminal))
				results := map[string]string{}
				for _, r := range journalRecords(t, cfg.DataDir) {
					if r.Kind == recordResult {
						results[r.ID] = r.State
					}
				}
				for id, state := range terminal {
					if results[id] != state {
						t.Fatalf("job %s was reported %s, but its durable result record says %q", id, state, results[id])
					}
				}
				assertJobDirsHaveSpecs(t, cfg.DataDir)

				svc2, err := Open(cfg)
				if err != nil {
					t.Fatalf("reopening: %v", err)
				}
				defer svc2.Close()
				if got := len(svc2.List("")); got != len(acked) {
					t.Fatalf("restart holds %d jobs, want the %d acknowledged", got, len(acked))
				}
				for _, st := range steps {
					id, ok := acked[st.key]
					if !ok {
						continue
					}
					js, dup, err := svc2.SubmitIdempotent(st.spec, st.key)
					if err != nil || !dup || js.ID != id {
						t.Fatalf("key %s after restart: %+v dup=%v err=%v, want a duplicate of %s", st.key, js, dup, err, id)
					}
					final, err := svc2.WaitJob(ctx, id)
					if err != nil || final.State != StateSucceeded.String() {
						t.Fatalf("job %s ended %+v (%v), want succeeded", id, final, err)
					}
					assertMatchesDirect(t, final.Result, want[st.spec.Cohort.Seed])
				}
				// A job reported terminal was restored from its result
				// record: it has published no event in this daemon life.
				for id := range terminal {
					svc2.mu.Lock()
					j := svc2.jobs[id]
					svc2.mu.Unlock()
					j.mu.Lock()
					seq := j.seq
					j.mu.Unlock()
					if seq != 0 {
						t.Fatalf("job %s was reported terminal before the crash but ran again", id)
					}
				}
			})
		}
	}
}

// waitSettled waits until the job is terminal, or parked: not terminal,
// with nothing running or queued in the daemon.
func waitSettled(t *testing.T, ctx context.Context, svc *Service, id string) *JobStatus {
	t.Helper()
	for {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if isTerminalState(st.State) {
			return st
		}
		if stats := svc.Stats(); stats.Running == 0 && stats.Queued == 0 {
			if st, err = svc.Get(id); err == nil && !isTerminalState(st.State) {
				return st
			}
			continue
		}
		select {
		case <-ctx.Done():
			t.Fatalf("job %s never settled: %s", id, st.State)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func isTerminalState(state string) bool {
	st, err := ParseState(state)
	return err == nil && st.Terminal()
}

// assertJobDirsHaveSpecs requires every jobs/<id>/ directory to belong to
// a job whose spec record is in the journal: a directory is created only
// by a publish that follows a durable spec record, so a restarted daemon,
// which issues ids past every journaled one, never hands a fresh job an id
// whose directory exists.
func assertJobDirsHaveSpecs(t *testing.T, dataDir string) {
	t.Helper()
	specs := map[string]bool{}
	for _, r := range journalRecords(t, dataDir) {
		if r.Kind == recordSpec {
			specs[r.ID] = true
		}
	}
	entries, err := os.ReadDir(filepath.Join(dataDir, jobsDirName))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !specs[e.Name()] {
			t.Fatalf("jobs/%s exists without a durable spec record", e.Name())
		}
	}
}

// TestJournalSyncFailureRefusesSubmission: a submission whose spec record
// cannot be fsynced is refused — 503 with Retry-After on a full disk, 500
// otherwise — and a restart does not bring it back.
func TestJournalSyncFailureRefusesSubmission(t *testing.T) {
	defer failpoint.DisableAll()
	for _, tc := range []struct {
		action string
		status int
	}{
		{"diskfull", 503},
		{"error", 500},
	} {
		t.Run(tc.action, func(t *testing.T) {
			svc, ts := startTestServer(t, Config{})
			if err := failpoint.Enable("ckptstore/sync", tc.action); err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(testSpec())
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
			failpoint.Disable("ckptstore/sync")
			if err != nil {
				t.Fatalf("POST /v1/jobs: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("spec fsync %s → %d, want %d", tc.action, resp.StatusCode, tc.status)
			}
			if n := len(svc.List("")); n != 0 {
				t.Fatalf("%d jobs after a refused submission, want 0", n)
			}
			dataDir := svc.cfg.DataDir
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			svc2, err := Open(Config{DataDir: dataDir, Logf: quiet})
			if err != nil {
				t.Fatalf("reopening: %v", err)
			}
			defer svc2.Close()
			if n := len(svc2.List("")); n != 0 {
				t.Fatalf("%d jobs after a restart, want the refused submission gone", n)
			}
		})
	}
}

// TestRestoredPartialJobResumes: a partial job restored from its result
// record was never priced; Resume prices it, withdraws the result with a
// reopened record, and its next leg runs from the checkpoint store.
func TestRestoredPartialJobResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	spec := testSpec()
	spec.DeadlineSec = 1e-9
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if p, err := svc.WaitJob(ctx, st.ID); err != nil || p.State != StatePartial.String() {
		t.Fatalf("deadline job ended %+v (%v), want partial", p, err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	if _, err := svc2.Resume(st.ID); err != nil {
		t.Fatalf("Resume after restart: %v", err)
	}
	if n := svc2.cohorts.Load(); n != 1 {
		t.Fatalf("Resume generated %d cohorts, want the 1 that prices the job", n)
	}
	if p, err := svc2.WaitJob(ctx, st.ID); err != nil || p.State != StatePartial.String() {
		t.Fatalf("resumed deadline job ended %+v (%v), want partial again", p, err)
	}
	if err := svc2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var kinds []string
	for _, r := range journalRecords(t, cfg.DataDir) {
		kinds = append(kinds, r.Kind)
	}
	if got := strings.Join(kinds, ","); got != "spec,result,reopened,result" {
		t.Fatalf("journal records %s, want spec,result,reopened,result", got)
	}
}

// supersededJournal writes a journal in which each of three finished
// jobs was resumed twice: six records a job, of which two (the spec and
// the last result) are live.
func supersededJournal(t *testing.T, dataDir string) map[string]JobSpec {
	t.Helper()
	specs := map[string]JobSpec{}
	var recs []record
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf(jobIDPattern, i)
		spec := cheapSpec(int64(200 + i))
		spec.Options.Workers = 2
		specs[id] = spec
		key := CacheKey{TumorFP: uint64(i), Hits: 2}
		partial := &JobResult{Partial: true, Stop: "deadline"}
		done := &JobResult{Covered: i, Stop: "completed"}
		recs = append(recs,
			record{Kind: recordSpec, ID: id, Spec: &spec, IdempotencyKey: "key-" + id},
			record{Kind: recordResult, ID: id, State: StatePartial.String(), Key: &key, Result: partial},
			record{Kind: recordReopened, ID: id},
			record{Kind: recordResult, ID: id, State: StatePartial.String(), Key: &key, Result: partial},
			record{Kind: recordReopened, ID: id},
			record{Kind: recordResult, ID: id, State: StateSucceeded.String(), Key: &key, Result: done})
	}
	writeJournal(t, dataDir, recs...)
	return specs
}

// checkSupersededRestore requires the three jobs of supersededJournal
// restored as succeeded with their last results and idempotency keys.
func checkSupersededRestore(t *testing.T, svc *Service, specs map[string]JobSpec) {
	t.Helper()
	if n := len(svc.List("")); n != len(specs) {
		t.Fatalf("restored %d jobs, want %d", n, len(specs))
	}
	for id, spec := range specs {
		st, err := svc.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if st.State != StateSucceeded.String() || st.Result == nil || st.Result.Stop != "completed" {
			t.Fatalf("job %s restored as %s (%+v), want its last result", id, st.State, st.Result)
		}
		if dup, isDup, err := svc.SubmitIdempotent(spec, "key-"+id); err != nil || !isDup || dup.ID != id {
			t.Fatalf("key of %s after restore: %+v dup=%v err=%v", id, dup, isDup, err)
		}
	}
}

// TestOpenCompactsSupersededRecords: Open rewrites a journal whose
// superseded records outnumber its live ones down to the live records. A
// crash (an injected panic) at each step of the rewrite leaves the old
// journal whole, and the next Open restores the same jobs and compacts.
func TestOpenCompactsSupersededRecords(t *testing.T) {
	defer failpoint.DisableAll()
	for _, step := range []string{"", "ckptstore/write", "ckptstore/sync", "ckptstore/rename"} {
		name := step
		if name == "" {
			name = "no-crash"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet}
			specs := supersededJournal(t, cfg.DataDir)
			if step != "" {
				if err := failpoint.Enable(step, "panic"); err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						if r := recover(); !failpoint.IsPanic(r) {
							t.Fatalf("Open with %s armed: recovered %v, want the injected panic", step, r)
						}
					}()
					svc, err := Open(cfg)
					t.Fatalf("Open survived the compaction crash: %v, %v", svc, err)
				}()
				failpoint.Disable(step)
				if n := len(journalRecords(t, cfg.DataDir)); n != 18 {
					t.Fatalf("journal holds %d records after the crash, want the 18 it had", n)
				}
			}
			svc, err := Open(cfg)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			checkSupersededRestore(t, svc, specs)
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
			if n := len(journalRecords(t, cfg.DataDir)); n != 6 {
				t.Fatalf("journal holds %d records after Open, want the 6 live ones", n)
			}
			if _, err := os.Stat(filepath.Join(cfg.DataDir, journalName+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("compaction temp file left behind: %v", err)
			}
			svc, err = Open(cfg)
			if err != nil {
				t.Fatalf("reopening the compacted journal: %v", err)
			}
			defer svc.Close()
			checkSupersededRestore(t, svc, specs)
		})
	}
}

// TestOpenRefusesLegacyLayout: a data directory holding job spec files
// from the old per-job layout is refused with an error naming it, rather
// than opened as empty.
func TestOpenRefusesLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, jobsDirName, "job-000000001")
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobDir, "spec.json"), []byte(`{"id":"job-000000001"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := Open(Config{DataDir: dir, Logf: quiet})
	if err == nil {
		svc.Close()
		t.Fatal("Open accepted a data directory in the old layout")
	}
	if !strings.Contains(err.Error(), "jobs/<id>/spec.json") {
		t.Fatalf("Open error %q does not name the old layout", err)
	}
}

// BenchmarkOpenLongJournal prices a daemon start on a journal of 10,000
// finished jobs, which Open restores from their result records alone.
func BenchmarkOpenLongJournal(b *testing.B) {
	dir := b.TempDir()
	spec := testSpec()
	spec.Options.Workers = 2
	result := &JobResult{
		Combos:  []ComboResult{{GeneIDs: []int{3, 17}, Symbols: []string{"G3", "G17"}, F: 0.93, NewlyCovered: 40}},
		Covered: 40, Evaluated: 780, Stop: "completed", ElapsedSec: 0.004,
	}
	var recs []record
	for i := 1; i <= 10_000; i++ {
		id := fmt.Sprintf(jobIDPattern, i)
		s := spec
		s.Cohort.Seed = int64(i)
		key := CacheKey{TumorFP: uint64(i), NormalFP: uint64(i), Hits: 2}
		recs = append(recs,
			record{Kind: recordSpec, ID: id, Spec: &s},
			record{Kind: recordResult, ID: id, State: StateSucceeded.String(), Key: &key, Result: result})
	}
	writeJournal(b, dir, recs...)
	cfg := Config{DataDir: dir, Logf: quiet}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if n := svc.cohorts.Load(); n != 0 {
			b.Fatalf("Open generated %d cohorts", n)
		}
		if err := svc.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
