package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cover"
	"repro/internal/failpoint"
)

// retentionSpec is serve_mix's job: a small ACC 3-hit cohort.
func retentionSpec(seed int64) JobSpec {
	return JobSpec{Tenant: "alice", Cohort: CohortSpec{Code: "ACC", Genes: 60, Hits: 3, Seed: seed}}
}

// liveHeap returns the heap's bytes and objects after a full collection.
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.HeapObjects
}

// runToEnd submits spec and waits for its terminal status.
func runToEnd(t testing.TB, svc *Service, spec JobSpec) *JobStatus {
	t.Helper()
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	final, err := svc.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob %s: %v", st.ID, err)
	}
	return final
}

// TestFinishedJobRetention holds what a daemon keeps per finished job:
// its compact result, its encoded history and its record, and nothing a
// running job needs.
func TestFinishedJobRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 500 discovery jobs")
	}
	const (
		measured    = 300
		maxBytes    = 2500
		maxObjects  = 12
		warmupSeeds = 200 // more than the result cache holds
	)
	svc, err := Open(Config{DataDir: t.TempDir(), JobWorkers: 2})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	// Warm up: fill the result cache and the intern table, so the
	// measured jobs add only what each keeps.
	for seed := int64(1); seed <= warmupSeeds; seed++ {
		runToEnd(t, svc, retentionSpec(seed))
	}
	bytes0, objects0 := liveHeap()
	for seed := int64(1); seed <= measured; seed++ {
		if st := runToEnd(t, svc, retentionSpec(1000+seed)); st.State != StateSucceeded.String() {
			t.Fatalf("job %s ended %s", st.ID, st.State)
		}
	}
	bytes1, objects1 := liveHeap()
	perBytes := (float64(bytes1) - float64(bytes0)) / measured
	perObjects := (float64(objects1) - float64(objects0)) / measured
	t.Logf("retained per finished job: %.0f B, %.1f objects", perBytes, perObjects)
	if perBytes > maxBytes || perObjects > maxObjects {
		t.Fatalf("a finished job keeps %.0f B in %.1f objects, want at most %d B in %d", perBytes, perObjects, maxBytes, maxObjects)
	}
	if got := svc.Stats().Memory.FinishedJobs; got != warmupSeeds+measured {
		t.Fatalf("stats count %d finished jobs, want %d", got, warmupSeeds+measured)
	}
}

// fullForms is a job's answer as it stands just before its terminal
// transition: its spec, its full result and its live ring of frames.
type fullForms struct {
	spec   JobSpec
	result *JobResult
	events []Event
}

// captureFullForms waits for job id to hold its outcome while its result
// record is made durable, the last moment before its terminal transition
// (the test delays every fsync to widen it), and copies its full forms.
func captureFullForms(t *testing.T, svc *Service, id string) fullForms {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		svc.mu.Lock()
		j := svc.jobs[id]
		svc.mu.Unlock()
		if j == nil {
			continue
		}
		j.mu.Lock()
		terminal, result := j.state.Terminal(), j.result
		f := fullForms{spec: j.spec, result: result, events: append([]Event(nil), j.events...)}
		j.mu.Unlock()
		if terminal {
			t.Fatalf("%s turned terminal before its outcome was seen", id)
		}
		if result != nil {
			return f
		}
	}
	t.Fatalf("%s never held an outcome", id)
	return fullForms{}
}

// httpBody returns the body of a request to the test server.
func httpBody(t *testing.T, method, url, lastEventID string, body []byte) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("%s %s: %s: %s", method, url, resp.Status, out)
	}
	return out
}

// member returns one member of a JSON object, as encoded.
func member(t *testing.T, doc []byte, name string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("decoding %s: %v", doc, err)
	}
	return m[name]
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// replayOf is the SSE replay from Last-Event-ID 0 of a terminal job that
// held events before its terminal frame: the snapshot, the frames, and
// the terminal state frame.
func replayOf(id, state string, events []Event) []byte {
	rec := httptest.NewRecorder()
	writeSSE(rec, Event{Type: "state", JobID: id, State: state})
	for _, e := range events {
		writeSSE(rec, e)
	}
	writeSSE(rec, Event{Type: "state", JobID: id, Seq: events[len(events)-1].Seq + 1, State: state})
	return rec.Body.Bytes()
}

// TestFinishedJobAnswersUnchanged pins the byte-identical-answers rule
// (docs/INVARIANTS.md): GET, List, the POST answer and the SSE replay of
// a finished job are the bytes its full result and ring of frames encode
// to, for a job that ran, a cache hit, a failed job and a resumed
// partial job, and GET and List answer the same after a restart.
func TestFinishedJobAnswersUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	if err := failpoint.Enable("ckptstore/sync", "delay(300ms)"); err != nil {
		t.Fatal(err)
	}
	defer failpoint.DisableAll()
	cfg := Config{DataDir: t.TempDir(), ClusterGPUs: DefaultClusterGPUs, JobWorkers: 2, Logf: quiet}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer func() { ts.Close(); svc.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// submit POSTs spec and captures the job's full forms before its
	// terminal transition, then waits for it to finish.
	submit := func(spec JobSpec) (string, fullForms) {
		t.Helper()
		// Hold every device while the POST is answered, so the job
		// queues instead of starting at submission: its result record
		// is written after the POST returns, while the test watches.
		hold := Cost{GPUs: cfg.ClusterGPUs}
		svc.mu.Lock()
		svc.adm.reserve(hold)
		svc.mu.Unlock()
		body := httpBody(t, "POST", ts.URL+"/v1/jobs", "", mustJSON(t, spec))
		svc.mu.Lock()
		svc.adm.release(hold)
		svc.cond.Broadcast()
		svc.mu.Unlock()
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateQueued.String() {
			t.Fatalf("%s is %s at submission, want queued", st.ID, st.State)
		}
		f := captureFullForms(t, svc, st.ID)
		if _, err := svc.WaitJob(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		return st.ID, f
	}
	// check compares a finished job's GET, List entry and replay with its
	// full forms.
	check := func(id string, want fullForms, wantState string) {
		t.Helper()
		get := httpBody(t, "GET", ts.URL+"/v1/jobs/"+id, "", nil)
		if got := string(member(t, get, "state")); got != `"`+wantState+`"` {
			t.Fatalf("%s is %s, want %s", id, got, wantState)
		}
		if got, w := member(t, get, "result"), mustJSON(t, want.result); !bytes.Equal(got, w) {
			t.Fatalf("%s GET result\n got %s\nwant %s", id, got, w)
		}
		if got, w := member(t, get, "spec"), mustJSON(t, want.spec); !bytes.Equal(got, w) {
			t.Fatalf("%s GET spec\n got %s\nwant %s", id, got, w)
		}
		var list []json.RawMessage
		if err := json.Unmarshal(httpBody(t, "GET", ts.URL+"/v1/jobs", "", nil), &list); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, doc := range list {
			if string(member(t, doc, "id")) == `"`+id+`"` {
				found = true
				if !bytes.Equal(doc, bytes.TrimSuffix(get, []byte("\n"))) {
					t.Fatalf("%s List entry\n got %s\nwant %s", id, doc, get)
				}
			}
		}
		if !found {
			t.Fatalf("List lacks %s", id)
		}
		if want.events == nil {
			return
		}
		if got, w := httpBody(t, "GET", ts.URL+"/v1/jobs/"+id+"/events", "0", nil), replayOf(id, wantState, want.events); !bytes.Equal(got, w) {
			t.Fatalf("%s SSE replay\n got %s\nwant %s", id, got, w)
		}
	}

	// A job that ran.
	ranSpec := retentionSpec(7)
	ran, ranForms := submit(ranSpec)
	if len(ranForms.result.Combos) == 0 || len(ranForms.result.Combos[0].Symbols) == 0 {
		t.Fatalf("%s found no named combination: %+v", ran, ranForms.result)
	}
	check(ran, ranForms, "succeeded")

	// A cache hit: the POST answers with the producing job's result.
	post := httpBody(t, "POST", ts.URL+"/v1/jobs", "", mustJSON(t, ranSpec))
	hitID := strings.Trim(string(member(t, post, "id")), `"`)
	hitResult := *ranForms.result
	hitResult.CachedFrom = ran
	hitForms := fullForms{spec: ranForms.spec, result: &hitResult}
	if got, w := member(t, post, "result"), mustJSON(t, &hitResult); !bytes.Equal(got, w) {
		t.Fatalf("cache-hit POST result\n got %s\nwant %s", got, w)
	}
	check(hitID, hitForms, "succeeded")

	// A failed job.
	if err := failpoint.Enable("harness/crash", "error"); err != nil {
		t.Fatal(err)
	}
	failed, failedForms := submit(retentionSpec(8))
	failpoint.Disable("harness/crash")
	if failedForms.result.Error == "" {
		t.Fatalf("%s did not fail: %+v", failed, failedForms.result)
	}
	check(failed, failedForms, "failed")

	// A partial job, resumed: its second leg's frames continue the
	// first's, which come back from the encoded history.
	early := retentionSpec(9)
	early.DeadlineSec = 1e-9
	partial, leg1 := submit(early)
	check(partial, leg1, "partial")
	httpBody(t, "POST", ts.URL+"/v1/jobs/"+partial+"/resume", "", nil)
	leg2 := captureFullForms(t, svc, partial)
	if _, err := svc.WaitJob(ctx, partial); err != nil {
		t.Fatal(err)
	}
	wantLeg1 := append(leg1.events, Event{Type: "state", JobID: partial, Seq: leg1.events[len(leg1.events)-1].Seq + 1, State: "partial"})
	if got, w := mustJSON(t, leg2.events[:len(wantLeg1)]), mustJSON(t, wantLeg1); !bytes.Equal(got, w) {
		t.Fatalf("reopened history\n got %s\nwant %s", got, w)
	}
	check(partial, leg2, "partial")

	// After a restart, GET and List answer the same; the event history,
	// as before this form, does not survive it.
	ts.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if svc, err = Open(cfg); err != nil {
		t.Fatalf("reopening: %v", err)
	}
	ts = httptest.NewServer(svc.Handler())
	for _, c := range []struct {
		id    string
		forms fullForms
		state string
	}{{ran, ranForms, "succeeded"}, {hitID, hitForms, "succeeded"}, {failed, failedForms, "failed"}, {partial, leg2, "partial"}} {
		c.forms.events = nil
		check(c.id, c.forms, c.state)
	}
}

// TestStatsEnginesMatchList: the per-engine counters /v1/stats keeps
// equal a recount over List after a mix of engines, a cache hit, a
// withdrawn submission and a restart.
func TestStatsEnginesMatchList(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	recount := func(svc *Service) {
		t.Helper()
		want := map[string]int{}
		for _, st := range svc.List("") {
			e, err := cover.ParseEngine(st.Spec.Options.Engine)
			if err != nil {
				t.Fatal(err)
			}
			want[e.String()]++
		}
		if got := svc.Stats().Engines; !maps.Equal(got, want) {
			t.Fatalf("stats count engines %v, List recounts %v", got, want)
		}
	}
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, engine := range []string{"", "dense", "sparse", "auto", "dense"} {
		spec := retentionSpec(int64(20 + i))
		spec.Options.Engine = engine
		runToEnd(t, svc, spec)
	}
	if st := runToEnd(t, svc, retentionSpec(20)); st.Result.CachedFrom == "" {
		t.Fatalf("%s was no cache hit", st.ID)
	}
	recount(svc)

	// A submission whose deferred spec record fails is withdrawn: never
	// listed, never counted.
	priceDaemon(svc, 0)
	if err := failpoint.Enable("service/deferred-spec", "error"); err != nil {
		t.Fatal(err)
	}
	withdrawn := retentionSpec(30)
	withdrawn.Options.Engine = "sparse"
	if _, err := svc.Submit(withdrawn); err == nil {
		t.Fatal("a submission whose spec record failed was accepted")
	}
	failpoint.Disable("service/deferred-spec")
	waitFor(t, 30*time.Second, "the withdrawn run to end", func() bool { return svc.Stats().Running == 0 })
	recount(svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc, err = Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer svc.Close()
	recount(svc)
	if got := svc.Stats().Memory.FinishedJobs; got != 6 {
		t.Fatalf("restored daemon counts %d finished jobs, want 6", got)
	}
}

// TestFinishedJobConcurrentReaders runs jobs and reads finished ones from
// several goroutines at once: compaction, the intern table and history
// decoding under concurrent GET, List and replays. Two replays of one
// finished job deliver the same frames.
func TestFinishedJobConcurrentReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	svc, err := Open(Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	replay := func(id string) ([]byte, error) {
		sub, err := svc.Subscribe(id, 0)
		if err != nil {
			return nil, err
		}
		var frames []byte
		for {
			e, ok := sub.Next(ctx)
			if !ok {
				return frames, nil
			}
			b, err := json.Marshal(e)
			if err != nil {
				return nil, err
			}
			frames = append(append(frames, b...), '\n')
		}
	}
	const workers, perWorker = 4, 6
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			errs <- func() error {
				for i := 0; i < perWorker; i++ {
					// Every other job repeats a seed another worker runs,
					// so cache hits share compact results as they are read.
					st, err := svc.Submit(retentionSpec(int64(100 + (w*perWorker+i)/2)))
					if err != nil {
						return err
					}
					first, err := replay(st.ID)
					if err != nil {
						return err
					}
					if _, err := svc.WaitJob(ctx, st.ID); err != nil {
						return err
					}
					second, err := replay(st.ID)
					if err != nil {
						return err
					}
					if !bytes.Equal(first, second) {
						return fmt.Errorf("%s replays differ:\n%s\nand\n%s", st.ID, first, second)
					}
					if _, err := svc.Get(st.ID); err != nil {
						return err
					}
					svc.List("")
				}
				return nil
			}()
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Stats().Memory.FinishedJobs; got != workers*perWorker {
		t.Fatalf("stats count %d finished jobs, want %d", got, workers*perWorker)
	}
}
