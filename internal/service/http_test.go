package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/failpoint"
)

// startTestServer opens a service on a temp dir behind httptest.
func startTestServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// postJob submits a spec over HTTP and decodes the status.
func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) (*JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshaling spec: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var apiErr apiError
		_ = json.NewDecoder(resp.Body).Decode(&apiErr)
		return nil, &http.Response{StatusCode: resp.StatusCode, Status: apiErr.Error}
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding job status: %v", err)
	}
	return &st, resp
}

// TestHTTPSubmitPollAndList drives the REST surface end to end.
func TestHTTPSubmitPollAndList(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery job")
	}
	_, ts := startTestServer(t, Config{JobWorkers: 2})

	st, _ := postJob(t, ts, testSpec())
	if st == nil {
		t.Fatal("submission rejected")
	}
	if st.ID == "" || st.Tenant != "alice" {
		t.Fatalf("status = %+v", st)
	}

	// Poll to terminal.
	deadline := time.Now().Add(60 * time.Second)
	var final JobStatus
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		err = json.NewDecoder(resp.Body).Decode(&final)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding: %v", err)
		}
		if final.ExitCode != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not terminal after 60s: %+v", final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != StateSucceeded.String() || *final.ExitCode != ExitOK {
		t.Fatalf("final = %s exit %d, want succeeded/0", final.State, *final.ExitCode)
	}
	if final.Result == nil || len(final.Result.Combos) == 0 {
		t.Fatalf("no combos in result: %+v", final.Result)
	}

	// List with and without the tenant filter.
	for _, q := range []string{"", "?tenant=alice"} {
		resp, err := http.Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatalf("GET list%s: %v", q, err)
		}
		var list []JobStatus
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil || len(list) != 1 || list[0].ID != st.ID {
			t.Fatalf("list%s = %+v err=%v", q, list, err)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs?tenant=nobody")
	if err != nil {
		t.Fatalf("GET filtered list: %v", err)
	}
	var none []JobStatus
	err = json.NewDecoder(resp.Body).Decode(&none)
	resp.Body.Close()
	if err != nil || len(none) != 0 {
		t.Fatalf("foreign-tenant list = %+v err=%v", none, err)
	}

	// Stats reflect the run.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	var stats Stats
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil || stats.Jobs != 1 || stats.Cache.Entries != 1 {
		t.Fatalf("stats = %+v err=%v", stats, err)
	}
	// The job's spec and result records, made durable by one or two
	// fsyncs, are the journal; usage counts it.
	if d := stats.Disk; d.JournalAppends != 2 || d.JournalSyncs < 1 || d.JournalSyncs > 2 ||
		d.JournalBytes <= 0 || d.UsageBytes < d.JournalBytes {
		t.Fatalf("disk stats %+v, want 2 journal appends over 1-2 fsyncs, counted in usage", d)
	}
}

// TestHTTPErrorMapping pins the error → status translation.
func TestHTTPErrorMapping(t *testing.T) {
	_, ts := startTestServer(t, Config{ClusterGPUs: 1})

	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999999")
	if err != nil {
		t.Fatalf("GET missing job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job → %d, want 404", resp.StatusCode)
	}

	// Oversized → 422.
	huge := JobSpec{Cohort: CohortSpec{Code: "BRCA", Genes: 2000, Hits: 4, Seed: 1}}
	if st, r := postJob(t, ts, huge); st != nil || r.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("oversized → %d (%s), want 422", r.StatusCode, r.Status)
	}

	// Malformed JSON and unknown fields → 400.
	for _, body := range []string{"{not json", `{"cohort":{"code":"BRCA","hits":2},"surprise":1}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST bad body: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q → %d, want 400", body, resp.StatusCode)
		}
	}

	// Cancel of a missing job → 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE missing: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel missing → %d, want 404", resp.StatusCode)
	}
}

// TestHTTPEventStream subscribes over SSE and checks the frame protocol:
// a state snapshot first, then progress frames carrying partition
// tallies, then the terminal state that ends the stream.
func TestHTTPEventStream(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery job")
	}
	if err := failpoint.Enable("harness/partition", "delay(5ms)"); err != nil {
		t.Fatalf("arming delay: %v", err)
	}
	defer failpoint.DisableAll()
	_, ts := startTestServer(t, Config{JobWorkers: 2})

	st, _ := postJob(t, ts, testSpec())
	if st == nil {
		t.Fatal("submission rejected")
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	var sawSnapshot, sawProgress, sawCheckpoint bool
	var lastState string
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE data %q: %v", line, err)
		}
		switch e.Type {
		case "state":
			if !sawSnapshot {
				sawSnapshot = true
			}
			lastState = e.State
		case "progress":
			if e.Progress == nil || e.Progress.TotalPartitions == 0 {
				t.Fatalf("progress frame without tally: %+v", e)
			}
			sawProgress = true
		case "checkpoint":
			if e.Generation == 0 {
				t.Fatalf("checkpoint frame without generation: %+v", e)
			}
			sawCheckpoint = true
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if !sawSnapshot || !sawProgress || !sawCheckpoint {
		t.Fatalf("stream missing frames: snapshot=%v progress=%v checkpoint=%v",
			sawSnapshot, sawProgress, sawCheckpoint)
	}
	if lastState != StateSucceeded.String() {
		t.Fatalf("stream ended at state %q, want succeeded", lastState)
	}
}

// TestStateRoundTrip pins the wire spellings and the parse inverse.
func TestStateRoundTrip(t *testing.T) {
	for st := StateQueued; st <= StateCanceled; st++ {
		got, err := ParseState(st.String())
		if err != nil || got != st {
			t.Fatalf("ParseState(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := ParseState("flying"); err == nil {
		t.Fatal("ParseState accepted an unknown state")
	}
	if fmt.Sprint(StateQueued, StateRunning, StateSucceeded, StatePartial, StateFailed, StateCanceled) !=
		"queued running succeeded partial failed canceled" {
		t.Fatal("state spellings drifted from the documented API")
	}
}

// TestHTTPSpecWriteFailureStatus pins the status of a submission whose
// spec write fails: a full disk degrades the service and answers 503
// with Retry-After, so the client retries; any other I/O error is the
// daemon's fault and answers 500, never 400.
func TestHTTPSpecWriteFailureStatus(t *testing.T) {
	defer failpoint.DisableAll()
	for _, tc := range []struct {
		action   string
		status   int
		degraded bool
	}{
		{"diskfull", http.StatusServiceUnavailable, true},
		{"error", http.StatusInternalServerError, false},
	} {
		t.Run(tc.action, func(t *testing.T) {
			svc, ts := startTestServer(t, Config{})
			if err := failpoint.Enable("ckptstore/write", tc.action); err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(testSpec())
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			failpoint.Disable("ckptstore/write")
			if err != nil {
				t.Fatalf("POST /v1/jobs: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("spec write %s → %d, want %d", tc.action, resp.StatusCode, tc.status)
			}
			if got := resp.Header.Get("Retry-After") != ""; got != tc.degraded {
				t.Fatalf("Retry-After present = %v, want %v", got, tc.degraded)
			}
			if got := svc.Stats().Disk.Degraded != ""; got != tc.degraded {
				t.Fatalf("degraded = %v, want %v", got, tc.degraded)
			}
			if n := len(svc.List("")); n != 0 {
				t.Fatalf("%d jobs after a rejected submission, want 0", n)
			}
		})
	}
}
