package service

import (
	"encoding/json"
	"testing"
)

// schemeSpec is a small 4-hit job whose wire scheme is scheme.
func schemeSpec(scheme string) JobSpec {
	return JobSpec{
		Tenant:  "alice",
		Cohort:  CohortSpec{Code: "BRCA", Genes: 24, Hits: 4, Seed: 3},
		Options: OptionsSpec{Workers: 2, Scheme: scheme},
	}
}

// TestWireSchemeSelectsNothing: the wire scheme is still accepted
// (TestSubmitValidation holds what it refuses), but every job scans with
// its hit count's kernel. A "2x2" job
// finishes with exactly the "auto" run's combos and work counts, and a
// "3x1" submission of the same cohort is answered from its cache entry.
func TestWireSchemeSelectsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery job")
	}
	svc, err := Open(Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	st := runToEnd(t, svc, schemeSpec("2x2"))
	if st.State != StateSucceeded.String() || st.Result == nil || st.Result.CachedFrom != "" {
		t.Fatalf("2x2 job ended %+v, want a fresh successful run", st)
	}
	assertMatchesDirect(t, st.Result, directRun(t, schemeSpec("auto")))

	hit, err := svc.Submit(schemeSpec("3x1"))
	if err != nil {
		t.Fatalf("submit 3x1: %v", err)
	}
	if hit.Result == nil || hit.Result.CachedFrom != st.ID {
		t.Fatalf("3x1 resubmission CachedFrom = %+v, want %s", hit.Result, st.ID)
	}
}

// TestRestoreKeyWithScheme: a result record written by a daemon whose
// cache key still carried the scheme (a "2x2" job's, value 3) restores
// unchanged and re-seeds the cache, so a repeat submission of the cohort
// is answered from it.
func TestRestoreKeyWithScheme(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a discovery job")
	}
	first := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet}
	svc, err := Open(first)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st := runToEnd(t, svc, schemeSpec("2x2"))
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := statusView(t, st)

	var data [][]byte
	withScheme := 0
	for _, r := range journalRecords(t, first.DataDir) {
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if r.Key != nil {
			var fields, key map[string]json.RawMessage
			if err := json.Unmarshal(raw, &fields); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(fields["cache_key"], &key); err != nil {
				t.Fatal(err)
			}
			key["Scheme"] = json.RawMessage("3")
			if fields["cache_key"], err = json.Marshal(key); err != nil {
				t.Fatal(err)
			}
			if raw, err = json.Marshal(fields); err != nil {
				t.Fatal(err)
			}
			withScheme++
		}
		data = append(data, raw)
	}
	if withScheme != 1 {
		t.Fatalf("journal holds %d keyed result records, want 1", withScheme)
	}
	second := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: quiet}
	writeJournalRaw(t, second.DataDir, data...)

	svc2, err := Open(second)
	if err != nil {
		t.Fatalf("opening on the earlier journal: %v", err)
	}
	defer svc2.Close()
	got, err := svc2.Get(st.ID)
	if err != nil {
		t.Fatalf("Get(%s): %v", st.ID, err)
	}
	if v := statusView(t, got); v != want {
		t.Fatalf("restored job reports\n%s\nwant\n%s", v, want)
	}
	again, err := svc2.Submit(schemeSpec("auto"))
	if err != nil {
		t.Fatalf("repeat submission: %v", err)
	}
	if again.Result == nil || again.Result.CachedFrom != st.ID {
		t.Fatalf("repeat submission CachedFrom = %+v, want %s", again.Result, st.ID)
	}
}
