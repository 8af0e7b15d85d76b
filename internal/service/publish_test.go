package service

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/failpoint"
)

// slowPublish is the write delay that prices a daemon's first checkpoint
// publishes: eight of them outlast any small job, whatever the disk.
const slowPublish = "delay(100ms)"

// runPricedJob runs one job with every durable write slowed by
// slowPublish, so the daemon measures a publish at least that expensive,
// and returns its id.
func runPricedJob(t *testing.T, svc *Service) string {
	t.Helper()
	if err := failpoint.Enable("ckptstore/write", slowPublish); err != nil {
		t.Fatal(err)
	}
	defer failpoint.Disable("ckptstore/write")
	st, err := svc.Submit(testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitSucceeded(t, svc, st.ID)
	if d := svc.Stats().Disk; d.CheapestPublishSec < 0.1 || d.CheckpointPublishes == 0 {
		t.Fatalf("after the priced job: disk stats %+v, want a measured publish ≥ 100ms", d)
	}
	return st.ID
}

// waitSucceeded waits for a job to end and requires it succeeded.
func waitSucceeded(t *testing.T, svc *Service, id string) *JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	st, err := svc.WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("WaitJob(%s): %v", id, err)
	}
	if st.State != StateSucceeded.String() {
		t.Fatalf("job %s ended %s (%+v), want succeeded", id, st.State, st.Result)
	}
	return st
}

// generations lists a job's checkpoint generations; nil when the job has
// no checkpoint directory.
func generations(t *testing.T, svc *Service, id string) []uint64 {
	t.Helper()
	dir := filepath.Join(svc.jobDir(id), ckptDirName)
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil
	}
	store, err := ckptstore.Open(dir, ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	return gens
}

// writeJournal appends records to the journal in dataDir, as a daemon
// that died after making them durable would have left it.
func writeJournal(t testing.TB, dataDir string, recs ...record) {
	t.Helper()
	jr, err := ckptstore.OpenJournal(filepath.Join(dataDir, journalName), func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, len(recs))
	for i, r := range recs {
		if data[i], err = json.Marshal(r); err != nil {
			t.Fatal(err)
		}
	}
	tk, err := jr.Append(data...)
	if err == nil {
		err = jr.Commit(tk)
	}
	if err == nil {
		err = jr.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// journalRecords decodes every record of the journal in dataDir. It reads
// a copy, so a live daemon's journal is never cut at a record it is still
// writing.
func journalRecords(t *testing.T, dataDir string) []record {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, journalName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), journalName)
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var recs []record
	jr, err := ckptstore.OpenJournal(cp, func(data []byte) error {
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// cheapSpec is a small job whose cohort differs from testSpec's, so the
// result cache cannot answer it.
func cheapSpec(seed int64) JobSpec {
	spec := testSpec()
	spec.Cohort.Seed = seed
	return spec
}

// TestPublishCheapJobLeavesNoCheckpoints: once the daemon has measured a
// publish, a fresh job cheaper than PublishRatio publishes makes its spec
// and result records its only durable writes — no jobs/<id>/ directory —
// and its result still equals the uninterrupted run.
func TestPublishCheapJobLeavesNoCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	svc, err := Open(Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()

	first := runPricedJob(t, svc)
	// The daemon's first job had no cost to go by: it published.
	if gens := generations(t, svc, first); len(gens) == 0 {
		t.Fatal("the daemon's first job published no checkpoint")
	}
	before := svc.Stats().Disk

	spec := cheapSpec(31)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitSucceeded(t, svc, st.ID)
	assertMatchesDirect(t, final.Result, directRun(t, spec))
	if _, err := os.Stat(svc.jobDir(st.ID)); !os.IsNotExist(err) {
		t.Fatalf("cheap job's directory: stat err = %v, want it absent", err)
	}
	after := svc.Stats().Disk
	if after.CheckpointPublishes != before.CheckpointPublishes || after.ResultWrites != before.ResultWrites+1 {
		t.Fatalf("disk stats %+v → %+v, want no checkpoint publish and one result write", before, after)
	}
}

// TestPublishRestoredJobPublishesFirstStep: a job restored at Open starts
// from its spec alone, and even once the daemon knows what a publish
// costs it publishes its first step, so repeated crashes still converge.
func TestPublishRestoredJobPublishesFirstStep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	dir := t.TempDir()
	// Two jobs a dead daemon accepted but never started. One simulated
	// GPU runs them in order: the first prices a publish, the second
	// starts with that price known.
	specs := []JobSpec{testSpec(), cheapSpec(32)}
	var recs []record
	for i := range specs {
		recs = append(recs, record{Kind: recordSpec, ID: fmt.Sprintf(jobIDPattern, i+1), Spec: &specs[i]})
	}
	writeJournal(t, dir, recs...)
	if err := failpoint.Enable("ckptstore/write", slowPublish); err != nil {
		t.Fatal(err)
	}
	svc, err := Open(Config{DataDir: dir, JobWorkers: 2, ClusterGPUs: 1, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer svc.Close()
	waitSucceeded(t, svc, "job-000000001")
	if d := svc.Stats().Disk; d.CheapestPublishSec < 0.1 {
		t.Fatalf("disk stats %+v after the first restored job, want a measured publish ≥ 100ms", d)
	}
	final := waitSucceeded(t, svc, "job-000000002")
	assertMatchesDirect(t, final.Result, directRun(t, specs[1]))
	if gens := generations(t, svc, "job-000000002"); len(gens) == 0 {
		t.Fatal("a restored job published no checkpoint")
	}
}

// TestPublishResultLostToCrashReruns: a daemon that dies after a job's
// run returns but before its result record lands has left only the spec
// record (and the job's checkpoints). The job is never reported terminal
// by the daemon that lost the record, and the next daemon reruns it from
// what is on disk, bit-identically.
func TestPublishResultLostToCrashReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs discovery jobs")
	}
	defer failpoint.DisableAll()
	cfg := Config{DataDir: t.TempDir(), JobWorkers: 2, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	// A fresh daemon has measured no publish, so the submission commits
	// its spec record alone: the journal's first append after arming.
	// Every later append is torn as a kill in the middle of the write
	// leaves it: half a frame on disk, no result record. The first
	// partition's delay keeps the run from reaching its result before the
	// spec record lands.
	if err := failpoint.Enable("ckptstore/journal-torn", "error@2-1000"); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("harness/partition", "delay(20ms)@1"); err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(33)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// A result that cannot be made durable parks the job in flight: it is
	// never reported terminal with nothing on disk to say so.
	if lost := waitSettled(t, ctx, svc, st.ID); lost.State != StateQueued.String() {
		t.Fatalf("job whose result write failed reports %s (%+v), want it parked as queued", lost.State, lost.Result)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	failpoint.DisableAll()
	for _, r := range journalRecords(t, cfg.DataDir) {
		if r.ID == st.ID && r.Kind != recordSpec {
			t.Fatalf("journal holds a %s record of %s after the lost write", r.Kind, st.ID)
		}
	}

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer svc2.Close()
	final := waitSucceeded(t, svc2, st.ID)
	assertMatchesDirect(t, final.Result, directRun(t, spec))
}
