package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// cheapSpec is a small job whose cohort differs from testSpec's, so the
// result cache cannot answer it.
func cheapSpec(seed int64) JobSpec {
	spec := testSpec()
	spec.Cohort.Seed = seed
	return spec
}

// TestPublishCheapJobLeavesNoCheckpoints: once the daemon has measured a
// publish, a fresh job cheaper than publishRatio publishes makes its spec
// and its result file its only durable writes — no checkpoint directory —
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
	if _, err := os.Stat(filepath.Join(svc.jobDir(st.ID), ckptDirName)); !os.IsNotExist(err) {
		t.Fatalf("cheap job's checkpoint directory: stat err = %v, want it absent", err)
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
	for i, spec := range specs {
		id := fmt.Sprintf(jobIDPattern, i+1)
		jobDir := filepath.Join(dir, jobsDirName, id)
		if err := os.MkdirAll(jobDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSONAtomic(filepath.Join(jobDir, specFileName), persistedJob{ID: id, Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
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

// TestPublishResultLostToCrashReruns: a daemon that dies after a cheap
// job's run returns but before its result file lands has left only the
// spec. The next daemon reruns the job from it, bit-identically.
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
	runPricedJob(t, svc)

	// The spec write is the rename's first hit after arming; every later
	// one fails as a kill between fsync and rename leaves it: temp file
	// written, result.json absent. The cheap job publishes no
	// checkpoint, so its next write is its result file.
	if err := failpoint.Enable("ckptstore/rename", "error@2-1000"); err != nil {
		t.Fatal(err)
	}
	spec := cheapSpec(33)
	st, err := svc.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	lost, err := svc.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	// A result that cannot be made durable fails the job: it is never
	// reported succeeded with nothing on disk.
	if lost.State != StateFailed.String() || lost.Result == nil || !strings.Contains(lost.Result.Error, resultFileName) {
		t.Fatalf("job whose result write failed ended %s (%+v), want failed on %s", lost.State, lost.Result, resultFileName)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	failpoint.Disable("ckptstore/rename")
	if _, err := os.Stat(filepath.Join(svc.jobDir(st.ID), resultFileName)); !os.IsNotExist(err) {
		t.Fatalf("result file after the lost write: stat err = %v, want it absent", err)
	}

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer svc2.Close()
	final := waitSucceeded(t, svc2, st.ID)
	assertMatchesDirect(t, final.Result, directRun(t, spec))
}
