package service

// On-disk job layout (docs/SERVICE.md §6). Under the daemon's data
// directory:
//
//	jobs/<id>/spec.json     the submission, with resolved worker count
//	jobs/<id>/result.json   the terminal outcome (absent while in flight)
//	jobs/<id>/ckpt/         the job's generational checkpoint store,
//	                        created by its first publish
//
// Both JSON files publish through ckptstore.WriteFileAtomic, so a crash
// at any instant leaves a job either absent, in-flight (spec without
// result — restart resumes it from its checkpoint store, or reruns it
// when it has none), or terminal.
// Reads are bounded: a corrupt or hostile file cannot drive an unbounded
// allocation.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ckptstore"
)

const (
	jobsDirName    = "jobs"
	specFileName   = "spec.json"
	resultFileName = "result.json"
	ckptDirName    = "ckpt"
	jobIDPattern   = "job-%09d"
	// maxJobFileBytes bounds spec/result reads; both are a few KB in
	// practice.
	maxJobFileBytes = 16 << 20
)

// persistedJob is the spec file's wire form: the submission plus the
// fields Submit resolved (so a restarted daemon re-runs identically).
type persistedJob struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// Canceled records a user cancellation observed before the terminal
	// write, so a restart does not resurrect the job.
	Canceled bool `json:"canceled,omitempty"`
	// IdempotencyKey carries the submission's key across restarts so a
	// retried POST still lands on this job instead of re-executing.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// persistedResult is the result file's wire form: the terminal state, the
// result payload, and the cache key — persisted so a restarted daemon
// re-seeds its result cache without regenerating every finished cohort.
type persistedResult struct {
	State  string     `json:"state"`
	Key    CacheKey   `json:"cache_key"`
	Result *JobResult `json:"result"`
}

// terminalState decodes the persisted state, degrading unknown or
// non-terminal spellings (a newer daemon's vocabulary, manual edits) to
// failed rather than resurrecting the job.
func (p persistedResult) terminalState() JobState {
	st, err := ParseState(p.State)
	if err != nil || !st.Terminal() {
		return StateFailed
	}
	return st
}

// jobDir returns the directory of one job id.
func (s *Service) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, jobsDirName, id)
}

// writeJSONAtomic marshals v and publishes it crash-safely.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return ckptstore.WriteFileAtomic(path, data, 0o644)
}

// readJSONBounded reads a job file with a hard size cap.
func readJSONBounded(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, maxJobFileBytes+1))
	if err != nil {
		return err
	}
	if len(data) > maxJobFileBytes {
		return fmt.Errorf("service: %s exceeds %d bytes", filepath.Base(path), maxJobFileBytes)
	}
	return json.Unmarshal(data, v)
}

// scanJobDirs lists existing job ids in submission order and returns the
// next free numeric suffix.
func scanJobDirs(dataDir string) (ids []string, next uint64, err error) {
	dir := filepath.Join(dataDir, jobsDirName)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, 1, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("service: scanning %s: %w", dir, err)
	}
	next = 1
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || !strings.HasPrefix(name, "job-") {
			continue
		}
		n, perr := strconv.ParseUint(strings.TrimPrefix(name, "job-"), 10, 64)
		if perr != nil {
			continue
		}
		ids = append(ids, name)
		if n >= next {
			next = n + 1
		}
	}
	sort.Strings(ids)
	return ids, next, nil
}
