package service

// Durable job state (docs/SERVICE.md §6). Under the daemon's data
// directory:
//
//	journal.mhj        every job's records, one CRC-framed journal
//	                   (ckptstore.Journal), group-committed
//	jobs/<id>/ckpt/    the job's generational checkpoint store, created
//	                   (with jobs/<id>/) by its first publish
//
// A job writes three kinds of record: spec (the submission with its
// resolved worker count and idempotency key), result (the terminal state,
// result and cache key) and reopened (Resume withdrew the result). A
// job's spec record is durable before its submission is answered and
// before jobs/<id>/ exists; a job started at submission commits it with
// its first durable write (preack.go). Replay reads them in order, so a
// crash at any instant leaves a job in one of three legible states:
//
//   - absent: no spec record is durable, so the submission was never
//     acknowledged;
//   - in flight: a spec record and no result record after the job's last
//     reopened record; restart resumes it from its checkpoint store, or
//     reruns it when it has none;
//   - terminal: a result record is the job's last word; restart restores
//     it from that record without regenerating its cohort.
//
// A torn record is the journal's tail (ckptstore.Journal cuts failed
// writes before the next append), so it hides no later record.

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/ckptstore"
)

const (
	jobsDirName  = "jobs"
	journalName  = "journal.mhj"
	ckptDirName  = "ckpt"
	jobIDPattern = "job-%09d"
)

// Record kinds.
const (
	recordSpec     = "spec"
	recordResult   = "result"
	recordReopened = "reopened"
)

// record is one journal entry's wire form.
type record struct {
	Kind string `json:"kind"`
	ID   string `json:"id"`

	// Spec records: the submission plus the fields Submit resolved, so a
	// restarted daemon re-runs identically.
	Spec *JobSpec `json:"spec,omitempty"`
	// IdempotencyKey carries the submission's key across restarts so a
	// retried POST still lands on this job instead of re-executing.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// Result records: the terminal state, the result payload and the
	// cache key, so a restarted daemon restores the job and re-seeds its
	// result cache without regenerating the cohort.
	State  string     `json:"state,omitempty"`
	Key    *CacheKey  `json:"cache_key,omitempty"`
	Result *JobResult `json:"result,omitempty"`
}

// specRecord is the job's spec record.
func specRecord(j *job) record {
	j.mu.Lock()
	defer j.mu.Unlock()
	spec := j.spec
	return record{Kind: recordSpec, ID: j.id, Spec: &spec, IdempotencyKey: j.idemKey}
}

// resultRecord is the job's result record for a terminal state.
func resultRecord(j *job, state JobState, key CacheKey) record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return record{Kind: recordResult, ID: j.id, State: state.String(), Key: &key, Result: j.result}
}

// terminalState decodes a result record's state, degrading unknown or
// non-terminal spellings (a newer daemon's vocabulary, manual edits) to
// failed rather than resurrecting the job.
func (r *record) terminalState() JobState {
	st, err := ParseState(r.State)
	if err != nil || !st.Terminal() {
		return StateFailed
	}
	return st
}

// jobDir returns the checkpoint directory root of one job id.
func (s *Service) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, jobsDirName, id)
}

// commit appends records to the journal in one write and returns once an
// fsync covers them: either all of them are durable or, after an error,
// none is left to replay.
func (s *Service) commit(recs ...record) error {
	data := make([][]byte, len(recs))
	for i, r := range recs {
		var err error
		if data[i], err = json.Marshal(r); err != nil {
			return err
		}
	}
	t, err := s.journal.Append(data...)
	if err != nil {
		return err
	}
	return s.journal.Commit(t)
}

// replayed is one job's state as the journal left it.
type replayed struct {
	spec   *record
	result *record // nil while in flight
}

// journalState is the journal folded into per-job states.
type journalState struct {
	jobs  map[string]*replayed
	order []string // job ids in journal order
	next  uint64   // the next free job id number
	// records counts every record the journal holds; live counts those
	// the folded states still need (each job's spec and latest result).
	records, live int
}

// replayJournal opens the journal and folds its records into per-job
// states.
func replayJournal(dataDir string, logf func(string, ...any)) (*ckptstore.Journal, *journalState, error) {
	js := &journalState{jobs: map[string]*replayed{}, next: 1}
	jr, err := ckptstore.OpenJournal(filepath.Join(dataDir, journalName), func(data []byte) error {
		js.records++
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			logf("service: skipping journal record %d: %v", js.records, err)
			return nil
		}
		st := js.jobs[r.ID]
		switch {
		case r.Kind == recordSpec && st == nil && r.Spec != nil:
			js.jobs[r.ID] = &replayed{spec: &r}
			js.order = append(js.order, r.ID)
			if n, err := strconv.ParseUint(strings.TrimPrefix(r.ID, "job-"), 10, 64); err == nil && n >= js.next {
				js.next = n + 1
			}
		case r.Kind == recordResult && st != nil:
			st.result = &r
		case r.Kind == recordReopened && st != nil:
			st.result = nil
		default:
			logf("service: skipping journal record %d: %s record of job %q", js.records, r.Kind, r.ID)
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("service: %w", err)
	}
	for _, st := range js.jobs {
		js.live++
		if st.result != nil {
			js.live++
		}
	}
	return jr, js, nil
}

// compact rewrites the journal with each job's spec and latest result
// record when superseded records (withdrawn or replaced results, records
// that do not decode) outnumber the live ones. A failed compaction leaves
// the journal as it was and is only logged.
func (s *Service) compact(js *journalState) {
	if js.records-js.live <= js.live {
		return
	}
	recs := make([][]byte, 0, js.live)
	for _, id := range js.order {
		st := js.jobs[id]
		for _, r := range []*record{st.spec, st.result} {
			if r == nil {
				continue
			}
			data, err := json.Marshal(r)
			if err != nil {
				s.cfg.Logf("service: not compacting the journal: %v", err)
				return
			}
			recs = append(recs, data)
		}
	}
	if err := s.journal.Compact(recs); err != nil {
		s.cfg.Logf("service: not compacting the journal: %v", err)
		return
	}
	s.cfg.Logf("service: compacted the journal from %d records to %d", js.records, len(recs))
}

// checkLayout refuses a data directory written by a daemon that kept each
// job's spec and result as files under jobs/<id>/: this daemon reads job
// state only from the journal, so it would silently lose those jobs.
func checkLayout(dataDir string) error {
	legacy, err := filepath.Glob(filepath.Join(dataDir, jobsDirName, "*", "spec.json"))
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if len(legacy) > 0 {
		return fmt.Errorf("service: %s holds %d jobs in the old per-job file layout (jobs/<id>/spec.json and result.json); "+
			"this daemon keeps job specs and results in %s only — drain it with the daemon that wrote it, or use a fresh -data-dir",
			dataDir, len(legacy), journalName)
	}
	return nil
}
