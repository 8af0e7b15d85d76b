package service

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/harness"
)

// Priority is a job's scheduling class. Within the daemon, every queued
// job of a higher class starts before any job of a lower one; within a
// class, tenants share starts fairly (see queue.go).
type Priority int

const (
	// PriorityBatch is background work: large sweeps, recomputation.
	PriorityBatch Priority = iota
	// PriorityNormal is the default interactive class.
	PriorityNormal
	// PriorityUrgent jumps every other class.
	PriorityUrgent
)

// String names the class as the HTTP API spells it.
func (p Priority) String() string {
	switch p {
	case PriorityBatch:
		return "batch"
	case PriorityNormal:
		return "normal"
	case PriorityUrgent:
		return "urgent"
	}
	return fmt.Sprintf("Priority(%d)", int(p))
}

// ParsePriority resolves the wire spelling; empty means normal.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "normal":
		return PriorityNormal, nil
	case "batch":
		return PriorityBatch, nil
	case "urgent":
		return PriorityUrgent, nil
	}
	return PriorityNormal, fmt.Errorf("service: unknown priority %q (want batch, normal or urgent)", s)
}

// CohortSpec names a seeded synthetic cohort. Generation is deterministic
// in (Code, Genes, Hits, Seed), which is what lets a restarted daemon
// rebuild a job's matrices bit-identically and lets the result cache key
// on the matrix fingerprints.
type CohortSpec struct {
	// Code is the TCGA study code (BRCA, LGG, ...).
	Code string `json:"code"`
	// Genes scales the gene universe; 0 keeps the registry default.
	Genes int `json:"genes,omitempty"`
	// Hits is the combination size the cohort plants, 2 to
	// cover.MaxHits.
	Hits int `json:"hits"`
	// Seed seeds the generator.
	Seed int64 `json:"seed"`
}

// Generate builds the cohort. Deterministic: equal specs yield matrices
// with equal fingerprints.
func (c CohortSpec) Generate() (*dataset.Cohort, error) {
	spec, err := dataset.ByCode(c.Code)
	if err != nil {
		return nil, err
	}
	if c.Hits < 2 || c.Hits > cover.MaxHits {
		return nil, fmt.Errorf("service: cohort hits must be 2-%d, got %d", cover.MaxHits, c.Hits)
	}
	spec.Hits = c.Hits
	// The registry's positional-mutation profiles assume the study's
	// native hit count; discovery jobs don't read them.
	spec.Profiled = nil
	if c.Genes > 0 {
		spec = spec.Scaled(c.Genes)
	}
	return dataset.Generate(spec, c.Seed)
}

// OptionsSpec is the wire form of the engine options a submitter may set.
// Everything omitted takes the engine default; Workers is resolved to the
// daemon's per-job worker count at submission so a restarted daemon
// re-runs the job with the identical partition plan.
type OptionsSpec struct {
	Alpha     float64 `json:"alpha,omitempty"`
	Scheme    string  `json:"scheme,omitempty"`
	Scheduler string  `json:"scheduler,omitempty"`
	Workers   int     `json:"workers,omitempty"`
	Kernelize bool    `json:"kernelize,omitempty"`
	// Engine is "auto" (default), "dense" or "sparse" (docs/SPARSE.md).
	// An execution knob: it changes scan speed, never results, so the
	// result cache canonicalizes it away like Workers and Scheduler.
	Engine        string `json:"engine,omitempty"`
	MaxIterations int    `json:"max_iterations,omitempty"`
}

// CoverOptions resolves the wire options against the cohort's hit count.
func (o OptionsSpec) CoverOptions(hits int) (cover.Options, error) {
	opt := cover.Options{
		Hits:          hits,
		Alpha:         o.Alpha,
		Workers:       o.Workers,
		Kernelize:     o.Kernelize,
		MaxIterations: o.MaxIterations,
	}
	switch strings.ToLower(strings.TrimSpace(o.Scheme)) {
	case "", "auto":
		opt.Scheme = cover.SchemeAuto
	case "pair":
		opt.Scheme = cover.SchemePair
	case "2x1":
		opt.Scheme = cover.Scheme2x1
	case "2x2":
		opt.Scheme = cover.Scheme2x2
	case "3x1":
		opt.Scheme = cover.Scheme3x1
	default:
		return opt, fmt.Errorf("service: unknown scheme %q", o.Scheme)
	}
	switch strings.ToUpper(strings.TrimSpace(o.Scheduler)) {
	case "", "EA":
		opt.Scheduler = cover.EquiArea
	case "ED":
		opt.Scheduler = cover.EquiDistance
	default:
		return opt, fmt.Errorf("service: unknown scheduler %q", o.Scheduler)
	}
	engine, err := cover.ParseEngine(strings.ToLower(strings.TrimSpace(o.Engine)))
	if err != nil {
		return opt, err
	}
	opt.Engine = engine
	return opt, nil
}

// JobSpec is one submission. It is persisted verbatim (plus the resolved
// worker count) in the job directory, so a restarted daemon can rebuild
// the exact run.
type JobSpec struct {
	// Tenant is the fair-share accounting identity; empty means
	// "default".
	Tenant string `json:"tenant,omitempty"`
	// Priority is batch, normal (default) or urgent.
	Priority string `json:"priority,omitempty"`
	// Cohort names the seeded input.
	Cohort CohortSpec `json:"cohort"`
	// Options tunes the engine.
	Options OptionsSpec `json:"options"`
	// DeadlineSec, when positive, bounds the job's wall clock per leg;
	// an expired job parks as partial with a checkpoint.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

// ComboResult is one discovered combination in the job result.
type ComboResult struct {
	GeneIDs      []int    `json:"gene_ids"`
	Symbols      []string `json:"symbols,omitempty"`
	F            float64  `json:"f"`
	NewlyCovered int      `json:"newly_covered"`
}

// JobResult is the terminal payload of a job — the service-shaped echo of
// harness.Result, plus cache provenance.
type JobResult struct {
	Combos      []ComboResult `json:"combos"`
	Covered     int           `json:"covered"`
	Uncoverable int           `json:"uncoverable"`
	Evaluated   uint64        `json:"evaluated"`
	Pruned      uint64        `json:"pruned"`
	Unscanned   uint64        `json:"unscanned,omitempty"`
	Partial     bool          `json:"partial,omitempty"`
	Stop        string        `json:"stop,omitempty"`
	ElapsedSec  float64       `json:"elapsed_sec"`

	// TumorFingerprint/NormalFingerprint bind the result to the exact
	// matrices; KernelFingerprint identifies the reduction of a
	// kernelized run.
	TumorFingerprint  uint64 `json:"tumor_fingerprint"`
	NormalFingerprint uint64 `json:"normal_fingerprint"`
	KernelFingerprint uint64 `json:"kernel_fingerprint,omitempty"`

	// CachedFrom, when non-empty, names the job whose run produced this
	// result — the submission was answered from the result cache without
	// scanning.
	CachedFrom string `json:"cached_from,omitempty"`
	// Error carries the failure message of a failed job.
	Error string `json:"error,omitempty"`
}

// resultFromHarness shapes a harness outcome for the API.
func resultFromHarness(res *harness.Result, symbols []string, tumorFP, normalFP, kernelFP uint64) *JobResult {
	out := &JobResult{
		Covered:           res.Covered,
		Uncoverable:       res.Uncoverable,
		Evaluated:         res.Evaluated,
		Pruned:            res.Pruned,
		Unscanned:         res.Unscanned,
		Partial:           res.Partial,
		Stop:              res.Stop.String(),
		ElapsedSec:        res.Elapsed.Seconds(),
		TumorFingerprint:  tumorFP,
		NormalFingerprint: normalFP,
		KernelFingerprint: kernelFP,
	}
	for _, step := range res.Steps {
		ids := step.Combo.GeneIDs()
		c := ComboResult{GeneIDs: ids, F: step.Combo.F, NewlyCovered: step.NewlyCovered}
		for _, id := range ids {
			if id >= 0 && id < len(symbols) {
				c.Symbols = append(c.Symbols, symbols[id])
			}
		}
		out.Combos = append(out.Combos, c)
	}
	return out
}

// ProgressStatus is the polling view of a running job's progress, fed by
// harness.Options.OnProgress.
type ProgressStatus struct {
	// Step is the greedy step being scanned (0-based).
	Step int `json:"step"`
	// DonePartitions/TotalPartitions tally the step's enumeration pass;
	// both are 0 for a pass the engine settled without a scan.
	DonePartitions  int `json:"done_partitions"`
	TotalPartitions int `json:"total_partitions"`
	// Unscanned is the cumulative quarantine coverage bound so far.
	Unscanned uint64 `json:"unscanned,omitempty"`
	// ReplayedSteps counts checkpointed steps replayed on resume.
	ReplayedSteps int `json:"replayed_steps,omitempty"`
	// Generation is the newest persisted checkpoint generation.
	Generation uint64 `json:"generation,omitempty"`
}

// JobStatus is the polling view of a job.
type JobStatus struct {
	ID       string          `json:"id"`
	Tenant   string          `json:"tenant"`
	Priority string          `json:"priority"`
	State    string          `json:"state"`
	ExitCode *int            `json:"exit_code,omitempty"` // terminal jobs only
	Spec     JobSpec         `json:"spec"`
	Progress *ProgressStatus `json:"progress,omitempty"`
	Result   *JobResult      `json:"result,omitempty"`
	// Resumed provenance mirrors harness.Result.
	Resumed     bool      `json:"resumed,omitempty"`
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at"`
	EndedAt     time.Time `json:"ended_at"`
}

// job is the daemon-side record.
type job struct {
	id       string
	tenant   string
	priority Priority
	spec     JobSpec
	cost     Cost
	// cohort, opt and key are rebuilt deterministically from the spec (at
	// submission or restore); they never touch disk. key is the job's
	// result-cache key. cohort is guarded by mu: it is released when the
	// job turns terminal, and a resumed partial job's next leg rebuilds it.
	// keyed (below) reports that key was computed from cohort.
	cohort *dataset.Cohort
	opt    cover.Options
	key    CacheKey

	mu          sync.Mutex
	state       JobState
	progress    ProgressStatus
	result      *JobResult   // the outcome until the terminal transition compacts it
	final       *finalResult // a terminal job's result (finished.go)
	submittedAt time.Time
	startedAt   time.Time
	endedAt     time.Time
	cancel      func() // non-nil while running
	userCancel  bool   // cancel requested by the submitter
	fresh       bool   // submitted to this daemon and not yet started
	resumed     bool
	// keyed, guarded by mu with cohort, reports that key was computed
	// from cohort, so its fingerprints are cohort's.
	keyed   bool
	idemKey string        // idempotency key the submission carried
	done    chan struct{} // closed on terminal transition
	// pending is the spec record of a job started at submission until its
	// first durable write decides it (preack.go); nil for every other job.
	// Set before the job starts; the terminal transition releases it.
	pending *pendingSpec

	// Event history ring. Publishing appends (never blocks), trimming
	// drops the oldest frames, and subscribers pull at their own pace —
	// a stalled consumer costs retained frames, never job progress. The
	// terminal transition encodes the ring into history (finished.go),
	// and a publish after it (Resume) decodes it back.
	seq      uint64        // last assigned event sequence (1-based)
	events   []Event       // retained events, ascending seq
	history  []byte        // a finished job's retained events, encoded
	firstSeq uint64        // seq of the first retained event (when any)
	notify   chan struct{} // nil, or made by a waiting subscriber and closed by the next publish
}

// Event is one job lifecycle or progress notification, streamed over SSE
// and pulled by in-process subscribers.
type Event struct {
	// Type is state, progress, checkpoint, retry, quarantine, resume or
	// dropped.
	Type  string `json:"type"`
	JobID string `json:"job_id"`
	// Seq is the per-job event sequence number (1-based; 0 marks
	// unnumbered snapshot frames). SSE clients resume a broken stream by
	// sending it back as Last-Event-ID.
	Seq uint64 `json:"seq,omitempty"`
	// State accompanies state events.
	State string `json:"state,omitempty"`
	// Progress accompanies progress events.
	Progress *ProgressStatus `json:"progress,omitempty"`
	// Generation accompanies checkpoint/resume events.
	Generation uint64 `json:"generation,omitempty"`
	// Dropped accompanies dropped events: how many frames a slow
	// subscriber lost to history trimming before this point.
	Dropped uint64 `json:"dropped,omitempty"`
	// Detail carries the human-readable tail (retry errors, quarantine
	// ranges).
	Detail string `json:"detail,omitempty"`
}

// status snapshots the job for the API.
func (j *job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:          j.id,
		Tenant:      j.tenant,
		Priority:    j.priority.String(),
		State:       j.state.String(),
		Spec:        j.spec,
		Resumed:     j.resumed,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		EndedAt:     j.endedAt,
	}
	if j.state == StateRunning {
		p := j.progress
		st.Progress = &p
	}
	if j.state.Terminal() {
		code := j.state.ExitCode()
		st.ExitCode = &code
		st.Result = j.resultLocked()
	}
	return st
}

// resultLocked returns the job's result in full. j.mu must be held.
func (j *job) resultLocked() *JobResult {
	if j.result != nil {
		return j.result
	}
	return j.final.expand()
}

// keptResult compacts the job's result, once, and returns the kept form.
func (j *job) keptResult() *finalResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.keptResultLocked()
}

func (j *job) keptResultLocked() *finalResult {
	if j.result != nil {
		j.final, j.result = compactResult(j.result), nil
	}
	return j.final
}

// finishLocked shrinks a job at its terminal transition to what it keeps
// (finished.go). j.mu must be held.
func (j *job) finishLocked() {
	j.keptResultLocked()
	j.history, j.events = encodeHistory(j.events), nil
	j.cohort = nil
	j.done = closedDone
	// Only a job started at submission has one, and only its own run
	// reads it without j.mu, before this transition.
	if j.pending != nil {
		j.pending = nil
	}
}

// jobEventHistory bounds the per-job event ring. A subscriber that
// falls further behind than this receives a "dropped" frame accounting
// for the gap, then the retained tail. It is a var so tests can shrink
// it to force drops cheaply.
var jobEventHistory = 512

// publish appends an event to the job's history ring and wakes every
// subscriber. It never blocks: a stalled subscriber cannot delay the
// publisher (the harness progress callback, i.e. job progress itself).
func (j *job) publish(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(e)
}

func (j *job) publishLocked(e Event) {
	if j.history != nil {
		j.events, j.history = decodeHistory(j.history, j.id, j.firstSeq), nil
	}
	j.seq++
	e.Seq = j.seq
	if len(j.events) == 0 {
		j.firstSeq = e.Seq
	}
	j.events = append(j.events, e)
	if drop := len(j.events) - jobEventHistory; drop > 0 {
		j.events = j.events[drop:]
		j.firstSeq = j.events[0].Seq
	}
	if j.notify != nil {
		close(j.notify)
		j.notify = nil
	}
}

// Subscription is a pull-based cursor over a job's event history. Each
// Next call returns the next retained event at the subscriber's own
// pace; history the subscriber was too slow for is summarized by a
// single "dropped" frame rather than delivered late.
type Subscription struct {
	j      *job
	cursor uint64 // last seq delivered (0 = nothing yet)
	// In a finished job's encoded history, the frame with seq at starts
	// at r.off, when r.b is the job's history.
	r  frameReader
	at uint64
}

// Next blocks until an event past the cursor is available, the job's
// stream ends (terminal state event delivered and nothing newer), or
// ctx is done. The second return is false when the stream is over.
func (sub *Subscription) Next(ctx context.Context) (Event, bool) {
	j := sub.j
	for {
		j.mu.Lock()
		if sub.cursor > j.seq {
			// A stale Last-Event-ID from a previous daemon incarnation
			// (sequences reset at restart): clamp to the live stream.
			sub.cursor = j.seq
		}
		if sub.cursor < j.seq {
			if first := j.firstSeq; first > sub.cursor+1 {
				// The ring trimmed past the cursor: account for the gap.
				dropped := first - sub.cursor - 1
				sub.cursor = first - 1
				e := Event{Type: "dropped", JobID: j.id, Seq: sub.cursor, Dropped: dropped}
				j.mu.Unlock()
				return e, true
			}
			e, ok := sub.nextLocked()
			j.mu.Unlock()
			return e, ok
		}
		if j.state.Terminal() {
			j.mu.Unlock()
			return Event{}, false
		}
		ch := j.notify
		if ch == nil {
			ch = make(chan struct{})
			j.notify = ch
		}
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return Event{}, false
		}
	}
}

// nextLocked returns the retained event after the cursor and moves the
// cursor to it; false means a finished job's history did not decode.
// j.mu must be held.
func (sub *Subscription) nextLocked() (Event, bool) {
	j := sub.j
	next := sub.cursor + 1
	if j.history == nil {
		e := j.events[next-j.firstSeq]
		sub.cursor = e.Seq
		return e, true
	}
	if len(sub.r.b) == 0 || &sub.r.b[0] != &j.history[0] || sub.at != next {
		// First read of this history, or after a dropped frame: walk to
		// the cursor once; later reads continue from the offset.
		sub.r, sub.at = frameReader{b: j.history}, j.firstSeq
		for ; sub.at < next; sub.at++ {
			if _, ok := sub.r.next(j.id, sub.at); !ok {
				return Event{}, false
			}
		}
	}
	e, ok := sub.r.next(j.id, next)
	if !ok {
		return Event{}, false
	}
	sub.at++
	sub.cursor = next
	return e, true
}

// setState transitions the job and publishes the change, reporting
// whether it did. Terminal transitions stick: once terminal, later
// transitions are ignored.
func (j *job) setState(s JobState) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.state == s {
		return false
	}
	j.state = s
	switch s {
	case StateRunning:
		j.startedAt = time.Now()
	default:
		if s.Terminal() {
			j.endedAt = time.Now()
			close(j.done)
		}
	}
	j.publishLocked(Event{Type: "state", JobID: j.id, State: s.String()})
	if s.Terminal() {
		j.finishLocked()
	}
	return true
}

// sortJobsByID orders job records by id (ids are zero-padded, so
// lexicographic order is submission order).
func sortJobsByID(jobs []*job) {
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
}
