// Package harness is the durable, supervised execution layer for the
// real (non-simulated) discovery pipeline. Where internal/cluster prices
// faults in virtual time, this package survives them in real time. It
// runs no greedy loop of its own: it supplies cover.Greedy with a pass
// scanner and a step commit. The scanner cuts each pass into λ-partitions
// and scans them under supervision, so that a panic, an injected IO
// error, or a walltime limit costs at most one λ-partition of work. The
// commit persists completed greedy steps to a crash-safe on-disk store
// (internal/ckptstore) so a killed process resumes losslessly. Because
// the loop is cover's, a fault-free run equals cover.Run step for step,
// Evaluated and Pruned included, with and without Kernelize.
//
// Guarantees (docs/ROBUSTNESS.md has the full contract):
//
//   - Determinism: with the default partition-local pruning, a resumed
//     run reproduces an uninterrupted run exactly — same combination
//     list, same cover counts, same Evaluated/Pruned totals — for any
//     crash point at or between greedy steps, and any worker count.
//   - Supervision: each partition scan runs under recover; failures are
//     retried with exponential backoff and deterministic jitter, and a
//     partition that keeps failing is quarantined after MaxRetries
//     retries. A quarantined range is reported in the result (with the
//     combination count it withheld), never silently dropped.
//   - Anytime results: a wall-clock deadline or a canceled context (see
//     SignalContext for SIGINT/SIGTERM) checkpoints completed steps and
//     returns the best-so-far cover with Partial set, treating
//     best-so-far output as first-class rather than as failure.
package harness

import (
	"time"

	"repro/internal/ckptstore"
	"repro/internal/cover"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Defaults for Options zero values.
const (
	// DefaultMaxRetries is how many times a failing partition is retried
	// before quarantine.
	DefaultMaxRetries = 2
	// DefaultBackoffBase is the first retry delay; attempt n waits
	// base·2ⁿ⁻¹, jittered.
	DefaultBackoffBase = 2 * time.Millisecond
	// DefaultBackoffMax caps the retry delay.
	DefaultBackoffMax = 250 * time.Millisecond
)

// Store is the persistence surface a supervised run needs: a durable
// atomic save and a newest-valid-generation load. *ckptstore.Store is
// the canonical implementation; the discovery service wraps it in a
// disk-budget guard that turns ENOSPC into a degraded-state retry
// instead of a failed run.
type Store interface {
	// Save atomically persists a payload as the next generation and
	// returns its generation number.
	Save(payload []byte) (uint64, error)
	// Load returns the newest generation that decodes cleanly, with
	// skip provenance for corrupt newer ones.
	Load() (*ckptstore.Snapshot, error)
}

// publishCoster is implemented by a Store that has measured what a
// publish costs (see Options.Store); 0 means unknown.
type publishCoster interface {
	PublishCost() time.Duration
}

// Options configures a supervised run.
type Options struct {
	// Cover configures the underlying engine (hits, scheme, scheduler,
	// workers, alpha, Kernelize, NoPrune, MaxIterations).
	Cover cover.Options

	// Store, when non-nil, receives a checkpoint at every stop and after
	// completed greedy steps on a cadence set by the measured cost of a
	// publish: the leg's first committed step is always published, and a
	// later one once eight times the cheapest publish the leg has
	// measured (encode plus Save) has passed since the last publish. A
	// crash therefore loses at most that interval's work plus the step in
	// flight (docs/RESILIENCE.md). A persistence failure aborts the run
	// (durability is the point); the in-memory result is still returned
	// alongside the error.
	//
	// A Store may also have a method PublishCost() time.Duration that
	// reports a publish cost measured before the leg (0 means unknown).
	// A known cost makes the leg's start count as its last publish, so
	// even the first step waits for the cadence, and a completed run
	// publishes its leftover steps only when a publish is due: the
	// caller must then hold a durable point as of the start (the
	// service's job spec record), or keep the job unacknowledged until
	// its first durable write (a job the service starts at submission
	// commits its spec record with its first Save or its result record),
	// and make the result durable itself (its result record). A leg that
	// is killed before its first publish should
	// be rerun without a cost, or a crash schedule may never make
	// progress. Deadline and cancel stops publish every committed step
	// either way.
	Store Store
	// Resume loads the newest valid generation from Store before
	// running. With no loadable checkpoint the run FAILS rather than
	// silently starting from scratch; omit Resume for a fresh run.
	Resume bool

	// MaxRetries is how many retries a failing partition gets before
	// quarantine; negative disables retries (first failure quarantines).
	// 0 means DefaultMaxRetries.
	MaxRetries int
	// BackoffBase and BackoffMax shape the retry delay; zero values take
	// the defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RetrySeed seeds the deterministic backoff jitter.
	RetrySeed int64

	// Deadline, when positive, bounds the run's wall clock: when it
	// expires the harness abandons the in-flight step, persists the
	// completed steps, and returns best-so-far with Partial set.
	Deadline time.Duration

	// OnEvent, when non-nil, observes retries, quarantines, checkpoints,
	// and resume provenance. Calls are serialized but may come from
	// worker goroutines; keep it fast.
	OnEvent func(Event)

	// OnProgress, when non-nil, is called once per completed (scanned or
	// quarantined) partition with the step's running scanned/total tally
	// and the cumulative Unscanned coverage bound — the observable the
	// discovery service (internal/service) streams as job progress. A
	// pass decided without a scan is reported once (see Progress).
	// Calls are serialized but may come from worker goroutines; keep it
	// fast.
	OnProgress func(Progress)
}

// Progress is one per-partition progress report of the supervised scan.
// Within a pass, Done climbs monotonically to Total; a resumed leg starts
// at the first unreplayed step, so Step is the absolute greedy step index.
// A pass the engine decides from the active samples' own h-subsets
// (cover's support pass, docs/PRUNING.md §7) scans no partitions: it
// reports once, with Done == Total == 0.
type Progress struct {
	// Step is the 0-based greedy step being scanned.
	Step int
	// Done and Total count the step's completed partitions: Done includes
	// both successfully scanned and quarantined partitions, so Done ==
	// Total when the step's enumeration pass is over.
	Done, Total int
	// Quarantined counts this step's partitions abandoned so far.
	Quarantined int
	// Unscanned is the running combination-count coverage bound: the
	// combinations withheld by every quarantine up to this point, prior
	// steps included. It matches Result.Unscanned once the run ends.
	Unscanned uint64
}

// EventKind classifies an Event.
type EventKind int

const (
	// EventRetry is one failed partition attempt about to be retried.
	EventRetry EventKind = iota
	// EventQuarantine is a partition abandoned after exhausting retries.
	EventQuarantine
	// EventCheckpoint is a persisted generation.
	EventCheckpoint
	// EventResume is a successful checkpoint load.
	EventResume
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventRetry:
		return "retry"
	case EventQuarantine:
		return "quarantine"
	case EventCheckpoint:
		return "checkpoint"
	case EventResume:
		return "resume"
	}
	return "unknown"
}

// Event is one observable supervisor action.
type Event struct {
	// Kind classifies the event.
	Kind EventKind
	// Step is the 0-based greedy step the event belongs to (-1 for
	// resume events).
	Step int
	// Partition is the λ-range involved (retry/quarantine events).
	Partition sched.Partition
	// Attempt is the 1-based attempt that failed (retry/quarantine).
	Attempt int
	// Err is the failure (retry/quarantine events).
	Err error
	// Generation is the store generation (checkpoint/resume events).
	Generation uint64
}

// Quarantine records a λ-range the supervisor gave up on. Its
// combinations were never scanned, so the greedy step that owned it
// chose from the surviving ranges and the pass's seed incumbent only.
type Quarantine struct {
	// Step is the 0-based greedy step during which the range was
	// quarantined.
	Step int
	// Lo and Hi bound the unscanned λ-range.
	Lo, Hi uint64
	// Attempts is how many times the scan was tried.
	Attempts int
	// LastError describes the final failure.
	LastError string
}

// Size returns the number of λ-threads the quarantined range withheld.
func (q Quarantine) Size() uint64 { return q.Hi - q.Lo }

// Stop says why a run ended.
type Stop int

const (
	// StopCompleted means the greedy loop ran to its natural end (full
	// cover, uncoverable remainder, or MaxIterations).
	StopCompleted Stop = iota
	// StopDeadline means Options.Deadline expired.
	StopDeadline
	// StopCanceled means the caller's context was canceled (SIGINT or
	// SIGTERM under SignalContext).
	StopCanceled
)

// String names the stop reason.
func (s Stop) String() string {
	switch s {
	case StopCompleted:
		return "completed"
	case StopDeadline:
		return "deadline"
	case StopCanceled:
		return "canceled"
	}
	return "unknown"
}

// Result is a supervised run's outcome. Partial results are first-class:
// a deadline, a signal, or a quarantined partition yields the best cover
// found so far plus an exact account of what was not done.
type Result struct {
	// Steps lists the chosen combinations in greedy order (replayed
	// steps first on a resumed run).
	Steps []cover.Step
	// Covered counts the tumor samples the steps cover. Uncoverable is
	// cover.Result's: the samples still active when the best-F
	// combination covers none of them, 0 when MaxIterations or an early
	// stop ended the run. With quarantines it is a bound, not a verdict —
	// unscanned work might still cover the remainder.
	Covered     int
	Uncoverable int
	// Evaluated and Pruned total the scan work, including work carried
	// in from the resumed checkpoint.
	Evaluated uint64
	Pruned    uint64
	// KernelFingerprint identifies the reduced instance of a kernelized
	// run (0 when Kernelize was off) — the provenance checkpoints and the
	// discovery service's result cache key on.
	KernelFingerprint uint64
	// Elapsed is this leg's wall-clock time (replay included, prior legs
	// excluded).
	Elapsed time.Duration
	// Options echoes the resolved engine configuration.
	Options cover.Options

	// Stop says why the run ended; Partial is true when the result is
	// not a complete, fully-scanned cover (early stop or quarantine).
	Stop    Stop
	Partial bool

	// Quarantined lists every λ-range that was abandoned; Unscanned is
	// the total number of combinations those ranges withheld — the
	// coverage bound: at most Unscanned candidate combinations were
	// never considered.
	Quarantined []Quarantine
	Unscanned   uint64

	// Resumed provenance: whether a checkpoint was loaded, from which
	// generation, how many steps it replayed, and how many corrupt
	// newer generations were skipped to find it.
	Resumed            bool
	ResumedGeneration  uint64
	ReplayedSteps      int
	SkippedGenerations int
	// PersistedGeneration is the last generation this run wrote (0 when
	// nothing was persisted).
	PersistedGeneration uint64
}

// Combos returns the chosen combinations in order.
func (r *Result) Combos() []reduce.Combo {
	out := make([]reduce.Combo, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = s.Combo
	}
	return out
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.MaxRetries == 0 {
		o.MaxRetries = DefaultMaxRetries
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = DefaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = DefaultBackoffMax
	}
	return o
}
