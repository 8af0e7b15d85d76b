package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/harness"
)

// JobState is a job's lifecycle position. Exactly the states whose
// Terminal() is true are final; everything else can still change.
//
// The terminal states double as the repo-wide exit-code contract: a batch
// CLI leg (cmd/multihit) and a service job are the same run in different
// clothing, so both report their outcome through ExitCode — 0 for a
// complete cover, 1 for a failure, 3 for a first-class early stop
// (deadline, signal, cancellation) whose best-so-far cover was
// checkpointed for a later leg.
type JobState int

const (
	// StateQueued means the job is waiting for fair-share dispatch and
	// admission capacity.
	StateQueued JobState = iota
	// StateRunning means the execution backend is driving harness.Run.
	StateRunning
	// StateSucceeded means the greedy loop ran to its natural end. The
	// result may still carry quarantined ranges (Result.Partial) — a
	// degraded-but-complete cover is a success with a stated bound.
	StateSucceeded
	// StatePartial means the run stopped early (deadline or daemon
	// shutdown) with a checkpointed best-so-far cover; a restarted daemon
	// resumes the job automatically.
	StatePartial
	// StateFailed means the run returned an error (bad spec, persistence
	// failure, injected crash).
	StateFailed
	// StateCanceled means the submitter canceled the job.
	StateCanceled
)

// String names the state as the HTTP API spells it.
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSucceeded:
		return "succeeded"
	case StatePartial:
		return "partial"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// ParseState resolves the wire spelling of a state.
func ParseState(s string) (JobState, error) {
	for st := StateQueued; st <= StateCanceled; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return StateFailed, fmt.Errorf("service: unknown state %q", s)
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	switch s {
	case StateSucceeded, StatePartial, StateFailed, StateCanceled:
		return true
	}
	return false
}

// Exit codes of the shared contract. cmd/multihit documents and tests
// against these; the service reports them per job so scripted clients can
// treat a daemon job exactly like a CLI leg.
const (
	// ExitOK is a complete cover.
	ExitOK = 0
	// ExitFailure is an error (also what a usage/IO failure exits with).
	ExitFailure = 1
	// ExitEarlyStop is a deadline/signal/cancel stop with a best-so-far
	// checkpoint — distinct from failure so batch scripts schedule the
	// next leg instead of alerting.
	ExitEarlyStop = 3
)

// ExitCode maps a terminal state to the process exit code of the shared
// 0/1/3 contract. Non-terminal states have no exit code and report
// ExitFailure defensively.
func (s JobState) ExitCode() int {
	switch s {
	case StateSucceeded:
		return ExitOK
	case StatePartial, StateCanceled:
		return ExitEarlyStop
	}
	return ExitFailure
}

// StateForStop maps a harness stop reason to the terminal state of the
// run's outcome — the single place the harness vocabulary is translated
// into the exit-code contract.
func StateForStop(stop harness.Stop) JobState {
	if stop == harness.StopCompleted {
		return StateSucceeded
	}
	return StatePartial
}

// Typed terminal errors. Handlers map these onto HTTP statuses; CLI
// callers onto the exit contract.
var (
	// ErrNotFound means the job id names nothing.
	ErrNotFound = errors.New("service: no such job")
	// ErrQueueFull means admission refused the submission outright: the
	// tenant's queue is at its depth limit.
	ErrQueueFull = errors.New("service: queue full")
	// ErrTerminal means the requested transition (e.g. cancel) targets a
	// job that already reached a terminal state.
	ErrTerminal = errors.New("service: job already terminal")
	// ErrOversized means the job cannot fit the simulated cluster even
	// when it is otherwise idle, so queueing it would wedge the queue.
	ErrOversized = errors.New("service: job exceeds cluster capacity")
	// ErrClosed means the service is shutting down and not accepting
	// work.
	ErrClosed = errors.New("service: shutting down")
	// ErrShed means overload protection rejected a sheddable (batch)
	// submission to preserve headroom for interactive work. The client
	// should retry after the queue drains (the Retry-After hint).
	ErrShed = errors.New("service: overloaded, batch work shed")
	// ErrRateLimited means the tenant exhausted its token bucket.
	ErrRateLimited = errors.New("service: tenant rate limit exceeded")
	// ErrDegraded means the service is in a degraded state (disk budget
	// exhausted or out of space): it keeps draining admitted jobs but
	// accepts no new ones until the condition clears.
	ErrDegraded = errors.New("service: degraded, not admitting")
	// ErrStorage means the daemon failed to persist an accepted
	// submission for a reason other than a full disk: the fault is the
	// daemon's, not the request's.
	ErrStorage = errors.New("service: storage failure")
)

// RetryAfterError decorates a rejection with a drain-rate-derived hint
// for when the client should retry. The HTTP layer surfaces it as a
// Retry-After header; errors.Is/As see through it to the cause.
type RetryAfterError struct {
	// Err is the underlying rejection (ErrShed, ErrRateLimited, ...).
	Err error
	// After is the suggested wait before retrying.
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.After.Round(time.Second))
}

func (e *RetryAfterError) Unwrap() error { return e.Err }
