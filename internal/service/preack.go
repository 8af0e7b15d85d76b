package service

// Submissions started at once (docs/SERVICE.md §6). A fresh submission
// that finds the fair queue empty, the circuit breaker closed and the
// admission capacity free starts on the spot, before its POST is
// answered, and its spec record rides on the job's first durable write:
//
//   - its result record: spec and result share one append and one fsync,
//     and the POST answers with the terminal status and the result;
//   - its first checkpoint publish: guardedStore.Save commits the spec
//     before it creates jobs/<id>/;
//   - the wait budget, harness.PublishRatio times the cheapest publish the
//     daemon has measured (the window the publish cadence already accepts
//     as crash loss): the submitter commits the spec alone and answers
//     with the job still running. An unmeasured cost gives a budget of 0.
//
// The job enters s.jobs only once its spec is durable, so an
// acknowledged job is still a durable one. If the deferred commit fails
// the job is withdrawn: it writes no result and no checkpoint, its
// idempotency key is released and the POST fails as a failed spec write
// does. A daemon that dies before the commit leaves no trace of the job,
// whose POST was never answered.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/harness"
)

// What carried a deferred spec record to disk.
const (
	carrierResult     = "result"
	carrierCheckpoint = "checkpoint"
	carrierBudget     = "budget"
)

// errWithdrawn marks a write refused because the job's deferred spec
// record failed: the job was never acknowledged and leaves nothing on
// disk.
var errWithdrawn = errors.New("service: job withdrawn before acknowledgement")

// pendingSpec is the deferred spec record of a job started at submission.
// Its first carrier decides it, once: durable, or failed and the job
// withdrawn. A nil pendingSpec (a queued or restored job) is durable.
type pendingSpec struct {
	mu      sync.Mutex
	decided chan struct{} // closed once the record is decided
	carrier string        // what decided it; "" when withdrawn without a write
	err     error         // nil once durable; the failure once withdrawn
}

func newPendingSpec() *pendingSpec {
	return &pendingSpec{decided: make(chan struct{})}
}

// carry decides the record with write unless it is decided already, and
// returns the decision: nil once the record is durable, the failure once
// the job is withdrawn. Concurrent carriers wait for the first.
func (p *pendingSpec) carry(carrier string, write func() error) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.decided:
		return p.err
	default:
	}
	p.err = write()
	if p.err == nil {
		p.carrier = carrier
	}
	close(p.decided)
	return p.err
}

// outcome returns the decided record's carrier and error.
func (p *pendingSpec) outcome() (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.carrier, p.err
}

// withdrawn reports whether the job's deferred spec record failed.
func (p *pendingSpec) withdrawn() bool {
	if p == nil {
		return false
	}
	_, err := p.outcome()
	return err != nil
}

// SubmitStats counts the fresh submissions started at once.
type SubmitStats struct {
	// AnsweredAtSubmission counts the fresh jobs whose POST answered with
	// their terminal status and result.
	AnsweredAtSubmission uint64 `json:"answered_at_submission"`
	// DeferredSpecs counts the spec records committed after their job
	// started, by what carried them.
	DeferredSpecs DeferredSpecStats `json:"deferred_specs"`
}

// DeferredSpecStats splits the deferred spec records by carrier.
type DeferredSpecStats struct {
	Result     uint64 `json:"result"`
	Checkpoint uint64 `json:"checkpoint"`
	Budget     uint64 `json:"budget"`
}

// submitCounters backs SubmitStats.
type submitCounters struct {
	answered                   atomic.Uint64
	result, checkpoint, budget atomic.Uint64
}

func (c *submitCounters) stats() SubmitStats {
	return SubmitStats{
		AnsweredAtSubmission: c.answered.Load(),
		DeferredSpecs: DeferredSpecStats{
			Result:     c.result.Load(),
			Checkpoint: c.checkpoint.Load(),
			Budget:     c.budget.Load(),
		},
	}
}

func (c *submitCounters) carried(carrier string) {
	switch carrier {
	case carrierResult:
		c.result.Add(1)
	case carrierCheckpoint:
		c.checkpoint.Add(1)
	case carrierBudget:
		c.budget.Add(1)
	}
}

// startableLocked reports whether a fresh job may start at submission:
// nothing is queued ahead of it, the breaker is closed (a half-open probe
// goes through the queue) and its devices are free. s.mu must be held.
func (s *Service) startableLocked(j *job) bool {
	return s.queue.Len() == 0 && s.brk.isClosed() && s.adm.fits(j.cost)
}

// startLocked reserves the job's devices and runs it, as dispatch does.
// s.mu must be held and s.closed false, so Close waits for the run.
func (s *Service) startLocked(j *job) {
	s.adm.reserve(j.cost)
	s.wg.Add(1)
	go s.execute(j)
}

// awaitSpec answers the submission of a job started by startLocked once
// its spec record is decided: by the job's own first durable write, or by
// the submitter when the wait budget runs out.
func (s *Service) awaitSpec(j *job, p *pendingSpec, idemKey string) (*JobStatus, bool, error) {
	if budget := harness.PublishRatio * time.Duration(s.cheapestSave.Load()); budget > 0 {
		t := time.NewTimer(budget)
		select {
		case <-p.decided:
		case <-t.C:
		}
		t.Stop()
	}
	if err := p.carry(carrierBudget, func() error { return s.commitSpec(j) }); err != nil {
		j.stop()
		s.rollbackKey(idemKey, j.id)
		if errors.Is(err, ErrClosed) {
			return nil, false, ErrClosed
		}
		return nil, false, s.specWriteError(j, err)
	}
	carrier, _ := p.outcome()
	s.submits.carried(carrier)
	if carrier == carrierResult {
		// The record was the job's last write: its terminal transition
		// follows at once.
		j.mu.Lock()
		done := j.done
		j.mu.Unlock()
		<-done
		s.submits.answered.Add(1)
	}
	s.mu.Lock()
	s.addJobLocked(j)
	s.cond.Broadcast() // wake duplicate submissions waiting on the key
	s.mu.Unlock()
	return j.status(), false, nil
}

// commitSpec makes a deferred spec record durable, with the records
// that carry it in the same append.
func (s *Service) commitSpec(j *job, with ...record) error {
	if err := failpoint.Check("service/deferred-spec"); err != nil {
		return err
	}
	return s.commit(append([]record{specRecord(j)}, with...)...)
}

// withdraw settles a job whose run ends without a durable spec record:
// an undecided record is withdrawn with cause. It reports whether the
// job is withdrawn, in which case it is canceled in memory and nothing of
// it is on disk.
func (s *Service) withdraw(j *job, cause error) bool {
	err := j.pending.carry("", func() error { return cause })
	if err == nil {
		return false
	}
	j.mu.Lock()
	first := !j.state.Terminal()
	j.mu.Unlock()
	if first {
		j.setState(StateCanceled)
		s.cfg.Logf("service: %s withdrawn before acknowledgement: %v", j.id, err)
	}
	return true
}

// stop cancels the job's run, if it is running.
func (j *job) stop() {
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// withdrawnError wraps a deferred spec failure for the write it refused.
func withdrawnError(err error) error {
	return fmt.Errorf("%w: %v", errWithdrawn, err)
}
