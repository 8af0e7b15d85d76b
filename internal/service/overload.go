package service

// Overload protection (docs/RESILIENCE.md §2). Three independent
// mechanisms guard admission:
//
//   - A shed policy: the queue-depth watermark at which sheddable work
//     (the batch priority class) is rejected with a Retry-After hint,
//     well before the hard MaxQueued limit that rejects everything.
//     Accepted jobs are never shed — shedding happens at admission
//     only, so "no accepted job lost" survives any overload.
//   - Per-tenant token buckets: one tenant flooding submissions runs
//     out of tokens long before it can crowd out the queue.
//   - A circuit breaker around the execution backend: consecutive
//     backend failures trip it open; after a cooldown it half-opens and
//     dispatches exactly one probe job, closing on success and
//     re-opening on failure. While open or probing, queued jobs wait —
//     they are not failed.
//
// All three are deterministic given a clock; tests inject one.

import (
	"sync"
	"time"
)

// tenantBucket is one tenant's token-bucket state.
type tenantBucket struct {
	tokens float64
	last   time.Time
}

// rateLimiter is a per-tenant token bucket. Zero rate disables it.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*tenantBucket
}

func newRateLimiter(rate float64, burst int, now func() time.Time) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: float64(burst), now: now, buckets: map[string]*tenantBucket{}}
}

// allow consumes one token for the tenant. When denied it returns the
// wait until the next token accrues.
func (l *rateLimiter) allow(tenant string) (bool, time.Duration) {
	if l == nil || l.rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.buckets[tenant]
	if b == nil {
		b = &tenantBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.rate
	if b.tokens > l.burst {
		b.tokens = l.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return false, wait
}

// Bounds for the Retry-After hint: never tell a client to hammer
// sub-second, never to go away for more than five minutes.
const (
	minRetryAfter = time.Second
	maxRetryAfter = 5 * time.Minute
	// drainWindow is how many recent completions the estimator keeps.
	drainWindow = 32
	// defaultPerJob seeds the estimate before any job has completed.
	defaultPerJob = 5 * time.Second
)

// drainEstimator tracks recent job completion times to estimate how
// long a queue of a given depth takes to drain — the basis of the
// Retry-After hint on shed responses.
type drainEstimator struct {
	now func() time.Time

	mu     sync.Mutex
	stamps []time.Time // completion times, oldest first, ≤ drainWindow
}

func newDrainEstimator(now func() time.Time) *drainEstimator {
	return &drainEstimator{now: now}
}

// completed records one finished job.
func (d *drainEstimator) completed() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stamps = append(d.stamps, d.now())
	if len(d.stamps) > drainWindow {
		d.stamps = d.stamps[len(d.stamps)-drainWindow:]
	}
}

// perJob estimates the mean seconds between completions.
func (d *drainEstimator) perJob() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.stamps) < 2 {
		return defaultPerJob
	}
	span := d.stamps[len(d.stamps)-1].Sub(d.stamps[0])
	per := span / time.Duration(len(d.stamps)-1)
	if per <= 0 {
		per = time.Millisecond
	}
	return per
}

// retryAfter is the clamped drain-time estimate for a queue of depth n.
func (d *drainEstimator) retryAfter(depth int) time.Duration {
	if depth < 1 {
		depth = 1
	}
	est := time.Duration(depth) * d.perJob()
	if est < minRetryAfter {
		return minRetryAfter
	}
	if est > maxRetryAfter {
		return maxRetryAfter
	}
	return est
}

// breakerState is the circuit breaker's position.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is the circuit breaker around the execution backend. A
// threshold ≤ 0 disables it (always closed).
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	// onOpen fires when the breaker trips, so the owner can schedule a
	// dispatch wake-up for when the cooldown elapses.
	onOpen func(cooldown time.Duration)

	mu          sync.Mutex
	state       breakerState
	consecutive int // consecutive backend failures
	trips       uint64
	openedAt    time.Time
	probing     bool // a half-open probe job is in flight
}

// allowed reports whether dispatch may start a job now, and whether
// that start would be the half-open probe. It transitions open →
// half-open when the cooldown has elapsed, but the probe slot is only
// taken by beginProbe — callers that find no runnable job must not
// consume it.
func (b *breaker) allowed() (ok, probe bool) {
	if b.threshold <= 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true, true
		}
		return false, false
	default: // half-open
		if b.probing {
			return false, false
		}
		return true, true
	}
}

// isClosed reports whether the breaker lets every job through: closed,
// or disabled. It never moves an open breaker to half-open.
func (b *breaker) isClosed() bool {
	if b.threshold <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == breakerClosed
}

// beginProbe marks the half-open probe as in flight. Called only after
// a job has actually been picked, so an empty queue cannot strand the
// probe slot.
func (b *breaker) beginProbe() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.probing = true
	b.mu.Unlock()
}

// onSuccess records a backend success; any success closes the breaker.
func (b *breaker) onSuccess() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.state = breakerClosed
	b.consecutive = 0
	b.probing = false
	b.mu.Unlock()
}

// onFailure records a backend failure: a failed probe re-opens
// immediately; consecutive failures at the threshold trip a closed
// breaker.
func (b *breaker) onFailure() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.consecutive++
	wasProbe := b.probing
	b.probing = false
	trip := wasProbe || (b.state == breakerClosed && b.consecutive >= b.threshold)
	var cd time.Duration
	if trip {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.trips++
		cd = b.cooldown
	}
	onOpen := b.onOpen
	b.mu.Unlock()
	if trip && onOpen != nil {
		onOpen(cd)
	}
}

// BreakerStatus is the operator view of the circuit breaker.
type BreakerStatus struct {
	// State is "closed", "open", "half-open", or "disabled".
	State string `json:"state"`
	// ConsecutiveFailures counts backend failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Trips counts how many times the breaker has opened.
	Trips uint64 `json:"trips,omitempty"`
	// RetryInSec is how long until an open breaker half-opens.
	RetryInSec float64 `json:"retry_in_sec,omitempty"`
}

// status snapshots the breaker.
func (b *breaker) status() BreakerStatus {
	if b.threshold <= 0 {
		return BreakerStatus{State: "disabled"}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := BreakerStatus{
		State:               b.state.String(),
		ConsecutiveFailures: b.consecutive,
		Trips:               b.trips,
	}
	if b.state == breakerOpen {
		if left := b.cooldown - b.now().Sub(b.openedAt); left > 0 {
			st.RetryInSec = left.Seconds()
		}
	}
	return st
}
