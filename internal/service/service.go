// Package service is the multi-tenant discovery service: the long-running
// serving layer that turns the durable supervised runner
// (internal/harness) into an execution backend. Cohort discovery jobs are
// submitted over HTTP (see http.go and cmd/multihitd), queued with
// per-tenant fair-share scheduling and priority classes, admitted against
// the simulated cluster's capacity via the gpusim cost model, executed by
// harness.Run with a per-job crash-safe checkpoint store, observed live
// through per-partition progress events (SSE and polling), and answered
// from a fingerprint-keyed result cache when an identical submission has
// already completed.
//
// Durability contract: a job's spec record is its first durable point and
// its result record its last, both in one group-committed journal
// (persist.go); no submission is answered before its spec record is
// durable, and a job started at submission commits it with its first
// durable write (preack.go). A killed daemon loses at most each in-flight
// job's work since its last durable point, bounded by the publish cadence
// (docs/RESILIENCE.md §3). On restart every non-terminal job is
// re-enqueued and resumes from its own generational store, or reruns from
// its spec when it published none, completing bit-identically to an
// uninterrupted run (the harness crash-invariance guarantee lifted to the
// serving layer).
// docs/SERVICE.md specifies the API and the scheduling, admission,
// caching, and resume semantics.
package service

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckptstore"
	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/harness"
)

// Config sizes the daemon.
type Config struct {
	// DataDir is the root of the durable state (the job journal and the
	// per-job checkpoint stores).
	DataDir string
	// Device is the simulated device model admission prices against;
	// zero value means gpusim.V100().
	Device gpusim.DeviceSpec
	// ClusterGPUs is the simulated cluster capacity in devices; 0 means
	// DefaultClusterGPUs.
	ClusterGPUs int
	// MaxQueued bounds the queue depth across tenants; 0 means
	// DefaultMaxQueued.
	MaxQueued int
	// CacheEntries sizes the result cache; 0 means DefaultCacheEntries,
	// negative disables caching.
	CacheEntries int
	// JobWorkers is the per-job engine worker count resolved into
	// submissions that leave Workers unset; 0 means GOMAXPROCS. It is
	// resolved at submission and persisted so a restarted daemon re-runs
	// the job with the identical partition plan.
	JobWorkers int
	// Retain is the per-job checkpoint-store retention; 0 means the
	// ckptstore default.
	Retain int

	// ShedBatchAt is the queue depth at which batch-class submissions
	// are shed with 503 + Retry-After, preserving headroom for
	// interactive work; 0 means 3/4 of MaxQueued, negative disables
	// shedding (only the hard MaxQueued limit applies).
	ShedBatchAt int
	// TenantRatePerSec and TenantBurst shape the per-tenant submission
	// token bucket; a zero rate disables rate limiting.
	TenantRatePerSec float64
	TenantBurst      int
	// BreakerThreshold is how many consecutive backend failures trip
	// the circuit breaker; 0 means DefaultBreakerThreshold, negative
	// disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay; 0 means
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
	// DiskBudgetBytes caps the data directory's footprint; over budget
	// the background GC reclaims checkpoints (terminal jobs first) and
	// the service degrades until usage is back under. 0 disables the
	// budget (ENOSPC handling stays active regardless).
	DiskBudgetBytes int64
	// DiskPoll is the disk accountant cadence and the ENOSPC write
	// retry interval; 0 means DefaultDiskPoll.
	DiskPoll time.Duration

	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Defaults for Config zero values.
const (
	DefaultClusterGPUs      = 6 // one Summit node
	DefaultMaxQueued        = 1024
	DefaultCacheEntries     = 128
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Device.SMs == 0 {
		c.Device = gpusim.V100()
	}
	if c.ClusterGPUs == 0 {
		c.ClusterGPUs = DefaultClusterGPUs
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = DefaultMaxQueued
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = runtime.GOMAXPROCS(0)
	}
	if c.ShedBatchAt == 0 {
		c.ShedBatchAt = c.MaxQueued * 3 / 4
		if c.ShedBatchAt < 1 {
			c.ShedBatchAt = c.MaxQueued
		}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.DiskPoll <= 0 {
		c.DiskPoll = DefaultDiskPoll
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Service is the daemon state. Open, then serve its Handler (http.go);
// Close checkpoints and parks every running job.
type Service struct {
	cfg    Config
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	limiter *rateLimiter
	drain   *drainEstimator
	brk     *breaker
	gcKick  chan struct{}

	// journal holds every job's spec and result records.
	journal *ckptstore.Journal

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	jobs   map[string]*job
	queue  *fairQueue
	adm    admission
	cache  *resultCache
	keys   map[string]string // idempotency key → job id
	nextID uint64
	shed   ShedStats
	disk   DiskStats
	// usageAt is when disk.UsageBytes was last measured (refreshUsage).
	usageAt time.Time

	// cheapestSave is the cheapest checkpoint publish measured in this
	// daemon life, in nanoseconds (0 = none yet); publishes and
	// resultWrites count durable writes for the disk stats.
	cheapestSave atomic.Int64
	publishes    atomic.Uint64
	resultWrites atomic.Uint64
	// cohorts counts the cohorts this daemon life has generated.
	cohorts atomic.Uint64
	// submits counts the submissions started at once (preack.go).
	submits submitCounters
}

// Open validates the config, restores persisted jobs from the journal in
// DataDir — terminal results repopulate the cache, in-flight jobs re-enter
// the queue to resume from their checkpoint stores — and starts the
// dispatch loop.
func Open(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	if err := cfg.Device.Validate(); err != nil {
		return nil, err
	}
	if cfg.ClusterGPUs < 1 {
		return nil, fmt.Errorf("service: ClusterGPUs must be positive, got %d", cfg.ClusterGPUs)
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, jobsDirName), 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    map[string]*job{},
		queue:   newFairQueue(),
		adm:     admission{capacity: cfg.ClusterGPUs},
		cache:   newResultCache(cfg.CacheEntries),
		keys:    map[string]string{},
		gcKick:  make(chan struct{}, 1),
		limiter: newRateLimiter(cfg.TenantRatePerSec, cfg.TenantBurst, time.Now),
		drain:   newDrainEstimator(time.Now),
		disk:    DiskStats{BudgetBytes: cfg.DiskBudgetBytes},
	}
	s.cond = sync.NewCond(&s.mu)
	s.brk = &breaker{
		threshold: cfg.BreakerThreshold,
		cooldown:  cfg.BreakerCooldown,
		now:       time.Now,
		// Waking the dispatch loop shortly after the cooldown elapses
		// lets the half-open probe start without another trigger.
		onOpen: func(cd time.Duration) {
			time.AfterFunc(cd+50*time.Millisecond, s.cond.Broadcast)
		},
	}
	if err := s.restore(); err != nil {
		cancel()
		if s.journal != nil {
			_ = s.journal.Close()
		}
		return nil, err
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.dispatch()
	}()
	go func() {
		defer s.wg.Done()
		s.diskMonitor()
	}()
	return s, nil
}

// restore rebuilds the job table by replaying the journal. A terminal job
// comes back from its result record alone; only in-flight jobs regenerate
// their cohorts (buildJob) to re-enter the queue.
func (s *Service) restore() error {
	if err := checkLayout(s.cfg.DataDir); err != nil {
		return err
	}
	jr, js, err := replayJournal(s.cfg.DataDir, s.cfg.Logf)
	if err != nil {
		return err
	}
	s.journal = jr
	s.nextID = js.next
	s.compact(js)
	for _, id := range js.order {
		st := js.jobs[id]
		var j *job
		if st.result != nil {
			j, err = s.newJob(id, *st.spec.Spec)
		} else {
			j, err = s.buildJob(id, *st.spec.Spec)
		}
		if err != nil {
			s.cfg.Logf("service: skipping job %s: %v", id, err)
			continue
		}
		j.idemKey = st.spec.IdempotencyKey
		// Idempotency keys survive restarts: a retried POST lands on the
		// restored job instead of executing a second time.
		if j.idemKey != "" {
			s.keys[j.idemKey] = id
		}
		s.jobs[id] = j
		if st.result == nil {
			// In flight when the previous daemon died: re-enqueue. The
			// job resumes from its checkpoint store (if any generation
			// was persisted) and re-scans from scratch otherwise.
			s.queue.Push(j)
			s.cfg.Logf("service: restored %s (tenant %s) into the queue", id, j.tenant)
			continue
		}
		// Terminal: restore the outcome; successes re-seed the cache.
		j.state = st.result.terminalState()
		j.result = st.result.Result
		if st.result.Key != nil {
			j.key = *st.result.Key
		}
		close(j.done)
		if j.state == StateSucceeded {
			s.cache.Put(j.key, id, j.result)
		}
	}
	return nil
}

// newJob resolves a spec into a job record without its cohort: priority,
// tenant, worker count and normalized engine options. A terminal job
// restored from its result record needs no more; its cost stays zero
// until Resume prices it.
func (s *Service) newJob(id string, spec JobSpec) (*job, error) {
	prio, err := ParsePriority(spec.Priority)
	if err != nil {
		return nil, err
	}
	if spec.Options.Workers == 0 {
		spec.Options.Workers = s.cfg.JobWorkers
	}
	opt, err := spec.Options.CoverOptions(spec.Cohort.Hits)
	if err != nil {
		return nil, err
	}
	opt, err = opt.Normalized()
	if err != nil {
		return nil, err
	}
	tenant := spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	return &job{
		id:          id,
		tenant:      tenant,
		priority:    prio,
		spec:        spec,
		state:       StateQueued,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
		opt:         opt,
	}, nil
}

// buildJob is newJob plus the cohort: it regenerates the seeded cohort
// (deterministic, so fingerprints and partition plans are
// restart-invariant), prices admission, and keys the result cache.
func (s *Service) buildJob(id string, spec JobSpec) (*job, error) {
	j, err := s.newJob(id, spec)
	if err != nil {
		return nil, err
	}
	cohort, cost, err := s.price(j)
	if err != nil {
		return nil, err
	}
	j.cohort, j.cost = cohort, cost
	j.key = CanonicalKey(cohort.Tumor, cohort.Normal, j.opt)
	return j, nil
}

// price generates a job's cohort and prices it on the admission model.
func (s *Service) price(j *job) (*dataset.Cohort, Cost, error) {
	cohort, err := s.generate(j.spec.Cohort)
	if err != nil {
		return nil, Cost{}, err
	}
	cost, err := EstimateCost(cohort, j.opt, s.cfg.Device)
	if err != nil {
		return nil, Cost{}, err
	}
	return cohort, cost, nil
}

// generate builds a cohort from its spec, counting the generations.
func (s *Service) generate(spec CohortSpec) (*dataset.Cohort, error) {
	s.cohorts.Add(1)
	return spec.Generate()
}

// Submit accepts one job. On a result-cache hit the returned status is
// already terminal (StateSucceeded with Result.CachedFrom set) and no
// scan runs. A job that finds nothing queued, the breaker closed and its
// devices free starts at once, and its spec record rides on its first
// durable write (preack.go): when that is its result record, the
// returned status is terminal too. Any other job is persisted, queued,
// and dispatched under fair share and admission.
func (s *Service) Submit(spec JobSpec) (*JobStatus, error) {
	st, _, err := s.SubmitIdempotent(spec, "")
	return st, err
}

// SubmitIdempotent is Submit with an optional idempotency key: a retried
// submission carrying the key of an already-accepted job returns that
// job's status (duplicate = true) instead of executing a second time.
// Keys are persisted with the job, so the guarantee survives daemon
// restarts. Admission applies overload protection in order: duplicate
// check (a read — always answered), degraded state, per-tenant rate
// limit, result cache, queue depth, batch shedding.
func (s *Service) SubmitIdempotent(spec JobSpec, idemKey string) (*JobStatus, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if idemKey != "" {
		if st, dup, err := s.resolveIdempotentLocked(idemKey); dup || err != nil {
			s.mu.Unlock()
			return st, dup, err
		}
	}
	if reason := s.disk.Degraded; reason != "" {
		s.shed.DegradedRejected++
		after := s.drain.retryAfter(s.queue.Len())
		s.mu.Unlock()
		return nil, false, &RetryAfterError{Err: fmt.Errorf("%w: %s", ErrDegraded, reason), After: after}
	}
	s.mu.Unlock()

	tenant := spec.Tenant
	if tenant == "" {
		tenant = "default"
	}
	if ok, wait := s.limiter.allow(tenant); !ok {
		s.mu.Lock()
		s.shed.RateLimited++
		s.mu.Unlock()
		return nil, false, &RetryAfterError{Err: fmt.Errorf("%w: tenant %s", ErrRateLimited, tenant), After: wait}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	id := fmt.Sprintf(jobIDPattern, s.nextID)
	s.nextID++
	if idemKey != "" {
		// Reserve the key before releasing the lock so a concurrent
		// duplicate waits for this submission instead of racing it.
		s.keys[idemKey] = id
	}
	s.mu.Unlock()

	j, err := s.buildJob(id, spec)
	if err != nil {
		s.rollbackKey(idemKey, id)
		return nil, false, err
	}
	j.idemKey = idemKey
	j.fresh = true
	if j.cost.GPUs > s.cfg.ClusterGPUs {
		s.rollbackKey(idemKey, id)
		return nil, false, fmt.Errorf("%w: needs %d simulated GPUs, cluster has %d",
			ErrOversized, j.cost.GPUs, s.cfg.ClusterGPUs)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rollbackKey(idemKey, id)
		return nil, false, ErrClosed
	}
	if cached, from, ok := s.cache.Get(j.key); ok {
		s.mu.Unlock()
		hit := *cached
		hit.CachedFrom = from
		j.state = StateSucceeded
		j.result = &hit
		j.endedAt = time.Now()
		j.cohort = nil
		close(j.done)
		// The spec and result records share an fsync, and the job is
		// visible only once both are durable.
		if err := s.commit(specRecord(j), resultRecord(j, StateSucceeded, j.key)); err != nil {
			s.rollbackKey(idemKey, id)
			return nil, false, s.specWriteError(j, err)
		}
		s.resultWrites.Add(1)
		s.mu.Lock()
		s.jobs[id] = j
		s.cond.Broadcast() // wake duplicate submissions waiting on the key
		s.mu.Unlock()
		s.cfg.Logf("service: %s answered from cache (produced by %s)", id, from)
		return j.status(), false, nil
	}
	if s.startableLocked(j) {
		j.pending = newPendingSpec()
		s.startLocked(j)
		s.mu.Unlock()
		return s.awaitSpec(j, idemKey)
	}
	depth := s.queue.Len()
	if depth >= s.cfg.MaxQueued {
		s.shed.QueueFull++
		after := s.drain.retryAfter(depth)
		s.mu.Unlock()
		s.rollbackKey(idemKey, id)
		return nil, false, &RetryAfterError{Err: ErrQueueFull, After: after}
	}
	if s.cfg.ShedBatchAt > 0 && j.priority == PriorityBatch && depth >= s.cfg.ShedBatchAt {
		s.shed.BatchShed++
		after := s.drain.retryAfter(depth)
		s.mu.Unlock()
		s.rollbackKey(idemKey, id)
		return nil, false, &RetryAfterError{Err: ErrShed, After: after}
	}
	s.mu.Unlock()

	if err := s.commit(specRecord(j)); err != nil {
		s.rollbackKey(idemKey, id)
		return nil, false, s.specWriteError(j, err)
	}

	// Visible only once durable: Get, List and a duplicate submission
	// waiting on the key see an acknowledged job.
	s.mu.Lock()
	s.jobs[id] = j
	s.queue.Push(j)
	s.cond.Broadcast() // wake the dispatcher and duplicate submissions waiting on the key
	s.mu.Unlock()
	s.cfg.Logf("service: queued %s (tenant %s, %s, %d simulated GPUs)",
		id, j.tenant, j.priority, j.cost.GPUs)
	return j.status(), false, nil
}

// resolveIdempotentLocked answers a keyed submission whose key is
// already reserved. Called with s.mu held; may temporarily release it
// while waiting for a concurrent submission with the same key to become
// visible. Returns dup=false with nil error when the key is free.
func (s *Service) resolveIdempotentLocked(idemKey string) (*JobStatus, bool, error) {
	id, ok := s.keys[idemKey]
	if !ok {
		return nil, false, nil
	}
	// A concurrent submission reserved the key but has not inserted the
	// job yet: wait for it to land (or fail and roll the key back).
	for {
		if s.closed {
			return nil, true, ErrClosed
		}
		if cur, still := s.keys[idemKey]; !still {
			// The original submission failed and rolled back; the retry
			// should re-submit.
			return nil, false, nil
		} else if cur != id {
			id = cur
		}
		if j := s.jobs[id]; j != nil {
			return j.status(), true, nil
		}
		s.cond.Wait()
	}
}

// rollbackKey releases an idempotency-key reservation after a failed
// submission, waking any duplicate waiting on it.
func (s *Service) rollbackKey(idemKey, id string) {
	if idemKey == "" {
		return
	}
	s.mu.Lock()
	if s.keys[idemKey] == id {
		delete(s.keys, idemKey)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// specWriteError classifies a failed spec write. A full disk degrades the
// service and asks the client to retry later, as a degraded admission
// does; any other failure is the daemon's, not the request's.
func (s *Service) specWriteError(j *job, err error) error {
	if !ckptstore.IsDiskFull(err) {
		return fmt.Errorf("%w: persisting %s: %v", ErrStorage, j.id, err)
	}
	s.enterDegraded(fmt.Sprintf("disk full persisting %s: %v", j.id, err))
	s.kickGC()
	s.mu.Lock()
	s.shed.DegradedRejected++
	after := s.drain.retryAfter(s.queue.Len())
	s.mu.Unlock()
	return &RetryAfterError{Err: fmt.Errorf("%w: %v", ErrDegraded, err), After: after}
}

// dispatch is the scheduling loop: it starts the fair-share pick whenever
// a job, the admission capacity for it, and the circuit breaker's consent
// are all available. A half-open breaker admits exactly one probe job;
// the probe flag is only taken once a job has actually been picked, so an
// empty queue can never strand the probe slot.
func (s *Service) dispatch() {
	for {
		s.mu.Lock()
		var next *job
		var probe bool
		for {
			if s.closed || s.ctx.Err() != nil {
				s.mu.Unlock()
				return
			}
			var ok bool
			ok, probe = s.brk.allowed()
			if ok {
				next = s.queue.Next(func(j *job) bool { return s.adm.fits(j.cost) })
				if next != nil {
					break
				}
			}
			s.cond.Wait()
		}
		if probe {
			s.brk.beginProbe()
			s.cfg.Logf("service: breaker half-open, %s is the probe job", next.id)
		}
		s.startLocked(next)
		s.mu.Unlock()
	}
}

// execute runs a job whose devices startLocked reserved, then releases
// them. Every way a run ends decides a deferred spec record (the result
// record, a checkpoint, park or a withdrawal), so a submitter never
// commits one after the run.
func (s *Service) execute(j *job) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.adm.release(j.cost)
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	s.runJob(j)
}

// runJob drives one job through the durable runner.
func (s *Service) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.ctx)
	defer cancel()
	j.mu.Lock()
	if j.userCancel || j.state.Terminal() {
		// Canceled between dequeue and start.
		j.mu.Unlock()
		_ = s.finishJob(j, StateCanceled, &JobResult{Error: "canceled before start"})
		return
	}
	j.cancel = cancel
	fresh := j.fresh
	j.fresh = false
	cohort := j.cohort
	j.mu.Unlock()
	if j.pending.withdrawn() {
		// Its submitter gave up on the spec record before the run began.
		s.withdraw(j, errWithdrawn)
		return
	}
	j.setState(StateRunning)

	err := s.runLeg(ctx, j, cohort, fresh)
	if err == nil {
		return
	}
	if j.pending.withdrawn() {
		// The deferred spec record failed: the job leaves no trace.
		s.withdraw(j, err)
		return
	}
	if ckptstore.IsDiskFull(err) {
		j.mu.Lock()
		userCancel := j.userCancel
		j.mu.Unlock()
		switch {
		case s.ctx.Err() != nil && !userCancel:
			// Shutdown caught the job mid-disk-full: its completed
			// steps are checkpointed (or re-derivable); park it for
			// the next daemon instead of failing it.
			s.park(j, "service: %s parked at shutdown during disk-full", j.id)
			return
		case userCancel:
			_ = s.finishJob(j, StateCanceled, &JobResult{Error: "canceled while disk full"})
			return
		}
	}
	_ = s.finishJob(j, StateFailed, &JobResult{Error: err.Error()})
	s.brk.onFailure()
}

// runLeg runs one leg of a job and records its outcome; an error fails
// the job unless runJob can park or cancel it.
//
// A job's spec record is its first durable point and, once it completes,
// its result record is its last. So the first leg of a job submitted to
// this daemon reports the cheapest checkpoint publish the daemon has
// measured to the harness, which then publishes no step before the
// cadence calls for one and leaves a completed run's final publish to the
// result record.
// A job restored at Open, or a leg that finds generations on disk,
// reports no cost and publishes its first step, so every crash schedule
// still converges. The checkpoint store is created by its first publish.
// A fresh job has no store to look for: jobs/<id>/ is created only by a
// publish that follows the job's durable spec record, and a job id whose
// spec record is durable is never issued again.
//
// cohort is the job's cohort; nil for a resumed partial job, which
// released it when it turned terminal and rebuilds it from its spec
// (unless Resume priced it after a restart).
func (s *Service) runLeg(ctx context.Context, j *job, cohort *dataset.Cohort, fresh bool) error {
	if cohort == nil {
		var err error
		if cohort, err = s.generate(j.spec.Cohort); err != nil {
			return err
		}
	}
	store := &guardedStore{s: s, j: j, ctx: ctx}
	var gens []uint64
	if fresh {
		store.cost = time.Duration(s.cheapestSave.Load())
	} else if _, err := os.Stat(store.dir()); err == nil {
		if store.store, err = ckptstore.Open(store.dir(), ckptstore.Options{Retain: s.cfg.Retain}); err != nil {
			return err
		}
		if gens, err = store.store.Generations(); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("service: %w", err)
	}
	hopt := harness.Options{
		Cover: j.opt,
		// The guard turns ENOSPC into degraded-state retries: a full
		// disk stalls the job's checkpoints, it does not fail the job.
		Store:      store,
		Resume:     len(gens) > 0,
		Deadline:   time.Duration(j.spec.DeadlineSec * float64(time.Second)),
		OnEvent:    func(e harness.Event) { s.onHarnessEvent(j, e) },
		OnProgress: func(p harness.Progress) { s.onHarnessProgress(j, p) },
	}
	if hopt.Resume {
		s.cfg.Logf("service: %s resuming from generation %d", j.id, gens[len(gens)-1])
	}
	res, err := harness.Run(ctx, cohort.Tumor, cohort.Normal, hopt)
	if err != nil {
		return err
	}

	result := resultFromHarness(res, cohort.GeneSymbols,
		cohort.Tumor.Fingerprint(), cohort.Normal.Fingerprint(), res.KernelFingerprint)
	j.mu.Lock()
	j.resumed = j.resumed || res.Resumed
	j.progress.ReplayedSteps = res.ReplayedSteps
	userCancel := j.userCancel
	j.mu.Unlock()

	if res.Stop == harness.StopCanceled && !userCancel {
		// The daemon is shutting down: the harness checkpointed the
		// completed steps, so leave the job in flight on disk — the next
		// daemon re-enqueues and resumes it. In-memory state returns to
		// queued for observers that outlive the shutdown call.
		s.brk.onSuccess()
		s.park(j, "service: %s parked at shutdown (generation %d)", j.id, res.PersistedGeneration)
		return nil
	}
	state := StateForStop(res.Stop)
	if userCancel {
		state = StateCanceled
	}
	j.mu.Lock()
	j.result = result
	j.mu.Unlock()
	// The result record is durable before the job is reported finished:
	// for a completed run it is the final publish.
	if err := s.durably(ctx, j.id+" result", func() error { return s.writeResult(j, state, j.key) }); err != nil {
		return err
	}
	// The backend executed and its outcome is durable: that counts as
	// backend health for the circuit breaker.
	s.brk.onSuccess()
	s.completeJob(j, state, j.key)
	return nil
}

// finishJob records a terminal outcome. Persistence and the cache insert
// happen BEFORE the terminal state transition: closing the job's done
// channel is the signal observers (WaitJob, SSE terminal frame) rely on,
// so everything the outcome implies must already be published when it
// fires. The result record retries in place on a full disk, as runLeg's
// does; a record that cannot be made durable (shutdown, a failed write)
// parks the job in flight instead, for the next daemon to run, so no job
// is reported terminal that a restart would not restore as such.
func (s *Service) finishJob(j *job, state JobState, result *JobResult) error {
	j.mu.Lock()
	j.result = result
	j.mu.Unlock()
	err := s.durably(s.ctx, j.id+" result", func() error { return s.writeResult(j, state, j.key) })
	if err != nil {
		s.park(j, "service: %s parked: its %s result record is not durable: %v", j.id, state, err)
		return fmt.Errorf("%w: %v", ErrStorage, err)
	}
	s.completeJob(j, state, j.key)
	return nil
}

// park leaves a job in flight on disk: it reports queued in memory, and
// the next daemon restores it from its spec record. A job whose deferred
// spec record never became durable is withdrawn instead.
func (s *Service) park(j *job, format string, args ...any) {
	if s.withdraw(j, ErrClosed) {
		return
	}
	j.setState(StateQueued)
	s.cfg.Logf(format, args...)
}

// completeJob reports a terminal outcome whose result record has been
// written: it caches a success, then makes the transition.
func (s *Service) completeJob(j *job, state JobState, key CacheKey) {
	if state == StateSucceeded {
		j.mu.Lock()
		result := j.result
		j.mu.Unlock()
		s.mu.Lock()
		s.cache.Put(key, j.id, result)
		s.mu.Unlock()
	}
	j.setState(state)
	s.drain.completed() // feeds the Retry-After drain-rate estimate
	s.cfg.Logf("service: %s finished %s (exit %d)", j.id, state, state.ExitCode())
}

// writeResult makes the job's result record durable. A job whose spec
// record is still deferred commits both in one append; when that append
// fails the job is withdrawn and the error wraps errWithdrawn.
func (s *Service) writeResult(j *job, state JobState, key CacheKey) error {
	rec := resultRecord(j, state, key)
	carried := false
	if err := j.pending.carry(carrierResult, func() error {
		carried = true
		return s.commitSpec(j, rec)
	}); err != nil {
		return withdrawnError(err)
	}
	if !carried {
		if err := s.commit(rec); err != nil {
			return fmt.Errorf("service: %s result record: %w", j.id, err)
		}
	}
	s.resultWrites.Add(1)
	return nil
}

// onHarnessEvent translates supervisor events into job events.
func (s *Service) onHarnessEvent(j *job, e harness.Event) {
	switch e.Kind {
	case harness.EventCheckpoint:
		j.mu.Lock()
		j.progress.Generation = e.Generation
		j.mu.Unlock()
		j.publish(Event{Type: "checkpoint", JobID: j.id, Generation: e.Generation,
			Detail: fmt.Sprintf("step %d", e.Step)})
	case harness.EventResume:
		j.mu.Lock()
		j.resumed = true
		j.mu.Unlock()
		j.publish(Event{Type: "resume", JobID: j.id, Generation: e.Generation})
	case harness.EventRetry:
		j.publish(Event{Type: "retry", JobID: j.id,
			Detail: fmt.Sprintf("partition [%d,%d) attempt %d: %v", e.Partition.Lo, e.Partition.Hi, e.Attempt, e.Err)})
	case harness.EventQuarantine:
		j.publish(Event{Type: "quarantine", JobID: j.id,
			Detail: fmt.Sprintf("partition [%d,%d) after %d attempts: %v", e.Partition.Lo, e.Partition.Hi, e.Attempt, e.Err)})
	}
}

// onHarnessProgress mirrors the per-partition tally into the polling
// state and the event stream.
func (s *Service) onHarnessProgress(j *job, p harness.Progress) {
	j.mu.Lock()
	j.progress.Step = p.Step
	j.progress.DonePartitions = p.Done
	j.progress.TotalPartitions = p.Total
	j.progress.Unscanned = p.Unscanned
	ps := j.progress
	j.mu.Unlock()
	j.publish(Event{Type: "progress", JobID: j.id, Progress: &ps})
}

// Get returns one job's status.
func (s *Service) Get(id string) (*JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return j.status(), nil
}

// List returns every job (optionally one tenant's), in submission order.
func (s *Service) List(tenant string) []*JobStatus {
	s.mu.Lock()
	all := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if tenant == "" || j.tenant == tenant {
			all = append(all, j)
		}
	}
	s.mu.Unlock()
	sortJobsByID(all)
	out := make([]*JobStatus, len(all))
	for i, j := range all {
		out[i] = j.status()
	}
	return out
}

// Subscribe attaches a pull-based event cursor to a job. afterSeq < 0
// streams from now (history is skipped); afterSeq ≥ 0 resumes after that
// sequence number — the Last-Event-ID contract — replaying retained
// history and summarizing anything already trimmed as a "dropped" frame.
func (s *Service) Subscribe(id string, afterSeq int64) (*Subscription, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	sub := &Subscription{j: j}
	j.mu.Lock()
	if afterSeq < 0 || uint64(afterSeq) > j.seq {
		sub.cursor = j.seq
	} else {
		sub.cursor = uint64(afterSeq)
	}
	j.mu.Unlock()
	return sub, nil
}

// Cancel stops a queued or running job. Terminal jobs return ErrTerminal.
func (s *Service) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		s.mu.Unlock()
		return ErrTerminal
	}
	j.userCancel = true
	cancel := j.cancel
	queued := s.queue.Remove(id)
	j.mu.Unlock()
	s.mu.Unlock()

	if queued {
		return s.finishJob(j, StateCanceled, &JobResult{Error: "canceled while queued"})
	}
	if cancel != nil {
		cancel() // runJob observes userCancel and finishes as canceled
	}
	return nil
}

// Resume re-enqueues a job parked as partial by a per-leg deadline; its
// next leg continues from the checkpoint store.
func (s *Service) Resume(id string) (*JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var cost Cost
	if ok {
		cost = j.cost
	}
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	if err := j.resumable(); err != nil {
		return nil, err
	}
	// A job restored from its result record was never priced.
	var cohort *dataset.Cohort
	if cost == (Cost{}) {
		var err error
		if cohort, cost, err = s.price(j); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	// Only Resume leaves the partial state, and it holds s.mu.
	if err := j.resumable(); err != nil {
		return nil, err
	}
	// Withdraw the result record first, so a crash between here and the
	// next leg's result record restores the job as in flight.
	if err := s.commit(record{Kind: recordReopened, ID: id}); err != nil {
		return nil, fmt.Errorf("%w: reopening %s: %v", ErrStorage, id, err)
	}
	j.cost = cost
	j.mu.Lock()
	j.state = StateQueued
	j.result = nil
	j.userCancel = false
	if cohort != nil {
		j.cohort = cohort
	}
	j.done = make(chan struct{})
	j.publishLocked(Event{Type: "state", JobID: j.id, State: StateQueued.String()})
	j.mu.Unlock()
	s.queue.Push(j)
	s.cond.Signal()
	return j.status(), nil
}

// resumable reports why the job cannot resume, if it cannot.
func (j *job) resumable() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StatePartial {
		return fmt.Errorf("service: job %s is %s, only partial jobs resume: %w", j.id, j.state, ErrTerminal)
	}
	return nil
}

// WaitJob blocks until the job reaches a terminal state (or ctx ends) and
// returns its status.
func (s *Service) WaitJob(ctx context.Context, id string) (*JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	done := j.done
	j.mu.Unlock()
	select {
	case <-done:
		return j.status(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ShedStats counts admission rejections by overload mechanism.
type ShedStats struct {
	// BatchShed counts batch submissions shed at the watermark.
	BatchShed uint64 `json:"batch_shed,omitempty"`
	// RateLimited counts submissions denied by the tenant token bucket.
	RateLimited uint64 `json:"rate_limited,omitempty"`
	// QueueFull counts submissions denied at the hard depth limit.
	QueueFull uint64 `json:"queue_full,omitempty"`
	// DegradedRejected counts submissions denied while degraded.
	DegradedRejected uint64 `json:"degraded_rejected,omitempty"`
}

// Stats is the operator view.
type Stats struct {
	Queued      int        `json:"queued"`
	Running     int        `json:"running"`
	GPUsInUse   int        `json:"gpus_in_use"`
	GPUCapacity int        `json:"gpu_capacity"`
	Jobs        int        `json:"jobs"`
	Cache       CacheStats `json:"cache"`
	// Engines counts jobs by their requested scan engine ("auto",
	// "dense", "sparse") — the spec-level knob, since the per-instance
	// Auto resolution happens inside the engine after kernelization.
	Engines map[string]int `json:"engines"`
	// Shed, Breaker, and Disk are the resilience-layer counters
	// (docs/RESILIENCE.md).
	Shed    ShedStats     `json:"shed"`
	Breaker BreakerStatus `json:"breaker"`
	Disk    DiskStats     `json:"disk"`
	// Submit counts the fresh jobs started at submission (preack.go).
	Submit SubmitStats `json:"submit"`
}

// Stats snapshots the queue, admission, cache, and resilience counters.
func (s *Service) Stats() Stats {
	s.refreshUsage()
	brk := s.brk.status()
	s.mu.Lock()
	defer s.mu.Unlock()
	engines := make(map[string]int, 3)
	for _, j := range s.jobs {
		engines[j.opt.Engine.String()]++
	}
	return Stats{
		Queued:      s.queue.Len(),
		Running:     s.adm.running,
		GPUsInUse:   s.adm.inUse,
		GPUCapacity: s.adm.capacity,
		Jobs:        len(s.jobs),
		Cache:       s.cache.Stats(),
		Engines:     engines,
		Shed:        s.shed,
		Breaker:     brk,
		Disk:        s.diskStatsLocked(),
		Submit:      s.submits.stats(),
	}
}

// Readiness is the /readyz view: whether the daemon should receive new
// work, and if not, why. Liveness (/healthz) stays separate — a degraded
// daemon is alive (it drains admitted jobs) but not ready.
type Readiness struct {
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`

	QueueDepth int           `json:"queue_depth"`
	MaxQueued  int           `json:"max_queued"`
	Running    int           `json:"running"`
	Breaker    BreakerStatus `json:"breaker"`
	Disk       DiskStats     `json:"disk"`
}

// Readiness reports whether the daemon is accepting work.
func (s *Service) Readiness() Readiness {
	s.refreshUsage()
	brk := s.brk.status()
	s.mu.Lock()
	defer s.mu.Unlock()
	r := Readiness{
		Ready:      true,
		QueueDepth: s.queue.Len(),
		MaxQueued:  s.cfg.MaxQueued,
		Running:    s.adm.running,
		Breaker:    brk,
		Disk:       s.diskStatsLocked(),
	}
	if s.closed {
		r.Ready = false
		r.Reasons = append(r.Reasons, "shutting down")
	}
	if s.disk.Degraded != "" {
		r.Ready = false
		r.Reasons = append(r.Reasons, "degraded: "+s.disk.Degraded)
	}
	if brk.State == "open" {
		r.Ready = false
		r.Reasons = append(r.Reasons, "circuit breaker open")
	}
	if r.QueueDepth >= s.cfg.MaxQueued {
		r.Ready = false
		r.Reasons = append(r.Reasons, "queue full")
	}
	return r
}

// Close stops accepting work, cancels every running job — each
// checkpoints its completed steps and parks for the next daemon — and
// waits for the dispatch loop and executors to drain.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cancel()
	s.wg.Wait()
	return s.journal.Close()
}
