package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitmat"
	"repro/internal/ckptstore"
	"repro/internal/cover"
	"repro/internal/failpoint"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Run executes the supervised greedy cover loop: cover.Greedy, with the
// harness's supervised partition scan as its pass scanner and the
// harness's persistence as its step commit. The context cancels the run
// at partition granularity (pair it with SignalContext for
// checkpoint-and-exit on SIGINT/SIGTERM); Options.Deadline bounds the
// wall clock. On a deadline or cancellation Run returns the best-so-far
// Result with a nil error — early stop is an outcome, not a failure. A
// non-nil error (bad options, fingerprint mismatch, persistence failure,
// injected crash) is returned alongside whatever result had accumulated.
//
// Failpoints on this path: harness/partition (each partition scan
// attempt), harness/crash (after each step's commit — the crash-resume
// property tests kill the run here), plus the cover,
// reduce, and ckptstore points the scan and persistence pass through.
func Run(ctx context.Context, tumor, normal *bitmat.Matrix, opt Options) (*Result, error) {
	start := time.Now()
	r := &run{opt: opt, out: &Result{}, tumor: tumor, normal: normal}
	if r.opt.Store != nil {
		if pc, ok := r.opt.Store.(publishCoster); ok {
			if cost := pc.PublishCost(); cost > 0 {
				// The caller holds a durable point as of the leg's start
				// and owns the completed run's final publish.
				r.costKnown, r.published, r.cheapest = true, start, cost
			}
		}
	}
	cp, err := r.restore()
	if err != nil {
		return nil, err
	}

	dctx := ctx
	if r.opt.Deadline > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, r.opt.Deadline)
		defer cancel()
	}
	res, err := cover.Greedy(dctx, tumor, normal, r.opt.Cover, cp,
		cover.Hooks{Scan: r.scanStep, Settled: r.settled, Commit: r.commit})
	if res == nil {
		if cp != nil {
			err = fmt.Errorf("harness: resume generation %d: %w", r.out.ResumedGeneration, err)
		}
		return nil, err
	}
	r.res = res
	if err != nil && dctx.Err() != nil && errors.Is(err, dctx.Err()) {
		// The in-flight step's partial scan is discarded — a step is
		// all-or-nothing, so a resumed leg redoes it identically.
		r.markStopped(ctx)
		res.Evaluated, res.Pruned = r.kept.Evaluated, r.kept.Pruned
		err = nil
	}
	if err == nil {
		err = r.persistFinal()
	}
	r.finish()
	r.out.Elapsed = time.Since(start)
	return r.out, err
}

// PublishRatio is how many times the cheapest publish a leg has measured
// must pass between two of its step publishes: publishing then takes at
// most about 1/PublishRatio of the leg's wall time, and a crash loses at
// most the work of that interval plus the step in flight. The discovery
// service waits the same interval before it commits the spec record of a
// job it started at submission on its own.
const PublishRatio = 8

// run is the mutable state of one supervised leg.
type run struct {
	opt           Options
	tumor, normal *bitmat.Matrix
	// tumorFP and normalFP are the inputs' fingerprints, hashed at the
	// leg's first publish (hashed) and reused by every later one: the
	// inputs are fixed for the leg, and a leg that never publishes never
	// hashes them.
	tumorFP, normalFP uint64
	hashed            bool

	// res is the loop's result as of the last commit, in the engine's own
	// Result shape, so checkpoints serialize through cover's
	// CheckpointFor; kept holds its work totals at that commit.
	res  *cover.Result
	kept cover.Counts

	out   *Result
	dirty bool // steps completed since the last persist
	// published is when this leg's last publish finished (zero before
	// its first); cheapest is the cheapest publish, encode plus Save,
	// the leg has measured. With costKnown, the Store reported a cost:
	// it seeds cheapest, and the leg's start counts as its last publish.
	published time.Time
	cheapest  time.Duration
	costKnown bool
	eventsMu  sync.Mutex
}

// restore loads the newest valid checkpoint generation when resuming; it
// returns nil for a fresh run.
func (r *run) restore() (*cover.Checkpoint, error) {
	if !r.opt.Resume {
		return nil, nil
	}
	if r.opt.Store == nil {
		return nil, fmt.Errorf("harness: Resume requires a Store")
	}
	snap, err := r.opt.Store.Load()
	if err != nil {
		return nil, fmt.Errorf("harness: resume: %w", err)
	}
	cp, err := cover.ReadCheckpoint(bytes.NewReader(snap.Payload))
	if err != nil {
		return nil, fmt.Errorf("harness: resume generation %d: %w", snap.Generation, err)
	}
	r.kept = cover.Counts{Evaluated: cp.Evaluated, Pruned: cp.Pruned}
	r.out.Resumed = true
	r.out.ResumedGeneration = snap.Generation
	r.out.ReplayedSteps = len(cp.Combos)
	r.out.SkippedGenerations = len(snap.Skipped)
	r.event(Event{Kind: EventResume, Step: -1, Generation: snap.Generation})
	return cp, nil
}

// commit is the loop's per-step commit: it persists when a publish is
// due, then passes the harness/crash failpoint.
func (r *run) commit(res *cover.Result) error {
	r.res = res
	r.kept = cover.Counts{Evaluated: res.Evaluated, Pruned: res.Pruned}
	r.dirty = true
	if r.publishDue() {
		if err := r.persist(); err != nil {
			return err
		}
	}
	// The crash-resume property tests arm this point to kill the run
	// immediately after a step commits.
	if err := failpoint.Check("harness/crash"); err != nil {
		return fmt.Errorf("harness: crashed after step %d: %w", len(res.Steps)-1, err)
	}
	return nil
}

// publishDue reports whether the step just committed is published: always
// when the leg has not published yet, so every leg that commits a step
// makes durable progress and any crash schedule converges; otherwise once
// PublishRatio times the cheapest publish has passed since the last one.
// A leg whose Store reported a cost counts its start as a publish, so its
// first step waits for the cadence too.
// The cheapest, not the latest, sets the cadence, so a stalled Save (a
// slow fsync, the service's disk-full retry) does not stretch the loss
// window after it.
func (r *run) publishDue() bool {
	return r.published.IsZero() || time.Since(r.published) >= PublishRatio*r.cheapest
}

// markStopped records why the run stopped early.
func (r *run) markStopped(ctx context.Context) {
	if ctx.Err() != nil {
		r.out.Stop = StopCanceled
	} else {
		r.out.Stop = StopDeadline
	}
}

// finish copies the loop's result into the harness result.
func (r *run) finish() {
	c := r.res
	r.out.Steps = c.Steps
	r.out.Covered = c.Covered
	r.out.Uncoverable = c.Uncoverable
	r.out.Evaluated = c.Evaluated
	r.out.Pruned = c.Pruned
	r.out.KernelFingerprint = c.KernelFingerprint
	r.out.Options = c.Options
	r.out.Partial = r.out.Stop != StopCompleted || len(r.out.Quarantined) > 0
}

// persist writes the completed steps to the store.
func (r *run) persist() error {
	if r.opt.Store == nil {
		r.dirty = false
		return nil
	}
	if !r.hashed {
		r.tumorFP, r.normalFP, r.hashed = r.tumor.Fingerprint(), r.normal.Fingerprint(), true
	}
	start := time.Now()
	cp := r.res.CheckpointFor(r.tumorFP, r.normalFP)
	// Only committed steps' work is durable: a completed run's result
	// also counts its closing no-winner pass, which a leg resumed from
	// this checkpoint scans again.
	cp.Evaluated, cp.Pruned = r.kept.Evaluated, r.kept.Pruned
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		return fmt.Errorf("harness: encoding checkpoint: %w", err)
	}
	gen, err := r.opt.Store.Save(buf.Bytes())
	if err != nil {
		return fmt.Errorf("harness: persisting %d steps: %w", len(r.res.Steps), err)
	}
	end := time.Now()
	if cost := end.Sub(start); r.published.IsZero() || cost < r.cheapest {
		r.cheapest = cost
	}
	r.published = end
	r.out.PersistedGeneration = gen
	r.dirty = false
	r.event(Event{Kind: EventCheckpoint, Step: len(r.res.Steps) - 1, Generation: gen})
	return nil
}

// persistFinal persists any steps the cadence has not yet covered. A
// completed run whose Store reported a publish cost publishes them only
// when the cadence says a publish is due: its caller makes the result
// durable. Deadline and cancel stops always publish.
func (r *run) persistFinal() error {
	if !r.dirty || r.costKnown && r.out.Stop == StopCompleted && !r.publishDue() {
		return nil
	}
	return r.persist()
}

// settled reports a pass the support pass decided without a scan
// (docs/PRUNING.md §7): it has no partitions, so its one progress report
// carries Done == Total == 0.
func (r *run) settled(p cover.Pass) {
	if r.opt.OnProgress == nil {
		return
	}
	r.eventsMu.Lock()
	defer r.eventsMu.Unlock()
	r.opt.OnProgress(Progress{Step: p.Step, Unscanned: r.out.Unscanned})
}

// scanStep is the loop's pass scanner: cover.ScanPass over the pass's
// partition plan, every partition pruning from the pass's seed and
// scanned under supervise. It returns the pass winner and the work counts
// of the successfully scanned partitions, and records the quarantined
// ones in plan order. A pass aborted by cancellation returns the
// context's error; Run then discards its counts, so the step is redone
// whole on resume.
func (r *run) scanStep(ctx context.Context, p cover.Pass) (reduce.Combo, cover.Counts, error) {
	parts, err := cover.PartitionPlan(p.Tumor.Genes(), p.Opt, max(p.Opt.Workers, 1)*cover.PartitionsPerWorker)
	if err != nil {
		return reduce.None, cover.Counts{}, err
	}
	quarantined := make([]*Quarantine, len(parts))
	// Pass-local progress tally; the cumulative Unscanned base is stable
	// for the whole pass (quarantines fold in after it). The tally is
	// advanced and delivered under eventsMu in one critical section, so
	// observers see Done climb without gaps or reordering.
	var prog struct {
		done, quar int
		unscanned  uint64
	}
	try := func(i int, scan func()) bool {
		q := r.supervise(ctx, p.Step, i, parts[i], scan)
		quarantined[i] = q
		if r.opt.OnProgress != nil {
			r.eventsMu.Lock()
			defer r.eventsMu.Unlock()
			prog.done++
			if q != nil {
				prog.quar++
				prog.unscanned += q.Size()
			}
			r.opt.OnProgress(Progress{Step: p.Step, Done: prog.done, Total: len(parts),
				Quarantined: prog.quar, Unscanned: r.out.Unscanned + prog.unscanned})
		}
		return q == nil
	}
	best, cnt, err := cover.ScanPass(ctx, p, parts, true, try)
	if err != nil {
		return best, cnt, err
	}
	for _, q := range quarantined {
		if q != nil {
			r.out.Quarantined = append(r.out.Quarantined, *q)
			r.out.Unscanned += q.Size()
		}
	}
	return best, cnt, nil
}

// supervise runs partition i's scan with recovery, bounded retry and
// backoff, and returns the quarantine record when every attempt failed.
// An empty partition has nothing to scan and is never attempted.
func (r *run) supervise(ctx context.Context, step, i int, part sched.Partition, scan func()) *Quarantine {
	if part.Size() == 0 {
		return nil
	}
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= DefaultMaxRetries; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, backoff(step, i, attempt)) {
			break // canceled mid-backoff; the whole step aborts
		}
		attempts++
		err := attemptScan(part, scan)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
		if attempt < DefaultMaxRetries {
			r.event(Event{Kind: EventRetry, Step: step, Partition: part, Attempt: attempts, Err: err})
		}
	}
	q := &Quarantine{Step: step, Lo: part.Lo, Hi: part.Hi, Attempts: attempts}
	if lastErr != nil {
		q.LastError = lastErr.Error()
	}
	r.event(Event{Kind: EventQuarantine, Step: step, Partition: part, Attempt: attempts, Err: lastErr})
	return q
}

// attemptScan runs one scan attempt behind the harness/partition
// failpoint, converting a panic anywhere under the kernel into an error
// the retry loop can handle. This is the recover-and-retry pattern the
// goroleak/panicfree fixtures pin.
func attemptScan(part sched.Partition, scan func()) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("harness: partition [%d,%d) panicked: %v", part.Lo, part.Hi, rec)
		}
	}()
	if err := failpoint.Check("harness/partition"); err != nil {
		return err
	}
	scan()
	return nil
}

// backoff returns the deterministic, jittered delay before retry
// `attempt` (1-based) of partition i in step stepIdx.
func backoff(stepIdx, i, attempt int) time.Duration {
	d := DefaultBackoffBase << (attempt - 1)
	if d > DefaultBackoffMax || d <= 0 {
		d = DefaultBackoffMax
	}
	// Jitter in [0.5, 1.5): seeded by (step, partition, attempt) so two
	// identical runs wait identically.
	u := splitmix64(uint64(stepIdx)<<40 ^ uint64(i)<<8 ^ uint64(attempt))
	frac := float64(u>>11) / float64(1<<53)
	d = time.Duration(float64(d) * (0.5 + frac))
	if d > DefaultBackoffMax {
		d = DefaultBackoffMax
	}
	return d
}

// event delivers an observer callback, serialized.
func (r *run) event(e Event) {
	if r.opt.OnEvent == nil {
		return
	}
	r.eventsMu.Lock()
	defer r.eventsMu.Unlock()
	r.opt.OnEvent(e)
}

// sleepCtx sleeps for d unless the context is canceled first; it reports
// whether the sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// splitmix64 is the standard 64-bit mix for the jitter stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// IsNoCheckpoint reports whether err is a failed Resume due to an empty
// store (as opposed to a corrupt or mismatched one).
func IsNoCheckpoint(err error) bool {
	return errors.Is(err, ckptstore.ErrNoCheckpoint)
}
