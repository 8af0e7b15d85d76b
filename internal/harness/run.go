package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmat"
	"repro/internal/ckptstore"
	"repro/internal/combinat"
	"repro/internal/cover"
	"repro/internal/failpoint"
	"repro/internal/kernelize"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Run executes the supervised greedy cover loop. The context cancels the
// run at partition granularity (pair it with SignalContext for
// checkpoint-and-exit on SIGINT/SIGTERM); Options.Deadline bounds the
// wall clock. On a deadline or cancellation Run returns the best-so-far
// Result with a nil error — early stop is an outcome, not a failure. A
// non-nil error (bad options, fingerprint mismatch, persistence failure,
// injected crash) is returned alongside whatever result had accumulated.
//
// Failpoints on this path: harness/partition (each partition scan
// attempt), harness/crash (after each step's persistence — the
// crash-resume property tests kill the run here), plus the cover,
// reduce, and ckptstore points the scan and persistence pass through.
func Run(ctx context.Context, tumor, normal *bitmat.Matrix, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	copt, err := opt.Cover.Normalized()
	if err != nil {
		return nil, err
	}
	// The harness owns the loop; the engine-level callbacks would fire
	// from replay and per-partition scans where their contracts (one
	// call per completed iteration) cannot hold.
	copt.Progress = nil
	copt.CheckpointEvery = 0
	copt.OnCheckpoint = nil
	if tumor.Genes() != normal.Genes() {
		return nil, fmt.Errorf("harness: tumor has %d genes, normal has %d",
			tumor.Genes(), normal.Genes())
	}
	if tumor.Samples() == 0 {
		return nil, fmt.Errorf("harness: no tumor samples")
	}
	workers := copt.Workers
	if workers < 1 {
		workers = 1
	}
	// Under Kernelize the partition plan covers the reduced gene axis: the
	// kernel is STATIC for the whole run (no per-iteration incumbent drop,
	// unlike the in-process engine) so the plan — and with it every
	// partition's counts — stays identical across resumed legs, which is
	// what the crash-invariance property tests require.
	var kern *kernelize.Kernel
	var staticDrop uint64
	planGenes := tumor.Genes()
	if copt.Kernelize {
		kern, err = kernelize.Reduce(tumor, normal, copt.Hits)
		if err != nil {
			return nil, err
		}
		planGenes = len(kern.Keep)
		full, ok := combinat.Binomial(uint64(tumor.Genes()), uint64(copt.Hits))
		if !ok {
			return nil, fmt.Errorf("harness: domain C(%d, %d) overflows uint64",
				tumor.Genes(), copt.Hits)
		}
		kd, ok := combinat.Binomial(uint64(planGenes), uint64(copt.Hits))
		if !ok {
			return nil, fmt.Errorf("harness: kernel domain C(%d, %d) overflows uint64",
				planGenes, copt.Hits)
		}
		staticDrop = full - kd
	}
	parts, err := cover.PartitionPlan(planGenes, copt, workers*DefaultPartitionsPerWorker)
	if err != nil {
		return nil, err
	}
	// Resolve EngineAuto once, against the matrices the partitions will
	// actually scan (the kernelized ones under Kernelize), so every
	// partition of every leg — including resumed legs — runs the same
	// engine, and the result's Options record it as provenance. The
	// engine is an execution knob: checkpoints don't carry it, so a run
	// checkpointed under one engine may legitimately resume under the
	// other with bit-identical output.
	if kern != nil {
		copt.Engine = cover.ResolveEngine(copt, kern.Tumor, kern.Normal)
	} else {
		copt.Engine = cover.ResolveEngine(copt, tumor, normal)
	}

	r := &run{
		opt:        opt,
		copt:       copt,
		tumor:      tumor,
		normal:     normal,
		kern:       kern,
		staticDrop: staticDrop,
		parts:      parts,
		denom:      float64(tumor.Samples() + normal.Samples()),
		out:        &Result{Options: copt},
	}
	start := time.Now()
	defer func() { r.out.Elapsed = time.Since(start) }()

	if err := r.restore(); err != nil {
		return nil, err
	}

	dctx := ctx
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		dctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}

	err = r.loop(ctx, dctx)
	r.finish()
	return r.out, err
}

// run is the mutable state of one supervised leg.
type run struct {
	opt  Options
	copt cover.Options

	tumor, normal *bitmat.Matrix
	parts         []sched.Partition
	denom         float64

	// kern, when non-nil, is the static reduced instance the scans run
	// over; staticDrop = C(G, h) − C(kernG, h) is the per-iteration prune
	// credit for the genes the kernel removed, so Evaluated+Pruned still
	// tallies the original λ-domain. Checkpoints keep binding to the
	// ORIGINAL matrices; winners are remapped to original gene ids before
	// a step is recorded.
	kern       *kernelize.Kernel
	staticDrop uint64

	// cur is the matrix the scans run over: tumor in mask mode, the
	// shrinking working splice under BitSplice, the kernel tumor under
	// Kernelize. active is the scan mask (all-ones at cur's width under
	// BitSplice; kernel-width under Kernelize).
	cur    *bitmat.Matrix
	active *bitmat.Vec

	// cres accumulates the completed steps in the engine's own Result
	// shape, so checkpoints serialize through cover.ToCheckpoint
	// unchanged.
	cres *cover.Result

	out      *Result
	dirty    bool // steps completed since the last persist
	eventsMu sync.Mutex
}

// restore initializes fresh state or replays the newest valid checkpoint
// generation.
func (r *run) restore() error {
	nt := r.tumor.Samples()
	if r.opt.Resume {
		if r.opt.Store == nil {
			return fmt.Errorf("harness: Resume requires a Store")
		}
		snap, err := r.opt.Store.Load()
		if err != nil {
			return fmt.Errorf("harness: resume: %w", err)
		}
		cp, err := cover.ReadCheckpoint(bytes.NewReader(snap.Payload))
		if err != nil {
			return fmt.Errorf("harness: resume generation %d: %w", snap.Generation, err)
		}
		cres, active, err := cover.Replay(r.tumor, r.normal, r.copt, cp)
		if err != nil {
			return fmt.Errorf("harness: resume generation %d: %w", snap.Generation, err)
		}
		if r.kern != nil && cp.KernelFingerprint != 0 && cp.KernelFingerprint != r.kern.Fingerprint() {
			return fmt.Errorf("harness: resume generation %d: checkpoint kernel fingerprint %016x does not match the rebuilt kernel %016x",
				snap.Generation, cp.KernelFingerprint, r.kern.Fingerprint())
		}
		r.cres = cres
		r.active = active
		r.out.Resumed = true
		r.out.ResumedGeneration = snap.Generation
		r.out.ReplayedSteps = len(cres.Steps)
		r.out.SkippedGenerations = len(snap.Skipped)
		r.event(Event{Kind: EventResume, Step: -1, Generation: snap.Generation})
	} else {
		r.cres = &cover.Result{Options: r.copt}
		r.active = bitmat.AllOnes(nt)
	}
	r.cur = r.tumor
	if r.kern != nil {
		// The scans run on the reduced instance; the replayed active mask
		// carries over through the column map. Duplicate columns are
		// covered in lockstep, so the representative column's bit decides
		// for its whole group.
		r.cres.KernelFingerprint = r.kern.Fingerprint()
		r.cur = r.kern.Tumor
		r.active = r.kern.MapActive(r.active)
	}
	if r.copt.BitSplice {
		// The working splice is derived state: drop the already-covered
		// samples from a private copy. Checkpoints keep binding to the
		// ORIGINAL matrices, exactly as cover.Run's cadence checkpoints
		// do.
		covered := bitmat.AllOnes(nt)
		covered.AndNot(r.active)
		r.cur = r.tumor.Clone().Splice(covered)
		r.active = bitmat.AllOnes(r.cur.Samples())
	}
	return nil
}

// loop is the supervised greedy loop. ctx is the caller's context, dctx
// additionally carries the deadline.
func (r *run) loop(ctx, dctx context.Context) error {
	for {
		if r.copt.MaxIterations > 0 && len(r.cres.Steps) >= r.copt.MaxIterations {
			return r.persistFinal()
		}
		remaining := r.weightedPop(r.active)
		if r.copt.BitSplice {
			remaining = r.cur.Samples()
			r.active = bitmat.AllOnes(remaining)
		}
		if remaining == 0 {
			return r.persistFinal()
		}
		if dctx.Err() != nil {
			r.markStopped(ctx)
			return r.persistFinal()
		}

		stepIdx := len(r.cres.Steps)
		iterStart := time.Now()
		seed, err := r.seed()
		if err != nil {
			return fmt.Errorf("harness: seeding step %d: %w", stepIdx, err)
		}
		best, cnt, quars, aborted := r.scanStep(dctx, stepIdx, seed)
		if aborted {
			// The in-flight step's partial scan is discarded — a step is
			// all-or-nothing, so a resumed leg redoes it identically.
			r.markStopped(ctx)
			return r.persistFinal()
		}
		for _, q := range quars {
			r.out.Quarantined = append(r.out.Quarantined, q)
			r.out.Unscanned += q.Size()
		}
		// The genes the static kernel removed are pruned work on every
		// pass: with the credit, Evaluated+Pruned per completed step still
		// sums to the original C(G, h).
		cnt.Pruned += r.staticDrop
		r.cres.Evaluated += cnt.Evaluated
		r.cres.Pruned += cnt.Pruned
		if best == reduce.None {
			r.cres.Uncoverable = remaining
			return r.persistFinal()
		}

		if done := r.applyStep(stepIdx, best, cnt, remaining, iterStart); done {
			return r.persistFinal()
		}
		if len(r.cres.Steps)%r.opt.CheckpointEvery == 0 {
			if err := r.persist(); err != nil {
				return err
			}
		}
		// The crash-resume property tests arm this point to kill the
		// run immediately after a step commits.
		if err := failpoint.Check("harness/crash"); err != nil {
			return fmt.Errorf("harness: crashed after step %d: %w", stepIdx, err)
		}
	}
}

// applyStep applies a winning combination to the working state and
// records the step. It reports whether the cover loop is finished.
func (r *run) applyStep(stepIdx int, best reduce.Combo, cnt cover.Counts, remaining int, iterStart time.Time) bool {
	coverBuf := make([]uint64, r.cur.Words())
	r.cur.ComboVec(coverBuf, best.GeneIDs()...)
	var covered, activeAfter int
	if r.copt.BitSplice {
		cov := bitmat.NewVec(r.cur.Samples())
		copy(cov.Words(), coverBuf)
		covered = cov.PopCount()
		if covered > 0 {
			r.cur = r.cur.Splice(cov)
			activeAfter = r.cur.Samples()
		}
	} else {
		cov := bitmat.NewVec(r.cur.Samples())
		copy(cov.Words(), coverBuf)
		cov.And(r.active)
		covered = r.weightedPop(cov)
		if covered > 0 {
			r.active.AndNot(cov)
			activeAfter = r.weightedPop(r.active)
		}
	}
	if covered == 0 {
		// The best combination covers nothing: the remaining samples
		// have fewer than h mutated genes and are uncoverable.
		r.cres.Uncoverable = remaining
		return true
	}
	if r.kern != nil {
		// Steps — and through them checkpoints — speak original gene ids;
		// the kernel's identity never leaks into persisted state beyond
		// its fingerprint.
		best = r.kern.RemapCombo(best)
	}
	r.cres.Covered += covered
	r.cres.Steps = append(r.cres.Steps, cover.Step{
		Combo:        best,
		NewlyCovered: covered,
		ActiveAfter:  activeAfter,
		Evaluated:    cnt.Evaluated,
		Pruned:       cnt.Pruned,
		Elapsed:      time.Since(iterStart),
	})
	r.dirty = true
	return activeAfter == 0
}

// markStopped records why the run stopped early.
func (r *run) markStopped(ctx context.Context) {
	if ctx.Err() != nil {
		r.out.Stop = StopCanceled
	} else {
		r.out.Stop = StopDeadline
	}
}

// finish copies the accumulated engine result into the harness result.
func (r *run) finish() {
	c := r.cres
	if c == nil {
		return
	}
	r.out.Steps = c.Steps
	r.out.Covered = c.Covered
	r.out.Uncoverable = c.Uncoverable
	r.out.Evaluated = c.Evaluated
	r.out.Pruned = c.Pruned
	r.out.KernelFingerprint = c.KernelFingerprint
	r.out.Partial = r.out.Stop != StopCompleted || len(r.out.Quarantined) > 0
}

// persist writes the completed steps to the store.
func (r *run) persist() error {
	if r.opt.Store == nil {
		r.dirty = false
		return nil
	}
	cp := r.cres.ToCheckpoint(r.tumor, r.normal)
	var buf bytes.Buffer
	if err := cp.Write(&buf); err != nil {
		return fmt.Errorf("harness: encoding checkpoint: %w", err)
	}
	gen, err := r.opt.Store.Save(buf.Bytes())
	if err != nil {
		return fmt.Errorf("harness: persisting %d steps: %w", len(r.cres.Steps), err)
	}
	r.out.PersistedGeneration = gen
	r.dirty = false
	r.event(Event{Kind: EventCheckpoint, Step: len(r.cres.Steps) - 1, Generation: gen})
	return nil
}

// persistFinal persists any steps the cadence has not yet covered.
func (r *run) persistFinal() error {
	if !r.dirty {
		return nil
	}
	return r.persist()
}

// partOutcome is one partition's supervised scan result.
type partOutcome struct {
	combo      reduce.Combo
	cnt        cover.Counts
	quarantine *Quarantine
}

// scanNormal returns the normal matrix and the column weights the
// partitions scan alongside r.cur: the kernel's under Kernelize, the
// unweighted originals otherwise.
func (r *run) scanNormal() (normal *bitmat.Matrix, tw, nw *bitmat.Weights) {
	if r.kern != nil {
		return r.kern.Normal, r.kern.TumorWeights, r.kern.NormalWeights
	}
	return r.normal, nil, nil
}

// seed computes the pass's seed incumbent over exactly the instance the
// partitions scan. It is a pure function of that instance and the
// options, so every partition's counts stay reproducible across resumed
// legs.
func (r *run) seed() (reduce.Combo, error) {
	normal, tw, nw := r.scanNormal()
	return cover.SeedIncumbent(r.cur, normal, r.active, tw, nw, r.copt, r.denom)
}

// scanStep runs one greedy step's enumeration across the partition plan
// under supervision, every partition pruning from the pass's seed. It
// returns the step winner, the work counts of the successfully scanned
// partitions, the quarantines, and whether the step was aborted by
// cancellation (in which case the other returns are meaningless and the
// step must be redone).
func (r *run) scanStep(ctx context.Context, stepIdx int, seed reduce.Combo) (reduce.Combo, cover.Counts, []Quarantine, bool) {
	workers := r.copt.Workers
	if workers < 1 {
		workers = 1
	}
	outcomes := make([]partOutcome, len(r.parts))
	// Step-local progress tally; the cumulative Unscanned base is stable
	// for the whole step (loop() folds quarantines in between steps).
	// The tally is advanced and delivered under eventsMu in one critical
	// section, so observers see Done climb without gaps or reordering.
	var prog struct {
		done, quar int
		unscanned  uint64
	}
	report := func(q *Quarantine) {
		if r.opt.OnProgress == nil {
			return
		}
		r.eventsMu.Lock()
		defer r.eventsMu.Unlock()
		prog.done++
		if q != nil {
			prog.quar++
			prog.unscanned += q.Size()
		}
		r.opt.OnProgress(Progress{Step: stepIdx, Done: prog.done, Total: len(r.parts),
			Quarantined: prog.quar, Unscanned: r.out.Unscanned + prog.unscanned})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(r.parts) {
					return
				}
				if r.parts[i].Size() == 0 {
					outcomes[i] = partOutcome{combo: reduce.None}
				} else {
					outcomes[i] = r.runPartition(ctx, stepIdx, i, seed)
				}
				report(outcomes[i].quarantine)
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		return reduce.None, cover.Counts{}, nil, true
	}

	// The seed joins the reduction. Without quarantines this changes
	// nothing: the partition holding the true winner always finds it, and
	// it is never worse than the seed. With the seed's own partition
	// quarantined, the survivors have pruned against the seed's bound, so
	// only the seed keeps the step's winner the best of the survivors and
	// the seed.
	best := seed
	var cnt cover.Counts
	var quars []Quarantine
	for _, o := range outcomes {
		if o.quarantine != nil {
			quars = append(quars, *o.quarantine)
			continue
		}
		if o.combo.Better(best) {
			best = o.combo
		}
		cnt.Evaluated += o.cnt.Evaluated
		cnt.Pruned += o.cnt.Pruned
	}
	return best, cnt, quars, false
}

// runPartition scans one partition with recovery, bounded retry, and
// quarantine.
func (r *run) runPartition(ctx context.Context, stepIdx, i int, seed reduce.Combo) partOutcome {
	part := r.parts[i]
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= r.opt.MaxRetries; attempt++ {
		if attempt > 0 {
			if !sleepCtx(ctx, r.backoff(stepIdx, i, attempt)) {
				break // canceled mid-backoff; the whole step aborts
			}
		}
		attempts++
		combo, cnt, err := r.scanOnce(part, seed)
		if err == nil {
			return partOutcome{combo: combo, cnt: cnt}
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
		if attempt < r.opt.MaxRetries {
			r.event(Event{Kind: EventRetry, Step: stepIdx, Partition: part, Attempt: attempts, Err: err})
		}
	}
	q := &Quarantine{Step: stepIdx, Lo: part.Lo, Hi: part.Hi, Attempts: attempts}
	if lastErr != nil {
		q.LastError = lastErr.Error()
	}
	r.event(Event{Kind: EventQuarantine, Step: stepIdx, Partition: part, Attempt: attempts, Err: lastErr})
	return partOutcome{combo: reduce.None, quarantine: q}
}

// scanOnce runs one partition scan attempt, converting a panic anywhere
// under the kernel into an error the retry loop can handle. This is the
// recover-and-retry pattern the goroleak/panicfree fixtures pin.
func (r *run) scanOnce(part sched.Partition, seed reduce.Combo) (c reduce.Combo, n cover.Counts, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("harness: partition [%d,%d) panicked: %v", part.Lo, part.Hi, rec)
		}
	}()
	if ferr := failpoint.Check("harness/partition"); ferr != nil {
		return reduce.None, cover.Counts{}, ferr
	}
	normal, tw, nw := r.scanNormal()
	return cover.ScanPartitionWeighted(r.cur, normal, r.active, tw, nw, r.copt, part, r.denom, seed)
}

// weightedPop counts the original samples a kernel-width mask stands for;
// outside kernel mode (or when no columns were merged) it is a plain
// popcount.
func (r *run) weightedPop(v *bitmat.Vec) int {
	if r.kern == nil || r.kern.TumorWeights == nil {
		return v.PopCount()
	}
	return r.kern.TumorWeights.PopVec(v.Words())
}

// backoff returns the deterministic, jittered delay before retry
// `attempt` (1-based) of partition i in step stepIdx.
func (r *run) backoff(stepIdx, i, attempt int) time.Duration {
	d := r.opt.BackoffBase << (attempt - 1)
	if d > r.opt.BackoffMax || d <= 0 {
		d = r.opt.BackoffMax
	}
	// Jitter in [0.5, 1.5): seeded by (run seed, step, partition,
	// attempt) so two identical runs wait identically.
	u := splitmix64(uint64(r.opt.RetrySeed)<<32 ^ uint64(stepIdx)<<40 ^ uint64(i)<<8 ^ uint64(attempt))
	frac := float64(u>>11) / float64(1<<53)
	d = time.Duration(float64(d) * (0.5 + frac))
	if d > r.opt.BackoffMax {
		d = r.opt.BackoffMax
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
