package cover

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/bitmat"
	"repro/internal/kernelize"
	"repro/internal/reduce"
)

// This file holds the greedy cover loop. Greedy is its one entry point,
// behind RunCtx, Resume and the supervised runner (internal/harness).
// The loop always scans a kernelize.Kernel: under Options.Kernelize the
// static kernel of docs/KERNELIZATION.md (duplicate-column dedup plus
// dominated-gene elimination), otherwise the identity kernel, whose Keep
// is every gene and whose weights and column maps are nil, so remapping,
// mask projection and weighted popcounts reduce to the plain operations.
// Every combination the kernel removes is accounted as Pruned, so each
// completed iteration satisfies Evaluated + Pruned = C(G, h) over the
// ORIGINAL gene count, and winners/steps are recorded in original gene
// ids — a kernelized run is bit-identical to an unkernelized one
// everywhere a caller can observe.

// A Pass is one enumeration pass of the greedy loop: the instance a
// Scanner scores and the options to score it with. Under Kernelize the
// matrices are the kernel's and the weights its column multiplicities;
// otherwise the matrices are the run's inputs and the weights are nil.
type Pass struct {
	// Step is the 0-based greedy step the pass chooses.
	Step          int
	Tumor, Normal *bitmat.Matrix
	Active        *bitmat.Vec
	TumorWeights  *bitmat.Weights
	NormalWeights *bitmat.Weights
	// Denom is the F denominator, pinned to the original cohort size.
	Denom float64
	// Opt is the run's resolved configuration, Engine included.
	Opt Options
}

// A Scanner runs one enumeration pass and returns the winner, in the
// pass's gene ids, and the work counts. findBest, the in-process worker
// pool, is the default; the supervised runner supplies its retrying
// partition scan. A failed scan returns its partial counts with the
// error.
type Scanner func(ctx context.Context, p Pass) (reduce.Combo, Counts, error)

// Hooks are a caller's extension points into Greedy. The zero value scans
// in process and commits nothing.
type Hooks struct {
	// Scan runs each enumeration pass the support pass does not decide
	// (docs/PRUNING.md §7); nil means findBest.
	Scan Scanner
	// Settled, when non-nil, is called on the caller's goroutine for each
	// pass the support pass decides. Scan never sees such a pass.
	Settled func(Pass)
	// Commit, when non-nil, is called on the caller's goroutine after
	// each step is appended to the result; a non-nil error ends the run
	// with that error. Result.ToCheckpoint of its argument is a
	// checkpoint of the run so far.
	Commit func(*Result) error
}

// Greedy runs the weighted-set-cover loop (Sec. II-B) on the given
// tumor/normal matrices: score every h-combination, take the best, cover
// its active tumor samples, repeat. Unless NoPrune is set, each pass is
// first offered to the support pass, which decides it from the active
// samples' own h-subsets when they are few; the rest go to hooks.Scan.
//
// from, when non-nil, is the checkpoint to continue: its steps are
// replayed and re-verified without enumeration, and MaxIterations counts
// from the first replayed step. nil starts a fresh run.
//
// A nil Result comes back only when the options, the matrices or the
// checkpoint are rejected. Otherwise the result holds every committed
// step; on an error (a canceled context included) it also holds the
// counts of the work done before it. Greedy never modifies its inputs.
func Greedy(ctx context.Context, tumor, normal *bitmat.Matrix, opt Options, from *Checkpoint, hooks Hooks) (*Result, error) {
	start := time.Now()
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if tumor.Genes() != normal.Genes() {
		return nil, fmt.Errorf("cover: tumor has %d genes, normal has %d",
			tumor.Genes(), normal.Genes())
	}
	if tumor.Genes() < opt.Hits {
		return nil, fmt.Errorf("cover: %d genes cannot form %d-hit combinations",
			tumor.Genes(), opt.Hits)
	}
	if tumor.Samples() == 0 {
		return nil, fmt.Errorf("cover: no tumor samples")
	}

	res := &Result{}
	active := bitmat.AllOnes(tumor.Samples())
	if from != nil {
		if res, active, err = replay(tumor, normal, opt, from); err != nil {
			return nil, err
		}
	}
	kern, err := newKernel(tumor, normal, opt)
	if err != nil {
		return nil, err
	}
	if opt.Kernelize {
		// The kernel is rebuilt deterministically from the same inputs;
		// only when it matches the one the interrupted run scanned under
		// is the continued leg guaranteed bit-identical.
		fp := kern.Fingerprint()
		if from != nil && from.KernelFingerprint != 0 && fp != from.KernelFingerprint {
			return nil, fmt.Errorf("cover: rebuilt kernel fingerprint %#x, checkpoint has %#x: %w",
				fp, from.KernelFingerprint, ErrFingerprintMismatch)
		}
		res.KernelFingerprint = fp
	}
	// Auto resolves once, against the matrices the kernels actually scan
	// (after kernelization), so every pass of every leg runs one engine;
	// the resolved engine lands in res.Options as provenance.
	opt.Engine = ResolveEngine(opt, kern.Tumor, kern.Normal)
	res.Options = opt

	kactive := kern.MapActive(active)
	if hooks.Scan == nil {
		hooks.Scan = findBest
	}
	denom := float64(tumor.Samples() + normal.Samples())
	err = greedy(ctx, kern, kactive, denom, opt, hooks, res)
	res.Elapsed = time.Since(start)
	return res, err
}

// popWords returns the (weighted) popcount of a packed mask; nil weights
// mean every column counts once.
func popWords(w *bitmat.Weights, words []uint64) int {
	if w == nil {
		n := 0
		for _, x := range words {
			n += bits.OnesCount64(x)
		}
		return n
	}
	return w.PopVec(words)
}

// newKernel builds the instance the greedy loop scans: kernelize.Reduce's
// kernel under Kernelize, the identity kernel otherwise. The identity
// kernel shares the input matrices and never writes into them.
func newKernel(tumor, normal *bitmat.Matrix, opt Options) (*kernelize.Kernel, error) {
	if opt.Kernelize {
		return kernelize.Reduce(tumor, normal, opt.Hits)
	}
	keep := make([]int, tumor.Genes())
	for i := range keep {
		keep[i] = i
	}
	return &kernelize.Kernel{Genes: tumor.Genes(), Keep: keep, Tumor: tumor, Normal: normal}, nil
}

// greedy is Greedy's loop over kern. kactive is the active mask in kernel
// columns. res may already hold replayed steps; the loop appends to it and
// fills Covered/Uncoverable/Evaluated/Pruned, but leaves Elapsed to the
// caller.
//
// Each pass goes to the support pass first (unless NoPrune), then to the
// scan. The support state is the loop's: built once, on the first pass
// whose support fits the budget, and updated by every step after it.
func greedy(ctx context.Context, kern *kernelize.Kernel, kactive *bitmat.Vec, denom float64, opt Options, hooks Hooks, res *Result) error {
	full, err := domainSizeChecked(kern.Genes, opt.Hits)
	if err != nil {
		return err
	}
	kernDomain, err := domainSizeChecked(len(kern.Keep), opt.Hits)
	if err != nil {
		return err
	}
	staticDrop := full - kernDomain
	coverBuf := make([]uint64, kern.Tumor.Words())
	var support supportState

	for opt.MaxIterations == 0 || len(res.Steps) < opt.MaxIterations {
		remaining := popWords(kern.TumorWeights, kactive.Words())
		if remaining == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		iterStart := time.Now()

		p := Pass{
			Step:          len(res.Steps),
			Tumor:         kern.Tumor,
			Normal:        kern.Normal,
			Active:        kactive,
			TumorWeights:  kern.TumorWeights,
			NormalWeights: kern.NormalWeights,
			Denom:         denom,
			Opt:           opt,
		}
		var best reduce.Combo
		var cnt Counts
		settled := false
		if !opt.NoPrune {
			if best, cnt, settled, err = support.pass(ctx, p); err != nil {
				return err
			}
		}
		if !settled {
			best, cnt, err = hooks.Scan(ctx, p)
		} else if hooks.Settled != nil {
			hooks.Settled(p)
		}
		if err == nil {
			// Completed pass: kernel-removed combinations count as pruned,
			// keeping Scanned = C(G, h) over the original genes.
			cnt.Pruned += staticDrop
		}
		res.Evaluated += cnt.Evaluated
		res.Pruned += cnt.Pruned
		if err != nil {
			return err
		}
		if best == reduce.None {
			break
		}

		kern.Tumor.ComboVec(coverBuf, best.GeneIDs()...)
		cov := vecFromWords(kern.Tumor.Samples(), coverBuf)
		cov.And(kactive)
		covered := popWords(kern.TumorWeights, cov.Words())
		if covered == 0 {
			// The best-F combination covers no active sample, and no later
			// pass could differ, so every still-active sample is
			// uncoverable. That includes samples with h or more mutated
			// genes whose combinations all hit too many normal samples.
			res.Uncoverable = remaining
			break
		}
		res.Covered += covered
		support.remove(cov.Words())
		kactive.AndNot(cov)
		activeAfter := popWords(kern.TumorWeights, kactive.Words())

		res.Steps = append(res.Steps, Step{
			Combo:        kern.RemapCombo(best),
			NewlyCovered: covered,
			ActiveAfter:  activeAfter,
			Evaluated:    cnt.Evaluated,
			Pruned:       cnt.Pruned,
			Elapsed:      time.Since(iterStart),
		})
		if hooks.Commit != nil {
			if err := hooks.Commit(res); err != nil {
				return err
			}
		}
		if activeAfter == 0 {
			break
		}
	}
	if res.Uncoverable == 0 {
		res.Uncoverable = popWords(kern.TumorWeights, kactive.Words())
		if opt.MaxIterations > 0 && len(res.Steps) == opt.MaxIterations {
			// Stopped by the iteration cap, not by exhaustion; the
			// remaining samples may still be coverable.
			res.Uncoverable = 0
		}
	}
	return nil
}
