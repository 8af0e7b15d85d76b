package cover

import (
	"context"
	"math/bits"
	"time"

	"repro/internal/bitmat"
	"repro/internal/failpoint"
	"repro/internal/kernelize"
	"repro/internal/reduce"
)

// This file holds the greedy cover loop that RunCtx and Resume share.
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
// kernel shares the input matrices; a BitSplice run replaces its Tumor
// with spliced copies and never writes into the original.
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

// greedy is the weighted-set-cover loop (Sec. II-B) over kern: score every
// h-combination, take the best, cover its active tumor samples, repeat.
// kactive is the active mask in kernel columns. res may already hold
// replayed steps; the loop appends to it and fills Covered/Uncoverable/
// Evaluated/Pruned, but leaves Elapsed to the caller. Checkpoints bind to
// the ORIGINAL matrices, so a checkpoint replays under any engine and
// sample-axis mode.
//
// BitSplice is the loop's only per-pass variation: each scan drops the
// genes splicing has emptied (splicePass), and each step splices its
// covered samples out of kern.Tumor, after which kactive is all-ones at
// the new width.
func greedy(ctx context.Context, tumor, normal *bitmat.Matrix, kern *kernelize.Kernel, kactive *bitmat.Vec, opt Options, res *Result) error {
	full, err := domainSizeChecked(kern.Genes, opt.Hits)
	if err != nil {
		return err
	}
	kernDomain, err := domainSizeChecked(len(kern.Keep), opt.Hits)
	if err != nil {
		return err
	}
	staticDrop := full - kernDomain

	// The denominator stays pinned to the original cohort size so F values
	// remain comparable across iterations whether or not the kernel or a
	// splice shrinks the working matrix.
	denom := float64(tumor.Samples() + normal.Samples())
	var coverBuf []uint64

	for opt.MaxIterations == 0 || len(res.Steps) < opt.MaxIterations {
		if err := ctx.Err(); err != nil {
			return err
		}
		remaining := popWords(kern.TumorWeights, kactive.Words())
		if remaining == 0 {
			break
		}
		iterStart := time.Now()

		var best reduce.Combo
		var cnt Counts
		if opt.BitSplice && !opt.NoPrune {
			best, cnt, err = splicePass(ctx, kern.Tumor, kactive, kern.Normal, opt, denom)
		} else {
			best, cnt, err = findBest(ctx, kern.Tumor, kactive, kern.Normal,
				kern.TumorWeights, kern.NormalWeights, opt, denom)
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

		if len(coverBuf) != kern.Tumor.Words() {
			coverBuf = make([]uint64, kern.Tumor.Words())
		}
		kern.Tumor.ComboVec(coverBuf, best.GeneIDs()...)
		cov := vecFromWords(kern.Tumor.Samples(), coverBuf)
		cov.And(kactive)
		covered := popWords(kern.TumorWeights, cov.Words())
		if covered == 0 {
			// The best combination covers nothing: the remaining samples
			// have fewer than h mutated genes and are uncoverable.
			res.Uncoverable = remaining
			break
		}
		res.Covered += covered
		if opt.BitSplice {
			if err := failpoint.Check("cover/splice"); err != nil {
				return err
			}
			kern.Tumor = kern.Tumor.Splice(cov)
			kactive = bitmat.AllOnes(kern.Tumor.Samples())
		} else {
			kactive.AndNot(cov)
		}
		activeAfter := popWords(kern.TumorWeights, kactive.Words())

		step := Step{
			Combo:        kern.RemapCombo(best),
			NewlyCovered: covered,
			ActiveAfter:  activeAfter,
			Evaluated:    cnt.Evaluated,
			Pruned:       cnt.Pruned,
			Elapsed:      time.Since(iterStart),
		}
		res.Steps = append(res.Steps, step)
		if opt.Progress != nil {
			opt.Progress(step)
		}
		if opt.CheckpointEvery > 0 && opt.OnCheckpoint != nil &&
			len(res.Steps)%opt.CheckpointEvery == 0 {
			opt.OnCheckpoint(res.ToCheckpoint(tumor, normal))
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

// splicePass is one enumeration pass of a pruned BitSplice run, with gene
// compaction (docs/PRUNING.md): once splicing has removed all tumor
// samples a gene was mutated in, no combination containing it can have
// TP > 0, so the scan runs on the surviving genes only and every dropped
// combination counts as pruned. With fewer than h surviving genes every
// combination has TP = 0: the whole pass is pruned and no winner is
// returned, which ends the loop with the remaining samples uncoverable.
func splicePass(ctx context.Context, tumor *bitmat.Matrix, active *bitmat.Vec, normal *bitmat.Matrix, opt Options, denom float64) (reduce.Combo, Counts, error) {
	keep := compactKeep(tumor) // nil when no gene can be dropped
	if keep == nil {
		return findBest(ctx, tumor, active, normal, nil, nil, opt, denom)
	}
	full, err := domainSizeChecked(tumor.Genes(), opt.Hits)
	if err != nil {
		return reduce.None, Counts{}, err
	}
	if len(keep) < opt.Hits {
		return reduce.None, Counts{Pruned: full}, nil
	}
	best, cnt, err := findBest(ctx, tumor.SelectRows(keep), active, normal.SelectRows(keep), nil, nil, opt, denom)
	if err != nil {
		return best, cnt, err
	}
	sub, err := domainSizeChecked(len(keep), opt.Hits)
	if err != nil {
		return best, cnt, err
	}
	cnt.Pruned += full - sub
	if best != reduce.None && best.StrictlyAbove(float64(normal.Samples())/denom) {
		// The compacted winner's F exceeds score(0, 0), which every
		// dropped-gene combination is capped at, so it wins the full
		// domain outright; remap its gene ids back.
		return remapCombo(best, keep), cnt, nil
	}
	// A dropped-gene combination could tie the compacted winner on F and
	// beat it lexicographically: rescan the full domain so the tie-break
	// is exact.
	best, rescan, err := findBest(ctx, tumor, active, normal, nil, nil, opt, denom)
	cnt.add(rescan)
	return best, cnt, err
}
