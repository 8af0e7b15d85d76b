package cover

// This file is the engine surface the supervised runner
// (internal/harness) scans through: a deterministic partition plan for one
// enumeration pass, a seed incumbent, a single-partition scan that can be
// retried in isolation, and the checkpoint replay Greedy starts a continued
// leg from. docs/ROBUSTNESS.md describes the layer end to end.

import (
	"context"
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Normalized resolves the zero values of an Options (scheme from hits,
// default alpha/workers/block size) and validates it — the same
// resolution Run applies. The supervised runner normalizes once so the
// options it records in checkpoints and results are the resolved ones.
func (o Options) Normalized() (Options, error) {
	return o.withDefaults()
}

// SchemeCurve builds the λ-domain work curve of one enumeration pass of
// the scheme over genes genes. PartitionPlan builds every plan from it, so
// the supervised runner scans exactly the domain the in-process engine
// would; the cluster model and the service's admission pricing use it too.
func SchemeCurve(genes uint64, s Scheme) (sched.Curve, error) {
	if genes < uint64(s.hits()) {
		return nil, fmt.Errorf("cover: %d genes cannot form %d-hit combinations", genes, s.hits())
	}
	switch s {
	case SchemePair:
		return sched.NewFlat(combinat.PairCount(genes)), nil
	case Scheme2x1:
		return sched.NewTri2x1(genes), nil
	case Scheme2x2:
		return sched.NewTri2x2(genes), nil
	case Scheme3x1:
		return sched.NewTetra3x1(genes), nil
	case Scheme1x3:
		return sched.NewLin1x3(genes), nil
	case Scheme4x1:
		return sched.NewFlat(combinat.QuadCount(genes)), nil
	case Scheme4p1:
		return sched.NewQuad4x1(genes), nil
	}
	// Scheme arrives from CLI flags and config files; an unknown value
	// is untrusted input, not a programmer error.
	return nil, fmt.Errorf("cover: unresolved scheme %v", s)
}

// PartitionsPerWorker oversubscribes each pass's partition plan: with more
// partitions than workers, cancellation, retry and quarantine granularity
// is a quarter of a worker's share.
const PartitionsPerWorker = 4

// PartitionPlan cuts one enumeration pass over a genes-wide matrix into
// chunks λ-ranges using the configured scheduler. The plan depends only
// on (genes, scheme, scheduler, chunks) — it is identical across
// processes and across resumed legs, which is what lets a supervisor
// retry or quarantine individual ranges and still reproduce an
// uninterrupted run exactly.
func PartitionPlan(genes int, opt Options, chunks int) ([]sched.Partition, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if genes < opt.Hits {
		return nil, fmt.Errorf("cover: %d genes cannot form %d-hit combinations", genes, opt.Hits)
	}
	if chunks < 1 {
		return nil, fmt.Errorf("cover: partition plan needs at least 1 chunk, got %d", chunks)
	}
	curve, err := SchemeCurve(uint64(genes), opt.Scheme)
	if err != nil {
		return nil, err
	}
	if opt.Scheduler == EquiDistance {
		return sched.EquiDistance(curve, chunks)
	}
	return sched.EquiArea(curve, chunks)
}

// ScanPartition scores one λ-partition of one enumeration pass and
// returns the partition's best combination and exact work counts. denom
// pins the F denominator (pass the ORIGINAL cohort size so scores stay
// comparable when a Kernelize kernel has merged duplicate sample columns;
// pass tumor.Samples()+normal.Samples() otherwise).
//
// The scan prunes against a partition-local incumbent that starts at
// seed: pass the pass's SeedIncumbent, or reduce.None for no head start.
// The seed never changes which combination wins, only the Evaluated/Pruned
// split, and the scan is a pure function of (matrices, options, partition,
// seed) — which makes its counts deterministic and makes the partition
// safely retryable after a mid-scan crash.
func ScanPartition(tumor, normal *bitmat.Matrix, active *bitmat.Vec, opt Options, part sched.Partition, denom float64, seed reduce.Combo) (reduce.Combo, Counts, error) {
	return ScanPartitionWeighted(tumor, normal, active, nil, nil, opt, part, denom, seed)
}

// ScanPartitionWeighted is ScanPartition over a kernelized instance: tw/nw
// carry the merged sample columns' multiplicities (nil means unweighted)
// and every popcount the kernels take is weighted accordingly, so the
// scores — and therefore the winner and the counts — equal the
// unkernelized scan's exactly. The supervised runner scans every pass
// through this form, passing the Pass's weights.
func ScanPartitionWeighted(tumor, normal *bitmat.Matrix, active *bitmat.Vec, tw, nw *bitmat.Weights, opt Options, part sched.Partition, denom float64, seed reduce.Combo) (reduce.Combo, Counts, error) {
	opt, err := checkPass(tumor, normal, opt, denom)
	if err != nil {
		return reduce.None, Counts{}, err
	}
	if part.Hi < part.Lo {
		return reduce.None, Counts{}, fmt.Errorf("cover: inverted range [%d, %d)", part.Lo, part.Hi)
	}
	if active == nil {
		active = bitmat.AllOnes(tumor.Samples())
	}
	if part.Size() == 0 {
		return reduce.None, Counts{}, nil
	}
	env := newKernelEnv(tumor, normal, active, tw, nw, opt.Alpha, denom)
	env.shared = incumbent(opt, seed)
	s := newKernelScratch(tumor.Words(), normal.Words())
	if resolveEngine(&opt, tumor, normal) == EngineSparse {
		// The CSR rebuild is per call here; Greedy resolves the engine
		// once per run, so an Auto job does not flip engines between
		// partitions of one pass.
		env.sparse = newSparseEnv(tumor, normal, active, tw, nw)
		s.ensureSparse(env.sparse)
	}
	best, n := runKernel(context.Background(), env, opt, part, s)
	return best, n, nil
}

// SeedIncumbent computes one enumeration pass's seed incumbent: the best
// h-combination among the pass's top genes (docs/PRUNING.md §3), scored
// exactly as the kernels score it. Pass it to every ScanPartition of the
// pass. The arguments are those of ScanPartitionWeighted (nil weights
// mean unweighted). It returns reduce.None when NoPrune is set, when the
// scheme has no inner loop to prune, and when the gene axis is too small
// for the probe to pay off.
func SeedIncumbent(tumor, normal *bitmat.Matrix, active *bitmat.Vec, tw, nw *bitmat.Weights, opt Options, denom float64) (reduce.Combo, error) {
	opt, err := checkPass(tumor, normal, opt, denom)
	if err != nil {
		return reduce.None, err
	}
	if active == nil {
		active = bitmat.AllOnes(tumor.Samples())
	}
	return seedIncumbent(newKernelEnv(tumor, normal, active, tw, nw, opt.Alpha, denom), opt), nil
}

// checkPass resolves the options of a single-pass entry point and
// validates the matrices and denominator it will score with.
func checkPass(tumor, normal *bitmat.Matrix, opt Options, denom float64) (Options, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return opt, err
	}
	if tumor.Genes() != normal.Genes() {
		return opt, fmt.Errorf("cover: tumor has %d genes, normal has %d",
			tumor.Genes(), normal.Genes())
	}
	if denom <= 0 {
		return opt, fmt.Errorf("cover: denominator must be positive, got %g", denom)
	}
	return opt, nil
}

// replay rebuilds an interrupted run's state from a checkpoint: every
// recorded combination is re-applied to a fresh active mask (and
// re-verified against its recorded cover count) in O(steps) matrix
// operations, with no enumeration. It returns the partial Result and the
// active mask, over the original samples, the next greedy iteration
// should scan under.
func replay(tumor, normal *bitmat.Matrix, opt Options, cp *Checkpoint) (*Result, *bitmat.Vec, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if cp.Hits != opt.Hits {
		return nil, nil, fmt.Errorf("cover: checkpoint is a %d-hit run, options say %d", cp.Hits, opt.Hits)
	}
	if cp.Alpha != opt.Alpha {
		return nil, nil, fmt.Errorf("cover: checkpoint used α=%g, options say %g", cp.Alpha, opt.Alpha)
	}
	if cp.Kernelize != opt.Kernelize {
		// The replayed steps are engine-independent (original gene ids,
		// original sample counts), but resume promises a continuation
		// bit-identical to the uninterrupted run — which pins the engine
		// mode, like Hits and Alpha. Reject the mismatch instead of
		// silently switching reduction regimes mid-run.
		return nil, nil, fmt.Errorf("cover: checkpoint kernelize=%v, options say %v",
			cp.Kernelize, opt.Kernelize)
	}
	if cp.TumorFingerprint != tumor.Fingerprint() || cp.NormalFingerprint != normal.Fingerprint() {
		return nil, nil, fmt.Errorf("cover: checkpoint fingerprint (tumor %016x, normal %016x) does not match these matrices: %w",
			cp.TumorFingerprint, cp.NormalFingerprint, ErrFingerprintMismatch)
	}
	if len(cp.Combos) != len(cp.NewlyCovered) {
		return nil, nil, fmt.Errorf("cover: checkpoint has %d combos but %d cover counts",
			len(cp.Combos), len(cp.NewlyCovered))
	}
	if len(cp.Scores) != 0 && len(cp.Scores) != len(cp.Combos) {
		return nil, nil, fmt.Errorf("cover: checkpoint has %d combos but %d scores",
			len(cp.Combos), len(cp.Scores))
	}

	res := &Result{Options: opt, Evaluated: cp.Evaluated, Pruned: cp.Pruned}
	active := bitmat.AllOnes(tumor.Samples())
	buf := make([]uint64, tumor.Words())
	for i, ids := range cp.Combos {
		if len(ids) != opt.Hits {
			return nil, nil, fmt.Errorf("cover: checkpoint combo %d has %d genes, want %d",
				i, len(ids), opt.Hits)
		}
		for _, g := range ids {
			if g < 0 || g >= tumor.Genes() {
				return nil, nil, fmt.Errorf("cover: checkpoint combo %d references gene %d of %d",
					i, g, tumor.Genes())
			}
		}
		tumor.ComboVec(buf, ids...)
		cov := bitmat.NewVec(tumor.Samples())
		copy(cov.Words(), buf)
		cov.And(active)
		newly := cov.PopCount()
		if newly != cp.NewlyCovered[i] {
			return nil, nil, fmt.Errorf("cover: checkpoint combo %d covers %d samples on replay, recorded %d",
				i, newly, cp.NewlyCovered[i])
		}
		active.AndNot(cov)
		res.Covered += newly
		combo := replayCombo(ids)
		if len(cp.Scores) > 0 {
			combo.F = cp.Scores[i]
		}
		res.Steps = append(res.Steps, Step{
			Combo:        combo,
			NewlyCovered: newly,
			ActiveAfter:  active.PopCount(),
		})
	}
	return res, active, nil
}
