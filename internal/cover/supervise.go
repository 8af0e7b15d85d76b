package cover

// This file is the engine surface the supervised runner
// (internal/harness) and the simulated cluster (internal/cluster) plan
// their scans with: the λ-domain curve and the deterministic partition
// plan of one enumeration pass, which they hand to ScanPass, and the
// checkpoint replay Greedy starts a continued leg from. docs/ROBUSTNESS.md
// describes the layer end to end.

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/sched"
)

// Normalized resolves the zero values of an Options (default alpha and
// workers) and validates it — the same
// resolution Run applies. The supervised runner normalizes once so the
// options it records in checkpoints and results are the resolved ones.
func (o Options) Normalized() (Options, error) {
	return o.withDefaults()
}

// SchemeCurve builds the λ-domain work curve of one enumeration pass of
// the scheme over genes genes. PartitionPlan builds every plan from the
// engine's scheme, SchemeFor(hits), so the supervised runner scans exactly
// the domain the in-process engine would; the cluster model prices every
// scheme with it, and the service's admission pricing the engine's.
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
// on (genes, hits, scheduler, chunks) — it is identical across
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
	curve, err := SchemeCurve(uint64(genes), SchemeFor(opt.Hits))
	if err != nil {
		return nil, err
	}
	if opt.Scheduler == EquiDistance {
		return sched.EquiDistance(curve, chunks)
	}
	return sched.EquiArea(curve, chunks)
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
