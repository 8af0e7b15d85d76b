package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/report"
)

// expFig5 reproduces the MemOpt rows of Fig. 5: the cumulative effect of
// MemOpt1 and MemOpt2 on the 3-hit algorithm's runtime. Unlike the
// cluster-model experiments, this one measures real wall-clock time of the
// Go kernels — the optimizations are genuine (hoisting row fetches,
// pre-folding the fixed rows), so their effect is directly observable on a
// CPU too. The figure's BitSplicing row is modelled by expIterations.
func expFig5(cfg config) (string, error) {
	// A BRCA-shaped cohort scaled to a CPU-enumerable gene universe: the
	// 3-hit kernel at G=400 evaluates C(400,3) ≈ 1.06e7 combinations per
	// iteration.
	g := 400
	if cfg.Quick {
		g = 150
	}
	spec := dataset.BRCA().Scaled(g)
	spec.Hits = 3
	cohort, err := dataset.Generate(spec, cfg.Seed)
	if err != nil {
		return "", err
	}

	type variant struct {
		name string
		opt  cover.Options
	}
	// NoPrune: the support pass would decide every pass without entering
	// the 3-hit kernel the MemOpt toggles change (docs/PRUNING.md §7).
	variants := []variant{
		{"no optimizations", cover.Options{Hits: 3, NoPrune: true}},
		{"+MemOpt1 (prefetch rows i)", cover.Options{Hits: 3, NoPrune: true, MemOpt1: true}},
		{"+MemOpt2 (prefetch+fold rows i,j)", cover.Options{Hits: 3, NoPrune: true, MemOpt1: true, MemOpt2: true}},
	}

	var b strings.Builder
	table := report.NewTable(fmt.Sprintf("Memory optimizations, 3-hit, G=%d, %d+%d samples (Fig. 5)",
		g, cohort.Nt(), cohort.Nn()),
		"variant", "runtime", "speedup", "combos found")
	reps := 3
	if cfg.Quick {
		reps = 1
	}
	var base time.Duration
	var baseResult []string
	for i, v := range variants {
		v.opt.MaxIterations = 8
		// Wall-clock noise swamps modest kernel differences, so take the
		// best of several repetitions.
		var best time.Duration
		var steps int
		for r := 0; r < reps; r++ {
			res, err := cover.Run(cohort.Tumor, cohort.Normal, v.opt)
			if err != nil {
				return "", err
			}
			if r == 0 || res.Elapsed < best {
				best = res.Elapsed
			}
			steps = len(res.Steps)
			if i == 0 && r == 0 {
				for _, s := range res.Steps {
					baseResult = append(baseResult, fmt.Sprint(s.Combo.GeneIDs()))
				}
			}
			// The optimizations must not change the discovered cover.
			for j, s := range res.Steps {
				if j < len(baseResult) && fmt.Sprint(s.Combo.GeneIDs()) != baseResult[j] {
					return "", fmt.Errorf("variant %q diverged at step %d", v.name, j)
				}
			}
		}
		if i == 0 {
			base = best
		}
		table.Addf(v.name, best.Round(time.Millisecond).String(),
			float64(base)/float64(best), steps)
	}
	b.WriteString(table.String())
	b.WriteString("\npaper: MemOpt1, MemOpt2 and BitSplicing together give a ~3x speedup\n" +
		"on a single GPU (splicing's share: -exp iterations); every variant\n" +
		"returns the identical combinations.\n")
	return b.String(), nil
}
