package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/bitmat"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/reduce"
	"repro/internal/report"
)

// The Fig. 5 memory optimizations, reproduced as three full-pass 3-hit
// loops over the bit-matrix rows: every (i, j, k) is scored against the
// active tumor samples with no pruning, and only where the rows are read
// differs. The engine runs none of them: its 3-hit scan reads the rows on
// every k and spends most passes in the support pass (docs/PRUNING.md §7).

// fig5Scorer computes F exactly as the engine does, so each variant's
// winner can be compared with cover.FindBest bit for bit.
type fig5Scorer struct {
	nn    int
	denom float64
}

func newFig5Scorer(tumor, normal *bitmat.Matrix) fig5Scorer {
	return fig5Scorer{nn: normal.Samples(), denom: float64(tumor.Samples() + normal.Samples())}
}

func (s fig5Scorer) score(tp, normalHits int) float64 {
	return (cover.DefaultAlpha*float64(tp) + float64(s.nn-normalHits)) / s.denom
}

// fig5Unhoisted reads the rows of genes i, j and k on every k.
func fig5Unhoisted(tm, nm *bitmat.Matrix, active []uint64, sc fig5Scorer) reduce.Combo {
	best := reduce.None
	g := tm.Genes()
	for i := 0; i < g; i++ {
		for j := i + 1; j < g; j++ {
			for k := j + 1; k < g; k++ {
				tp := bitmat.PopAnd4(active, tm.Row(i), tm.Row(j), tm.Row(k))
				nh := bitmat.PopAnd3(nm.Row(i), nm.Row(j), nm.Row(k))
				if c := reduce.NewCombo3(sc.score(tp, nh), i, j, k); c.Better(best) {
					best = c
				}
			}
		}
	}
	return best
}

// fig5HoistI reads the rows of gene i once per i (MemOpt1).
func fig5HoistI(tm, nm *bitmat.Matrix, active []uint64, sc fig5Scorer) reduce.Combo {
	best := reduce.None
	g := tm.Genes()
	for i := 0; i < g; i++ {
		ti, ni := tm.Row(i), nm.Row(i)
		for j := i + 1; j < g; j++ {
			for k := j + 1; k < g; k++ {
				tp := bitmat.PopAnd4(active, ti, tm.Row(j), tm.Row(k))
				nh := bitmat.PopAnd3(ni, nm.Row(j), nm.Row(k))
				if c := reduce.NewCombo3(sc.score(tp, nh), i, j, k); c.Better(best) {
					best = c
				}
			}
		}
	}
	return best
}

// fig5PreFold folds active ∧ i ∧ j and i ∧ j once per (i, j), so the k
// loop ANDs two rows instead of four and three (MemOpt1 + MemOpt2).
func fig5PreFold(tm, nm *bitmat.Matrix, active []uint64, sc fig5Scorer) reduce.Combo {
	best := reduce.None
	g := tm.Genes()
	tij, nij := make([]uint64, tm.Words()), make([]uint64, nm.Words())
	for i := 0; i < g; i++ {
		for j := i + 1; j < g; j++ {
			bitmat.AndWords(tij, active, tm.Row(i))
			bitmat.AndWords(tij, tij, tm.Row(j))
			bitmat.AndWords(nij, nm.Row(i), nm.Row(j))
			for k := j + 1; k < g; k++ {
				tp := bitmat.PopAnd2(tij, tm.Row(k))
				nh := bitmat.PopAnd2(nij, nm.Row(k))
				if c := reduce.NewCombo3(sc.score(tp, nh), i, j, k); c.Better(best) {
					best = c
				}
			}
		}
	}
	return best
}

// fig5Variant is one row of the ablation.
type fig5Variant struct {
	name string
	pass func(tm, nm *bitmat.Matrix, active []uint64, sc fig5Scorer) reduce.Combo
}

var fig5Variants = []fig5Variant{
	{"no optimizations", fig5Unhoisted},
	{"+MemOpt1 (prefetch rows i)", fig5HoistI},
	{"+MemOpt2 (prefetch+fold rows i,j)", fig5PreFold},
}

// fig5Check runs every variant once on the cohort and returns an error
// unless each winner equals the engine's NoPrune FindBest winner, gene ids
// and F bits.
func fig5Check(tumor, normal *bitmat.Matrix) error {
	want, _, err := cover.FindBest(tumor, normal, nil, cover.Options{Hits: 3, NoPrune: true})
	if err != nil {
		return err
	}
	active := bitmat.AllOnes(tumor.Samples()).Words()
	sc := newFig5Scorer(tumor, normal)
	for _, v := range fig5Variants {
		got := v.pass(tumor, normal, active, sc)
		if got.Genes != want.Genes || math.Float64bits(got.F) != math.Float64bits(want.F) {
			return fmt.Errorf("variant %q found %v, FindBest %v", v.name, got, want)
		}
	}
	return nil
}

// expFig5 reproduces the MemOpt rows of Fig. 5: the cumulative effect of
// MemOpt1 and MemOpt2 on a 3-hit pass. Unlike the cluster-model
// experiments, it measures real wall-clock time, one goroutine per pass.
// The figure's BitSplicing row is modelled by expIterations.
func expFig5(cfg config) (string, error) {
	// A BRCA-shaped cohort scaled to a CPU-enumerable gene universe: a
	// 3-hit pass at G=400 scores C(400,3) ≈ 1.06e7 combinations.
	g, reps := 400, 7
	if cfg.Quick {
		g, reps = 150, 3
	}
	spec := dataset.BRCA().Scaled(g)
	spec.Hits = 3
	cohort, err := dataset.Generate(spec, cfg.Seed)
	if err != nil {
		return "", err
	}
	if err := fig5Check(cohort.Tumor, cohort.Normal); err != nil {
		return "", err
	}

	active := bitmat.AllOnes(cohort.Tumor.Samples()).Words()
	sc := newFig5Scorer(cohort.Tumor, cohort.Normal)
	times := make([][]time.Duration, len(fig5Variants))
	// Round-robin over the variants, so drift in the machine's speed
	// spreads over all of them alike.
	for r := 0; r < reps; r++ {
		for i, v := range fig5Variants {
			start := time.Now()
			v.pass(cohort.Tumor, cohort.Normal, active, sc)
			times[i] = append(times[i], time.Since(start))
		}
	}

	table := report.NewTable(fmt.Sprintf("Memory optimizations, one 3-hit pass, G=%d, %d+%d samples, %d runs (Fig. 5)",
		g, cohort.Nt(), cohort.Nn(), reps),
		"variant", "median", "min-max", "speedup")
	var base time.Duration
	for i, v := range fig5Variants {
		ts := times[i]
		sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
		med := ts[len(ts)/2]
		if i == 0 {
			base = med
		}
		table.Addf(v.name, med.Round(time.Millisecond).String(),
			ts[0].Round(time.Millisecond).String()+"-"+ts[len(ts)-1].Round(time.Millisecond).String(),
			float64(base)/float64(med))
	}
	var b strings.Builder
	b.WriteString(table.String())
	b.WriteString("\npaper: MemOpt1, MemOpt2 and BitSplicing together give a ~3x speedup\n" +
		"on a single GPU (splicing's share: -exp iterations); every variant\n" +
		"returns cover.FindBest's NoPrune winner.\n")
	return b.String(), nil
}
