// Package core is the public façade of the multi-hit reproduction: it ties
// the substrates together into the paper's three end-to-end pipelines.
//
//   - Discover runs the weighted-set-cover engine on a cohort and returns
//     the multi-hit combinations with gene symbols attached.
//   - TrainTest splits a cohort 75/25, discovers combinations on the
//     training split and evaluates them as a tumor/normal classifier on the
//     test split (Sec. IV-F).
//   - PanelStudy repeats TrainTest across a panel of cancer types and
//     aggregates sensitivity/specificity — the Fig. 9 experiment.
//
// Scaling and profiling studies live in internal/cluster; this package
// re-exports nothing from them.
package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// Combo is one discovered combination with human-readable gene symbols.
type Combo struct {
	// GeneIDs are the matrix row indices, sorted ascending.
	GeneIDs []int
	// Symbols are the corresponding gene symbols.
	Symbols []string
	// F is the weighted-set-cover score at selection time.
	F float64
	// NewlyCovered is the number of tumor samples this combination covered
	// when chosen.
	NewlyCovered int
}

// String renders the combination as "SYM1+SYM2+SYM3 (F=0.93, covers 41)".
func (c Combo) String() string {
	return fmt.Sprintf("%s (F=%.4f, covers %d)",
		strings.Join(c.Symbols, "+"), c.F, c.NewlyCovered)
}

// Result is one cohort's discovery outcome.
type Result struct {
	// Cancer is the cohort's study code.
	Cancer string
	// Combos are the discovered combinations in greedy order.
	Combos []Combo
	// Covered and Uncoverable partition the tumor samples.
	Covered     int
	Uncoverable int
	// Evaluated is the number of combinations scored across iterations.
	Evaluated uint64
	// Engine is the resolved scan engine ("dense" or "sparse") —
	// provenance only; both engines return bit-identical combinations.
	Engine string
	// Elapsed is the discovery wall-clock time.
	Elapsed time.Duration
}

// Discover runs multi-hit discovery on a cohort.
func Discover(c *dataset.Cohort, opt cover.Options) (*Result, error) {
	res, err := cover.Run(c.Tumor, c.Normal, opt)
	if err != nil {
		return nil, fmt.Errorf("core: discovery on %s: %w", c.Spec.Code, err)
	}
	return FromCover(c, res), nil
}

// FromCover converts an engine result on cohort c into a Result, attaching
// the cohort's gene symbols to every combination.
func FromCover(c *dataset.Cohort, res *cover.Result) *Result {
	out := &Result{
		Cancer:      c.Spec.Code,
		Covered:     res.Covered,
		Uncoverable: res.Uncoverable,
		Evaluated:   res.Evaluated,
		Engine:      res.Options.Engine.String(),
		Elapsed:     res.Elapsed,
	}
	for _, step := range res.Steps {
		ids := step.Combo.GeneIDs()
		combo := Combo{GeneIDs: ids, F: step.Combo.F, NewlyCovered: step.NewlyCovered}
		for _, id := range ids {
			combo.Symbols = append(combo.Symbols, c.GeneSymbols[id])
		}
		out.Combos = append(out.Combos, combo)
	}
	return out
}

// TrainTestResult is a trained classifier with its held-out evaluation.
type TrainTestResult struct {
	// Cancer is the cohort's study code.
	Cancer string
	// Training is the discovery outcome on the training split.
	Training *Result
	// Eval is the test-split classifier performance.
	Eval classify.Evaluation
	// TrainTumor, TestTumor, TrainNormal, TestNormal record split sizes.
	TrainTumor, TestTumor   int
	TrainNormal, TestNormal int
}

// TrainTest splits the cohort (trainFrac to training), discovers
// combinations on the training split, and evaluates the resulting
// classifier on the test split.
func TrainTest(c *dataset.Cohort, trainFrac float64, splitSeed int64, opt cover.Options) (*TrainTestResult, error) {
	train, test := c.Split(trainFrac, splitSeed)
	if test.Nt() == 0 || test.Nn() == 0 {
		return nil, fmt.Errorf("core: split left an empty test class for %s", c.Spec.Code)
	}
	disc, err := Discover(train, opt)
	if err != nil {
		return nil, err
	}
	if len(disc.Combos) == 0 {
		return nil, fmt.Errorf("core: no combinations discovered for %s", c.Spec.Code)
	}
	var ids [][]int
	for _, combo := range disc.Combos {
		ids = append(ids, combo.GeneIDs)
	}
	cls := classify.FromGeneIDs(ids)
	ev, err := cls.Evaluate(test.Tumor, test.Normal)
	if err != nil {
		return nil, err
	}
	return &TrainTestResult{
		Cancer:      c.Spec.Code,
		Training:    disc,
		Eval:        ev,
		TrainTumor:  train.Nt(),
		TestTumor:   test.Nt(),
		TrainNormal: train.Nn(),
		TestNormal:  test.Nn(),
	}, nil
}

// PanelResult aggregates a multi-cancer study.
type PanelResult struct {
	// PerCancer holds each cancer type's outcome in input order.
	PerCancer []*TrainTestResult
	// MeanSensitivity and MeanSpecificity average the per-cancer points.
	MeanSensitivity float64
	MeanSpecificity float64
	// TotalCombos is the number of combinations discovered across types.
	TotalCombos int
}

// PanelStudy runs TrainTest for every spec, scaling each gene universe to
// genesScale (the full 19 411-gene universe is not enumerable at h = 4 on a
// CPU; the paper needed 6 000 GPUs for that — see DESIGN.md). Seeds are
// derived per cancer type for reproducibility.
func PanelStudy(specs []dataset.Spec, genesScale int, seed int64, opt cover.Options) (*PanelResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: empty cancer panel")
	}
	out := &PanelResult{}
	var sens, spec []float64
	for i, s := range specs {
		scaled := s
		if genesScale > 0 {
			scaled = s.Scaled(genesScale)
		}
		cohort, err := dataset.Generate(scaled, seed+int64(i)*1000)
		if err != nil {
			return nil, err
		}
		tt, err := TrainTest(cohort, 0.75, seed+int64(i)*1000+1, opt)
		if err != nil {
			return nil, err
		}
		out.PerCancer = append(out.PerCancer, tt)
		out.TotalCombos += len(tt.Training.Combos)
		sens = append(sens, tt.Eval.Sensitivity.Point)
		spec = append(spec, tt.Eval.Specificity.Point)
	}
	out.MeanSensitivity = stats.Mean(sens)
	out.MeanSpecificity = stats.Mean(spec)
	return out, nil
}
