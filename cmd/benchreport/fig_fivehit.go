package main

import (
	"fmt"
	"strings"

	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/report"
)

// expFiveHit executes the paper's next step on the hit-count axis: 5-hit
// discovery (Sec. V notes each additional hit multiplies the search space
// — "an additional speedup of ~4×10⁵" at mutation scale). The functional
// run uses a planted 5-hit cohort at reduced G; the arithmetic table shows
// the growth the paper's outlook is about.
func expFiveHit(cfg config) (string, error) {
	var b strings.Builder
	g := 22
	if cfg.Quick {
		g = 16
	}
	spec := dataset.Spec{
		Code: "FIVE", Name: "five-hit demo", Genes: g,
		TumorSamples: 120, NormalSamples: 100,
		Hits: 5, PlantedCombos: 2, DriverMutProb: 0.92,
		TumorBackground: 0.01, NormalBackground: 0.002,
	}
	cohort, err := dataset.Generate(spec, cfg.Seed)
	if err != nil {
		return "", err
	}
	res, err := cover.Run(cohort.Tumor, cohort.Normal, cover.Options{Hits: 5, MaxIterations: 5})
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "5-hit discovery, G=%d, %d tumor / %d normal samples: %d combinations in %s\n",
		g, cohort.Nt(), cohort.Nn(), len(res.Steps), res.Elapsed.Round(1e6))
	for i, s := range res.Steps {
		var syms []string
		for _, id := range s.Combo.GeneIDs() {
			syms = append(syms, cohort.GeneSymbols[id])
		}
		fmt.Fprintf(&b, "  %d. %s (F=%.4f, covers %d)\n",
			i+1, strings.Join(syms, "+"), s.Combo.F, s.NewlyCovered)
	}
	fmt.Fprintf(&b, "covered %d of %d tumor samples; %d combinations scored\n\n",
		res.Covered, cohort.Nt(), res.Evaluated)

	table := report.NewTable("Search-space growth per additional hit (G = 19411)",
		"hits", "C(G,h)", "x previous")
	prev := 0.0
	c := 1.0
	for h := 1; h <= 6; h++ {
		c = c * float64(19411-h+1) / float64(h)
		row := fmt.Sprintf("%.3g", c)
		ratio := "-"
		if prev > 0 {
			ratio = fmt.Sprintf("%.0fx", c/prev)
		}
		table.Add(fmt.Sprint(h), row, ratio)
		prev = c
	}
	b.WriteString(table.String())
	b.WriteString("\npaper (Sec. V): each additional hit costs another factor of ~(G−h)/h;\n" +
		"at mutation scale (~4e5 sites) the 4→5-hit step needs ~8e4x more compute.\n")
	return b.String(), nil
}
