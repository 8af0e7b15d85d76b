// BRCA 4-hit discovery: the paper's principal workload at CPU-enumerable
// scale, exercising both 4-hit parallelization schemes (2x2 and 3x1) and
// the two schedulers — and verifying they all find the identical cover.
//
//	go run ./examples/brca4hit
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cover"
	"repro/internal/dataset"
)

func main() {
	// BRCA's cohort shape (911 tumor / 852 normal samples) with the gene
	// universe scaled from the paper's 19 411 to a CPU-enumerable 70
	// (C(70, 4) = 916,895 combinations per iteration; the full universe is
	// what needed 6000 V100s).
	spec := dataset.BRCA().Scaled(70)
	cohort, err := dataset.Generate(spec, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BRCA-shaped cohort: G=%d, %d tumor / %d normal samples\n\n",
		spec.Genes, cohort.Nt(), cohort.Nn())

	type run struct {
		label string
		opt   cover.Options
	}
	runs := []run{
		{"3x1 scheme, equi-area", cover.Options{Hits: 4, Scheme: cover.Scheme3x1, MaxIterations: 15}},
		{"3x1 scheme, equi-distance", cover.Options{Hits: 4, Scheme: cover.Scheme3x1,
			Scheduler: cover.EquiDistance, MaxIterations: 15}},
		{"2x2 scheme, equi-area", cover.Options{Hits: 4, Scheme: cover.Scheme2x2, MaxIterations: 15}},
	}

	var reference []string
	for i, r := range runs {
		start := time.Now()
		res, err := cover.Run(cohort.Tumor, cohort.Normal, r.opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %2d combos, covered %3d, %8s\n",
			r.label, len(res.Steps), res.Covered, time.Since(start).Round(time.Millisecond))

		// Every configuration must discover the identical cover.
		var combos []string
		for _, s := range res.Steps {
			combos = append(combos, fmt.Sprint(s.Combo.GeneIDs()))
		}
		if i == 0 {
			reference = combos
			continue
		}
		if len(combos) != len(reference) {
			log.Fatalf("%s found %d combos, reference %d", r.label, len(combos), len(reference))
		}
		for j := range combos {
			if combos[j] != reference[j] {
				log.Fatalf("%s diverged at combo %d", r.label, j)
			}
		}
	}
	fmt.Println("\nall configurations discovered the identical greedy cover ✓")
}
