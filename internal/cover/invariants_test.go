package cover

import (
	"math/rand"
	"testing"

	"repro/internal/combinat"
)

// TestRunInvariantsOverRandomInputs hammers Run with random cohorts and
// configurations, asserting the structural invariants every correct
// execution must satisfy regardless of data.
func TestRunInvariantsOverRandomInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		genes := 6 + rng.Intn(10)
		nt := 5 + rng.Intn(60)
		nn := 5 + rng.Intn(60)
		density := 0.1 + rng.Float64()*0.6
		tumor, normal := randomPair(rng.Int63(), genes, nt, nn, density)

		hits := 2 + rng.Intn(3)
		if trial >= 30 {
			hits = MaxHits // the last trials run the 5-hit scheme
		}
		opt := Options{
			Hits:      hits,
			Workers:   1 + rng.Intn(8),
			BlockSize: 1 + rng.Intn(600),
		}
		// The sample-axis mode: mask, splice or kernelize.
		switch rng.Intn(3) {
		case 1:
			opt.BitSplice = true
		case 2:
			opt.Kernelize = true
		}
		if rng.Intn(2) == 1 {
			opt.Scheduler = EquiDistance
		}
		res, err := Run(tumor, normal, opt)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Conservation: covered + uncoverable = Nt.
		if res.Covered+res.Uncoverable != nt {
			t.Fatalf("trial %d: covered %d + uncoverable %d != %d",
				trial, res.Covered, res.Uncoverable, nt)
		}
		// Every step covers at least one new sample; active counts
		// strictly decrease; F values are valid and non-increasing is NOT
		// guaranteed (exclusion changes TP), but they stay in [0, 1].
		prevActive := nt
		for i, s := range res.Steps {
			if s.NewlyCovered <= 0 {
				t.Fatalf("trial %d step %d: non-positive cover", trial, i)
			}
			if s.ActiveAfter != prevActive-s.NewlyCovered {
				t.Fatalf("trial %d step %d: active bookkeeping broken", trial, i)
			}
			prevActive = s.ActiveAfter
			if s.Combo.F < 0 || s.Combo.F > 1 {
				t.Fatalf("trial %d step %d: F = %g out of range", trial, i, s.Combo.F)
			}
			ids := s.Combo.GeneIDs()
			if len(ids) != hits {
				t.Fatalf("trial %d step %d: %d genes, want %d", trial, i, len(ids), hits)
			}
			for j := 1; j < len(ids); j++ {
				if ids[j] <= ids[j-1] {
					t.Fatalf("trial %d step %d: genes not sorted", trial, i)
				}
			}
		}
		// Scanned (evaluated + pruned) is a whole number of full
		// enumeration passes: pruning moves combinations between the two
		// tallies but never loses one (gene compaction and the kernel
		// count whole eliminated subspaces as pruned, keeping a reduced
		// pass at exactly C(G,h) scanned).
		per := combinat.MustBinomial(uint64(genes), uint64(hits))
		scanned := res.Evaluated + res.Pruned
		if scanned%per != 0 {
			t.Fatalf("trial %d: scanned %d (evaluated %d + pruned %d) not a multiple of C(%d,%d)=%d",
				trial, scanned, res.Evaluated, res.Pruned, genes, hits, per)
		}
		// Each step is one pass, plus up to one terminal probe pass, plus
		// at most one full-domain rescan per compacted step (the tie-break
		// fallback when the winner's F does not exceed score(0, 0)).
		passes := scanned / per
		if passes < uint64(len(res.Steps)) || passes > 2*uint64(len(res.Steps))+2 {
			t.Fatalf("trial %d: %d passes for %d steps", trial, passes, len(res.Steps))
		}
	}
}

// TestFindBestDeterministicAcrossConfigs cross-checks that every scheduler,
// scheme, worker count and block size yields one identical winner on the
// same random input — the determinism contract stated in the package doc.
func TestFindBestDeterministicAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		tumor, normal := randomPair(rng.Int63(), 12+rng.Intn(6), 30, 25, 0.4)
		var configs []Options
		for _, scheme := range []Scheme{Scheme2x2, Scheme3x1, Scheme1x3, Scheme4x1} {
			for _, sch := range []Scheduler{EquiArea, EquiDistance} {
				configs = append(configs, Options{
					Hits: 4, Scheme: scheme, Scheduler: sch,
					Workers: 1 + rng.Intn(10), BlockSize: 1 + rng.Intn(300),
				})
			}
		}
		var want string
		for i, opt := range configs {
			got, _, err := FindBest(tumor, normal, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			key := got.String()
			if i == 0 {
				want = key
			} else if key != want {
				t.Fatalf("trial %d config %d (%s/%s): %s != %s",
					trial, i, opt.Scheme, opt.Scheduler, key, want)
			}
		}
	}
}
