package cover

import (
	"testing"

	"repro/internal/combinat"
	"repro/internal/dataset"
	"repro/internal/reduce"
)

// pruneCohort generates a small seeded cohort from a registry spec — the
// differential tests run the real generator pipeline, not randomPair's
// uniform noise, so planted combinations give the bound something to prune
// against.
func pruneCohort(t *testing.T, spec dataset.Spec, genes int, seed int64) *dataset.Cohort {
	t.Helper()
	c, err := dataset.Generate(spec.Scaled(genes), seed)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPrunedFindBestMatchesExhaustive is the core differential guarantee:
// on seeded BRCA and LGG cohorts, the pruned FindBest returns the
// bit-identical winner as the NoPrune scan and as the exhaustive.go
// reference, for every scheme and several worker counts — and the pruned
// scan accounts for exactly the combinations the exhaustive scan scores.
func TestPrunedFindBestMatchesExhaustive(t *testing.T) {
	cohorts := []*dataset.Cohort{
		pruneCohort(t, dataset.BRCA(), 26, 7),
		pruneCohort(t, dataset.LGG(), 24, 11),
	}
	schemes := []struct {
		opt Options
	}{
		{Options{Hits: 2, Scheme: SchemePair}},
		{Options{Hits: 3, Scheme: Scheme2x1}},
		{Options{Hits: 3, Scheme: Scheme2x1, MemOpt1: true}},
		{Options{Hits: 3, Scheme: Scheme2x1, MemOpt1: true, MemOpt2: true}},
		{Options{Hits: 4, Scheme: Scheme2x2}},
		{Options{Hits: 4, Scheme: Scheme3x1}},
		{Options{Hits: 4, Scheme: Scheme1x3}},
		{Options{Hits: 4, Scheme: Scheme4x1}},
		{Options{Hits: 5, Scheme: Scheme4p1}},
	}
	for ci, c := range cohorts {
		for _, sc := range schemes {
			exact, err := ExhaustiveBest(c.Tumor, c.Normal, nil, sc.opt.Hits, DefaultAlpha)
			if err != nil {
				t.Fatal(err)
			}
			ref := sc.opt
			ref.Workers = 1
			ref.NoPrune = true
			unpruned, refCnt, err := FindBest(c.Tumor, c.Normal, nil, ref)
			if err != nil {
				t.Fatal(err)
			}
			if unpruned != exact {
				t.Fatalf("cohort %d %s: NoPrune %v != exhaustive %v",
					ci, sc.opt.Scheme, unpruned, exact)
			}
			if refCnt.Pruned != 0 {
				t.Fatalf("cohort %d %s: NoPrune scan pruned %d combinations",
					ci, sc.opt.Scheme, refCnt.Pruned)
			}
			for _, workers := range []int{1, 2, 7} {
				opt := sc.opt
				opt.Workers = workers
				pruned, cnt, err := FindBest(c.Tumor, c.Normal, nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				if pruned != exact {
					t.Fatalf("cohort %d %s workers=%d: pruned %v != exhaustive %v",
						ci, sc.opt.Scheme, workers, pruned, exact)
				}
				if cnt.Scanned() != refCnt.Evaluated {
					t.Fatalf("cohort %d %s workers=%d: scanned %d (evaluated %d + pruned %d), want %d",
						ci, sc.opt.Scheme, workers, cnt.Scanned(), cnt.Evaluated, cnt.Pruned, refCnt.Evaluated)
				}
				if opt.Scheme.prunable() && workers == 1 && cnt.Pruned == 0 {
					// Single-worker scans are deterministic; on these planted
					// cohorts the bound must actually fire or the layer is
					// dead code.
					t.Fatalf("cohort %d %s: pruning never fired", ci, sc.opt.Scheme)
				}
			}
		}
	}
}

// TestPrunedRunMatchesNoPrune asserts the greedy loop's full output —
// the discovered combinations, in order — is bit-identical with and
// without pruning, in both exclusion modes, including the gene-compaction
// path that BitSplice enables.
func TestPrunedRunMatchesNoPrune(t *testing.T) {
	cohorts := []*dataset.Cohort{
		pruneCohort(t, dataset.BRCA(), 22, 3),
		pruneCohort(t, dataset.LGG(), 20, 5),
	}
	for ci, c := range cohorts {
		for _, hits := range []int{2, 3, 4, 5} {
			for _, splice := range []bool{false, true} {
				ref, err := Run(c.Tumor, c.Normal, Options{
					Hits: hits, Workers: 3, BitSplice: splice, NoPrune: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := Run(c.Tumor, c.Normal, Options{
					Hits: hits, Workers: 3, BitSplice: splice,
				})
				if err != nil {
					t.Fatal(err)
				}
				wantCombos, gotCombos := ref.Combos(), got.Combos()
				if len(wantCombos) != len(gotCombos) {
					t.Fatalf("cohort %d hits=%d splice=%v: %d steps, want %d",
						ci, hits, splice, len(gotCombos), len(wantCombos))
				}
				for i := range wantCombos {
					if gotCombos[i] != wantCombos[i] {
						t.Fatalf("cohort %d hits=%d splice=%v step %d: %v != %v",
							ci, hits, splice, i, gotCombos[i], wantCombos[i])
					}
				}
				if got.Covered != ref.Covered || got.Uncoverable != ref.Uncoverable {
					t.Fatalf("cohort %d hits=%d splice=%v: totals differ", ci, hits, splice)
				}
				if ref.Pruned != 0 {
					t.Fatalf("cohort %d hits=%d splice=%v: NoPrune run pruned %d",
						ci, hits, splice, ref.Pruned)
				}
			}
		}
	}
}

// TestFindBestRangePrunedPartitioning checks the distributed unit of work:
// disjoint pruned ranges reduce to the full-domain winner, and their
// scanned counts tile the domain exactly (range-local incumbents prune
// less than a shared one, never differently).
func TestFindBestRangePrunedPartitioning(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 24, 13)
	opt := Options{Hits: 4, Scheme: Scheme3x1}
	want, cnt, err := FindBest(c.Tumor, c.Normal, nil, Options{Hits: 4, Scheme: Scheme3x1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// FindBestRange's [lo, hi) is over the λ thread domain — C(G, 3)
	// for Scheme3x1 — while Counts tallies scored combinations.
	lambda := combinat.MustBinomial(uint64(c.Tumor.Genes()), 3)
	domain := cnt.Scanned()
	for _, cuts := range []int{1, 3, 8} {
		best := reduce.None
		var total Counts
		size := lambda / uint64(cuts)
		for i := 0; i < cuts; i++ {
			lo := uint64(i) * size
			hi := lo + size
			if i == cuts-1 {
				hi = lambda
			}
			got, n, err := FindBestRange(c.Tumor, c.Normal, nil, opt, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			if got.Better(best) {
				best = got
			}
			total.Evaluated += n.Evaluated
			total.Pruned += n.Pruned
		}
		if best != want {
			t.Fatalf("cuts=%d: reduced winner %v != full-domain %v", cuts, best, want)
		}
		if total.Scanned() != domain {
			t.Fatalf("cuts=%d: ranges scanned %d combinations, domain has %d",
				cuts, total.Scanned(), domain)
		}
	}
}

// TestNoPruneRangeMatchesPruned pins FindBestRange's NoPrune escape hatch:
// same winner, full evaluation, zero pruned.
func TestNoPruneRangeMatchesPruned(t *testing.T) {
	c := pruneCohort(t, dataset.LGG(), 22, 17)
	opt := Options{Hits: 3, Scheme: Scheme2x1, MemOpt1: true, MemOpt2: true}
	want, cnt, err := FindBest(c.Tumor, c.Normal, nil, Options{
		Hits: 3, Scheme: Scheme2x1, MemOpt1: true, MemOpt2: true, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	off := opt
	off.NoPrune = true
	lambda := combinat.PairCount(uint64(c.Tumor.Genes()))
	got, n, err := FindBestRange(c.Tumor, c.Normal, nil, off, 0, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("NoPrune range winner %v != pruned %v", got, want)
	}
	if n.Pruned != 0 || n.Evaluated != cnt.Scanned() {
		t.Fatalf("NoPrune range counts %+v, want %d evaluated / 0 pruned", n, cnt.Scanned())
	}
}

// TestCompactionDropsGenes drives the splice loop until compaction has
// something to drop, then asserts the remapped winners still carry
// original gene ids (monotone, in range) and the conservation invariant
// holds per step.
func TestCompactionDropsGenes(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 18, 29)
	res, err := Run(c.Tumor, c.Normal, Options{Hits: 3, Workers: 2, BitSplice: true})
	if err != nil {
		t.Fatal(err)
	}
	g := c.Tumor.Genes()
	for i, s := range res.Steps {
		ids := s.Combo.GeneIDs()
		for j, id := range ids {
			if id < 0 || id >= g {
				t.Fatalf("step %d: gene id %d out of range %d", i, id, g)
			}
			if j > 0 && ids[j-1] >= id {
				t.Fatalf("step %d: gene ids not strictly increasing: %v", i, ids)
			}
		}
	}
	ref, err := Run(c.Tumor, c.Normal, Options{Hits: 3, Workers: 2, BitSplice: true, NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Steps {
		if res.Steps[i].Combo != ref.Steps[i].Combo {
			t.Fatalf("step %d: compacted %v != NoPrune %v", i, res.Steps[i].Combo, ref.Steps[i].Combo)
		}
	}
}
