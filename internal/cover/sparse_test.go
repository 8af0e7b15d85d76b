package cover

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/dataset"
	"repro/internal/sched"
)

// TestSparseFindBestMatchesDense is the engine-differential core: on
// seeded BRCA/LGG/ACC cohorts, for both sparse kernels (2x1, 3x1) at
// 1 and 4 workers, the sparse engine returns the bit-identical winner as
// the dense engine and the exhaustive reference. With one worker the
// scan is deterministic, so the Evaluated/Pruned split — not just the
// total — must match the dense engine exactly.
func TestSparseFindBestMatchesDense(t *testing.T) {
	cohorts := []*dataset.Cohort{
		pruneCohort(t, dataset.BRCA(), 26, 7),
		pruneCohort(t, dataset.LGG(), 24, 11),
		pruneCohort(t, dataset.ACC(), 22, 19),
	}
	schemes := []Options{
		{Hits: 3},
		{Hits: 4},
	}
	for ci, c := range cohorts {
		for _, base := range schemes {
			exact, err := ExhaustiveBest(c.Tumor, c.Normal, nil, base.Hits, DefaultAlpha)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				dense := base
				dense.Workers = workers
				dense.Engine = EngineDense
				dBest, dCnt, err := FindBest(c.Tumor, c.Normal, nil, dense)
				if err != nil {
					t.Fatal(err)
				}
				sparse := base
				sparse.Workers = workers
				sparse.Engine = EngineSparse
				sBest, sCnt, err := FindBest(c.Tumor, c.Normal, nil, sparse)
				if err != nil {
					t.Fatal(err)
				}
				if sBest != dBest || sBest != exact {
					t.Fatalf("cohort %d %s workers=%d: sparse %v dense %v exhaustive %v",
						ci, SchemeFor(base.Hits), workers, sBest, dBest, exact)
				}
				if sCnt.Scanned() != dCnt.Scanned() {
					t.Fatalf("cohort %d %s workers=%d: sparse scanned %d, dense %d",
						ci, SchemeFor(base.Hits), workers, sCnt.Scanned(), dCnt.Scanned())
				}
				if workers == 1 && sCnt != dCnt {
					t.Fatalf("cohort %d %s: deterministic counts differ: sparse %+v dense %+v",
						ci, SchemeFor(base.Hits), sCnt, dCnt)
				}
				if workers == 1 && sCnt.Pruned == 0 {
					// The merge short-circuit must actually fire on these
					// planted cohorts or the sparse bound layer is dead code.
					t.Fatalf("cohort %d %s: sparse pruning never fired", ci, SchemeFor(base.Hits))
				}
			}
		}
	}
}

// TestSparseRunMatchesDense pins the full greedy loop across engines —
// mask mode and kernelized, with the per-iteration checkpoint stream
// marshaled and compared byte for byte, so harness resume artifacts are
// provably engine-independent.
func TestSparseRunMatchesDense(t *testing.T) {
	cohorts := []*dataset.Cohort{
		pruneCohort(t, dataset.BRCA(), 22, 3),
		pruneCohort(t, dataset.ACC(), 20, 23),
	}
	for ci, c := range cohorts {
		for _, hits := range []int{3, 4} {
			for _, kernelize := range []bool{false, true} {
				runOne := func(engine Engine) (*Result, [][]byte) {
					var cps [][]byte
					res, err := Greedy(context.Background(), c.Tumor, c.Normal, Options{
						Hits: hits, Workers: 1, Kernelize: kernelize, Engine: engine,
					}, nil, Hooks{Commit: func(r *Result) error {
						b, err := json.Marshal(r.ToCheckpoint(c.Tumor, c.Normal))
						if err != nil {
							t.Fatal(err)
						}
						cps = append(cps, b)
						return nil
					}})
					if err != nil {
						t.Fatal(err)
					}
					return res, cps
				}
				dres, dcps := runOne(EngineDense)
				sres, scps := runOne(EngineSparse)

				dCombos, sCombos := dres.Combos(), sres.Combos()
				if len(dCombos) != len(sCombos) {
					t.Fatalf("cohort %d hits=%d kern=%v: %d vs %d steps",
						ci, hits, kernelize, len(sCombos), len(dCombos))
				}
				for i := range dCombos {
					if sCombos[i] != dCombos[i] {
						t.Fatalf("cohort %d hits=%d kern=%v step %d: sparse %v dense %v",
							ci, hits, kernelize, i, sCombos[i], dCombos[i])
					}
				}
				if sres.Covered != dres.Covered || sres.Uncoverable != dres.Uncoverable {
					t.Fatalf("cohort %d hits=%d kern=%v: totals differ", ci, hits, kernelize)
				}
				// Single worker ⇒ the whole work accounting is deterministic
				// and must be engine-invariant, split included.
				if sres.Evaluated != dres.Evaluated || sres.Pruned != dres.Pruned {
					t.Fatalf("cohort %d hits=%d kern=%v: counts sparse %d/%d dense %d/%d",
						ci, hits, kernelize, sres.Evaluated, sres.Pruned, dres.Evaluated, dres.Pruned)
				}
				if len(dcps) != len(scps) {
					t.Fatalf("cohort %d hits=%d kern=%v: %d vs %d checkpoints",
						ci, hits, kernelize, len(scps), len(dcps))
				}
				for i := range dcps {
					if string(scps[i]) != string(dcps[i]) {
						t.Fatalf("cohort %d hits=%d kern=%v: checkpoint %d bytes differ:\nsparse: %s\ndense:  %s",
							ci, hits, kernelize, i, scps[i], dcps[i])
					}
				}
				// Provenance: the resolved engine is echoed in the result.
				if sres.Options.Engine != EngineSparse || dres.Options.Engine != EngineDense {
					t.Fatalf("cohort %d hits=%d kern=%v: engine provenance sparse=%v dense=%v",
						ci, hits, kernelize, sres.Options.Engine, dres.Options.Engine)
				}
			}
		}
	}
}

// TestSparseRangeMatchesDense scans two overlapping sub-ranges of the λ
// domain as one unseeded partition each: the sparse engine returns the
// dense engine's winner and the same Evaluated/Pruned split.
func TestSparseRangeMatchesDense(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 24, 13)
	in := plainInstance("BRCA", c, nil)
	for _, rng := range [][2]uint64{{0, 500}, {300, 1100}} {
		parts := []sched.Partition{{Lo: rng[0], Hi: rng[1]}}
		dBest, dCnt := scanAll(t, in.pass(t, Options{Hits: 4, Engine: EngineDense}), parts, false)
		sBest, sCnt := scanAll(t, in.pass(t, Options{Hits: 4, Engine: EngineSparse}), parts, false)
		if sBest != dBest || sCnt != dCnt {
			t.Fatalf("range %v: sparse %v %+v, dense %v %+v", rng, sBest, sCnt, dBest, dCnt)
		}
	}
}

// TestEngineValidation pins the Options-level rejections: the pair and
// 4+1 kernels have no sparse form, and unknown engine values are refused.
func TestEngineValidation(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 18, 1)
	for _, hits := range []int{2, 5} {
		_, _, err := FindBest(c.Tumor, c.Normal, nil, Options{
			Hits: hits, Engine: EngineSparse,
		})
		if err == nil {
			t.Fatalf("scheme %s accepted Engine=Sparse", SchemeFor(hits))
		}
	}
	if _, _, err := FindBest(c.Tumor, c.Normal, nil, Options{Hits: 3, Engine: Engine(99)}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

// TestResolveEngineAuto exercises the density heuristic's structural
// gates and both sides of the crossover.
func TestResolveEngineAuto(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 20, 9)
	norm := func(o Options) Options {
		o.Workers = 1
		n, err := o.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// The crossovers are mean-row-occupancy thresholds (set samples per
	// gene row, see sparseCrossover); constructed instances pin both
	// sides of each band deterministically.
	mk := func(genes, samples, perRow int) *bitmat.Matrix {
		m := bitmat.New(genes, samples)
		for g := 0; g < genes; g++ {
			for b := 0; b < perRow; b++ {
				m.Set(g, (g*perRow+b)%samples)
			}
		}
		return m
	}
	st, sn := mk(40, 640, 1), mk(40, 640, 1) // one set sample per row
	opt := norm(Options{Hits: 3})
	if got := ResolveEngine(opt, st, sn); got != EngineSparse {
		t.Fatalf("low-occupancy auto = %v, want sparse", got)
	}
	// The crossover band is scheme-dependent: at eight set samples per
	// row the 2x1 scan stays dense while the deeper 3x1 cascade, which
	// reuses each merged prefix across a longer inner loop, goes sparse.
	mt, mn := mk(40, 640, 8), mk(40, 640, 8)
	if got := ResolveEngine(norm(Options{Hits: 3}), mt, mn); got != EngineDense {
		t.Fatalf("mid-density 2x1 auto = %v, want dense", got)
	}
	if got := ResolveEngine(norm(Options{Hits: 4}), mt, mn); got != EngineSparse {
		t.Fatalf("mid-density 3x1 auto = %v, want sparse", got)
	}
	// Structural gate: a prefix-free scheme forces dense.
	opt = norm(Options{Hits: 2})
	if got := ResolveEngine(opt, c.Tumor, c.Normal); got != EngineDense {
		t.Fatalf("pair-scheme auto = %v, want dense", got)
	}
	// A saturated matrix sits above the crossover.
	full := pruneCohort(t, dataset.BRCA(), 20, 9)
	for g := 0; g < full.Tumor.Genes(); g++ {
		for s := 0; s < full.Tumor.Samples(); s++ {
			full.Tumor.Set(g, s)
		}
	}
	opt = norm(Options{Hits: 3})
	if got := ResolveEngine(opt, full.Tumor, c.Normal); got != EngineDense {
		t.Fatalf("saturated auto = %v, want dense", got)
	}
	// Explicit engines pass through untouched.
	opt = norm(Options{Hits: 3, Engine: EngineDense})
	if got := ResolveEngine(opt, c.Tumor, c.Normal); got != EngineDense {
		t.Fatalf("explicit dense resolved to %v", got)
	}
}

// TestEngineStringParse round-trips the CLI/service spellings.
func TestEngineStringParse(t *testing.T) {
	for _, e := range []Engine{EngineAuto, EngineDense, EngineSparse} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Fatalf("round-trip %v: got %v, %v", e, got, err)
		}
	}
	if e, err := ParseEngine(""); err != nil || e != EngineAuto {
		t.Fatalf("empty engine: got %v, %v", e, err)
	}
	if _, err := ParseEngine("gpu"); err == nil {
		t.Fatal("ParseEngine accepted garbage")
	}
}
