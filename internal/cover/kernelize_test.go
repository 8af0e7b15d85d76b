package cover

import (
	"bytes"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/dataset"
)

// TestKernelizedRunMatchesPlain is the tentpole differential guarantee:
// on seeded BRCA and LGG cohorts, the kernelized greedy cover is
// bit-identical to the plain engine — same combinations in the same
// order, same cover counts, and the same scanned total per step, because
// the kernel's removed work is credited to Pruned.
func TestKernelizedRunMatchesPlain(t *testing.T) {
	cohorts := []*dataset.Cohort{
		pruneCohort(t, dataset.BRCA(), 26, 7),
		pruneCohort(t, dataset.LGG(), 24, 11),
	}
	for ci, c := range cohorts {
		for _, hits := range []int{2, 3, 4, 5} {
			full, ok := domainSize(c.Tumor.Genes(), hits)
			if !ok {
				t.Fatal("test domain overflows")
			}
			ref, err := Run(c.Tumor, c.Normal, Options{Hits: hits, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 7} {
				got, err := Run(c.Tumor, c.Normal, Options{
					Hits: hits, Workers: workers, Kernelize: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got.KernelFingerprint == 0 {
					t.Fatalf("cohort %d hits=%d: kernel fingerprint not recorded", ci, hits)
				}
				if len(got.Steps) != len(ref.Steps) {
					t.Fatalf("cohort %d hits=%d workers=%d: %d steps, want %d",
						ci, hits, workers, len(got.Steps), len(ref.Steps))
				}
				for i := range ref.Steps {
					w, g := ref.Steps[i], got.Steps[i]
					wids, gids := w.Combo.GeneIDs(), g.Combo.GeneIDs()
					for j := range wids {
						if wids[j] != gids[j] {
							t.Fatalf("cohort %d hits=%d workers=%d step %d: %v, want %v",
								ci, hits, workers, i, gids, wids)
						}
					}
					if g.Combo.F != w.Combo.F { //lint:allow floatcompare identical float expressions must agree exactly
						t.Fatalf("cohort %d hits=%d workers=%d step %d: F=%v, want %v",
							ci, hits, workers, i, g.Combo.F, w.Combo.F)
					}
					if g.NewlyCovered != w.NewlyCovered || g.ActiveAfter != w.ActiveAfter {
						t.Fatalf("cohort %d hits=%d workers=%d step %d: cover %d/%d, want %d/%d",
							ci, hits, workers, i, g.NewlyCovered, g.ActiveAfter, w.NewlyCovered, w.ActiveAfter)
					}
					if g.Evaluated+g.Pruned != full {
						t.Fatalf("cohort %d hits=%d workers=%d step %d: scanned %d, want C(G,h)=%d",
							ci, hits, workers, i, g.Evaluated+g.Pruned, full)
					}
				}
				if got.Covered != ref.Covered || got.Uncoverable != ref.Uncoverable {
					t.Fatalf("cohort %d hits=%d workers=%d: totals %d/%d, want %d/%d",
						ci, hits, workers, got.Covered, got.Uncoverable, ref.Covered, ref.Uncoverable)
				}
				if got.Evaluated+got.Pruned != ref.Evaluated+ref.Pruned {
					t.Fatalf("cohort %d hits=%d workers=%d: scanned %d, want %d",
						ci, hits, workers, got.Evaluated+got.Pruned, ref.Evaluated+ref.Pruned)
				}
				if got.Evaluated >= ref.Evaluated+ref.Pruned && hits >= 3 {
					// The kernel must actually shrink something on these
					// planted cohorts or the pass is dead code.
					t.Fatalf("cohort %d hits=%d: kernelized run evaluated the full domain", ci, hits)
				}
			}
		}
	}
}

// TestKernelizedResumeMatchesUninterrupted: a kernelized run interrupted
// mid-cover and resumed from its checkpoint replays into the identical
// continuation — the checkpoint pins the kernel by fingerprint and the
// resumed leg rebuilds it deterministically.
func TestKernelizedResumeMatchesUninterrupted(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 30, 7)
	opt := Options{Hits: 3, Workers: 4, Kernelize: true}
	full, err := Run(c.Tumor, c.Normal, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) < 4 {
		t.Fatalf("need ≥4 steps to split, got %d", len(full.Steps))
	}

	partialOpt := opt
	partialOpt.MaxIterations = 2
	partial, err := Run(c.Tumor, c.Normal, partialOpt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := partial.ToCheckpoint(c.Tumor, c.Normal).Write(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Kernelize || cp.KernelFingerprint == 0 {
		t.Fatalf("checkpoint kernelize=%v fingerprint=%x; the kernel was not recorded",
			cp.Kernelize, cp.KernelFingerprint)
	}
	resumed, err := Resume(c.Tumor, c.Normal, opt, cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Steps) != len(full.Steps) {
		t.Fatalf("resumed %d steps, uninterrupted %d", len(resumed.Steps), len(full.Steps))
	}
	for i := range full.Steps {
		wantIDs := full.Steps[i].Combo.GeneIDs()
		gotIDs := resumed.Steps[i].Combo.GeneIDs()
		for j := range wantIDs {
			if wantIDs[j] != gotIDs[j] {
				t.Fatalf("step %d: resumed %v != full %v", i, gotIDs, wantIDs)
			}
		}
		if resumed.Steps[i].NewlyCovered != full.Steps[i].NewlyCovered {
			t.Fatalf("step %d: cover counts differ", i)
		}
	}
	if resumed.Covered != full.Covered || resumed.Uncoverable != full.Uncoverable {
		t.Fatal("totals differ after resume")
	}
	if resumed.Evaluated+resumed.Pruned != full.Evaluated+full.Pruned {
		t.Fatalf("cumulative scanned %d, want %d",
			resumed.Evaluated+resumed.Pruned, full.Evaluated+full.Pruned)
	}
}

// TestReplayRejectsKernelizeMismatch: a checkpoint written by one engine
// mode must not be resumed under the other — resume promises a
// bit-identical continuation, which pins the mode like Hits and Alpha.
func TestReplayRejectsKernelizeMismatch(t *testing.T) {
	c := pruneCohort(t, dataset.LGG(), 20, 5)
	for _, kernelized := range []bool{false, true} {
		opt := Options{Hits: 2, Workers: 2, Kernelize: kernelized, MaxIterations: 1}
		partial, err := Run(c.Tumor, c.Normal, opt)
		if err != nil {
			t.Fatal(err)
		}
		cp := partial.ToCheckpoint(c.Tumor, c.Normal)
		flipped := opt
		flipped.Kernelize = !kernelized
		flipped.MaxIterations = 0
		if _, err := Resume(c.Tumor, c.Normal, flipped, cp); err == nil {
			t.Fatalf("kernelize=%v checkpoint resumed under kernelize=%v", kernelized, !kernelized)
		}
	}
}

// TestFindBest5OverflowRejected: at G where the 5-hit λ-domain C(G, 5)
// wraps uint64, the partitioners must refuse rather than scan a wrapped
// domain (C(100000, 5) ≈ 8.3e22; the C(G, 4) thread count still fits).
func TestFindBest5OverflowRejected(t *testing.T) {
	const genes = 100000
	tumor := bitmat.New(genes, 4)
	normal := bitmat.New(genes, 4)
	tumor.Set(0, 0)
	opt := Options{Hits: 5, Workers: 1}
	if _, _, err := FindBest(tumor, normal, nil, opt); err == nil {
		t.Fatal("FindBest accepted a wrapped 5-hit λ-domain")
	}
	if _, err := Run(tumor, normal, opt); err == nil {
		t.Fatal("Run accepted a wrapped 5-hit λ-domain")
	}
}
