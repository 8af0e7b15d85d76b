package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bitmat"
	"repro/internal/ckptstore"
	"repro/internal/combinat"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/failpoint"
	"repro/internal/sched"
)

// cohort generates a small seeded study cohort.
func cohort(t *testing.T, code string, genes, hits int, seed int64) (*bitmat.Matrix, *bitmat.Matrix) {
	t.Helper()
	spec, err := dataset.ByCode(code)
	if err != nil {
		t.Fatal(err)
	}
	spec.Hits = hits
	// The registry's positional-mutation profiles assume the study's
	// native hit count; the cover tests here don't use them.
	spec.Profiled = nil
	spec = spec.Scaled(genes)
	c, err := dataset.Generate(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return c.Tumor, c.Normal
}

// sameSteps asserts two runs chose the same combinations with the same
// cover counts.
func sameSteps(t *testing.T, label string, got, want []cover.Step) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Combo.GeneIDs(), want[i].Combo.GeneIDs()
		if len(g) != len(w) {
			t.Fatalf("%s: step %d arity differs", label, i)
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%s: step %d combo %v, want %v", label, i, g, w)
			}
		}
		if got[i].NewlyCovered != want[i].NewlyCovered {
			t.Fatalf("%s: step %d covers %d, want %d", label, i, got[i].NewlyCovered, want[i].NewlyCovered)
		}
	}
}

func TestHarnessMatchesCoverRun(t *testing.T) {
	// Without faults the supervised run must reproduce the plain engine's
	// cover exactly, step by step — combinations, F bits, cover counts and
	// work counts — for every scheme family, with and without Kernelize,
	// and both partition plans. The plain mode keeps its "splicefalse"
	// name, so the subtests are named as before the splicing option was
	// removed.
	modes := []struct {
		name string
		set  func(*cover.Options)
	}{
		{"splicefalse", func(*cover.Options) {}},
		{"kernelize", func(o *cover.Options) { o.Kernelize = true }},
	}
	for _, hits := range []int{2, 3, 4, 5} {
		for _, mode := range modes {
			for _, workers := range []int{3, 1} {
				name := fmt.Sprintf("h%d_%s", hits, mode.name)
				if workers != 3 {
					name += fmt.Sprintf("_w%d", workers)
				}
				t.Run(name, func(t *testing.T) {
					tumor, normal := cohort(t, "BRCA", 40, hits, 7)
					copt := cover.Options{Hits: hits, Workers: workers}
					mode.set(&copt)
					ref, err := cover.Run(tumor, normal, copt)
					if err != nil {
						t.Fatal(err)
					}
					res, err := Run(context.Background(), tumor, normal, Options{Cover: copt})
					if err != nil {
						t.Fatal(err)
					}
					sameSteps(t, "harness vs engine", res.Steps, ref.Steps)
					for i, w := range ref.Steps {
						g := res.Steps[i]
						if math.Float64bits(g.Combo.F) != math.Float64bits(w.Combo.F) ||
							g.Evaluated != w.Evaluated || g.Pruned != w.Pruned {
							t.Fatalf("step %d: F %v evaluated %d pruned %d, engine F %v evaluated %d pruned %d",
								i, g.Combo.F, g.Evaluated, g.Pruned, w.Combo.F, w.Evaluated, w.Pruned)
						}
					}
					if res.Covered != ref.Covered || res.Uncoverable != ref.Uncoverable ||
						res.Evaluated != ref.Evaluated || res.Pruned != ref.Pruned {
						t.Fatalf("totals differ: %d/%d/%d/%d vs %d/%d/%d/%d",
							res.Covered, res.Uncoverable, res.Evaluated, res.Pruned,
							ref.Covered, ref.Uncoverable, ref.Evaluated, ref.Pruned)
					}
					if res.Partial || res.Stop != StopCompleted || len(res.Quarantined) != 0 {
						t.Fatalf("clean run reported partial: %+v", res)
					}
				})
			}
		}
	}
}

// crashResume runs the harness to completion by killing it after every
// committed step and resuming from disk, returning the final result.
func crashResume(t *testing.T, tumor, normal *bitmat.Matrix, opt Options, kill string) *Result {
	t.Helper()
	defer failpoint.DisableAll()
	dir := t.TempDir()
	for leg := 0; ; leg++ {
		if leg > 200 {
			t.Fatal("crash-resume did not converge")
		}
		store, err := ckptstore.Open(dir, ckptstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		legOpt := opt
		legOpt.Store = store
		legOpt.Resume = leg > 0
		if err := failpoint.Enable("harness/crash", kill); err != nil {
			t.Fatal(err)
		}
		res, err := func() (res *Result, err error) {
			defer func() {
				if rec := recover(); rec != nil {
					if !failpoint.IsPanic(rec) {
						panic(rec) // a genuine bug, not the injected kill
					}
					err = fmt.Errorf("killed: %v", rec)
				}
			}()
			return Run(context.Background(), tumor, normal, legOpt)
		}()
		failpoint.Disable("harness/crash")
		if err != nil {
			continue // killed; next leg resumes from disk
		}
		if leg == 0 {
			t.Fatal("first leg was never killed; the property test is vacuous")
		}
		return res
	}
}

func TestCrashResumeEquivalence(t *testing.T) {
	// The acceptance property: killing the run after EVERY greedy step
	// (injected panic) and resuming from disk yields the identical
	// combination list, cover counts, and Evaluated/Pruned totals as an
	// uninterrupted run — across ≥2 worker counts, on three seeded
	// cohorts. The subtests keep their "splicefalse" infix from when
	// splicing was an option, so they are named as before.
	for _, tc := range []struct {
		code  string
		genes int
		hits  int
	}{
		{"BRCA", 36, 3},
		{"LGG", 40, 2},
		{"ACC", 30, 5},
	} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s_splicefalse_w%d", tc.code, workers)
			t.Run(name, func(t *testing.T) {
				tumor, normal := cohort(t, tc.code, tc.genes, tc.hits, 11)
				opt := Options{Cover: cover.Options{Hits: tc.hits, Workers: workers}}
				ref, err := Run(context.Background(), tumor, normal, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := crashResume(t, tumor, normal, opt, "panic@1")
				sameSteps(t, "crash-resume vs uninterrupted", got.Steps, ref.Steps)
				if got.Covered != ref.Covered || got.Uncoverable != ref.Uncoverable {
					t.Fatal("cover totals differ after crash-resume")
				}
				if got.Evaluated != ref.Evaluated || got.Pruned != ref.Pruned {
					t.Fatalf("work totals differ: %d/%d vs %d/%d",
						got.Evaluated, got.Pruned, ref.Evaluated, ref.Pruned)
				}
				if !got.Resumed || got.ReplayedSteps == 0 {
					t.Fatalf("final leg did not resume: %+v", got)
				}
			})
		}
	}
}

// TestResumeFromSplicedRunCheckpoint resumes, under the active mask, the
// store that a run with the former sample-splicing option wrote to
// testdata/bitsplice-brca-g30-h3 (multihit -cancer BRCA -genes 30 -hits 3
// -workers 2 -splice -checkpoint-dir <dir> -max-iter 2). The checkpoint
// format never recorded the option, so the run must finish as the
// uninterrupted mask run does: the same combinations, F bits and
// NewlyCovered, with Evaluated + Pruned = C(G, h) on every continued pass.
func TestResumeFromSplicedRunCheckpoint(t *testing.T) {
	dir := t.TempDir()
	src, err := filepath.Glob("testdata/bitsplice-brca-g30-h3/*.mhc")
	if err != nil || len(src) == 0 {
		t.Fatalf("fixture generations %v (%v)", src, err)
	}
	for _, path := range src {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store, err := ckptstore.Open(dir, ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := dataset.BRCA()
	spec.Hits = 3
	c, err := dataset.Generate(spec.Scaled(30), 42)
	if err != nil {
		t.Fatal(err)
	}
	copt := cover.Options{Hits: 3, Workers: 2}
	ref, err := cover.Run(c.Tumor, c.Normal, copt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), c.Tumor, c.Normal, Options{Cover: copt, Store: store, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Resumed || got.ReplayedSteps != 2 {
		t.Fatalf("resumed=%v with %d replayed steps, want the fixture's 2", got.Resumed, got.ReplayedSteps)
	}
	sameSteps(t, "spliced-run checkpoint resumed under the mask", got.Steps, ref.Steps)
	domain, _ := combinat.Binomial(30, 3)
	for i, w := range ref.Steps {
		g := got.Steps[i]
		if math.Float64bits(g.Combo.F) != math.Float64bits(w.Combo.F) {
			t.Fatalf("step %d: F %v, want %v", i, g.Combo.F, w.Combo.F)
		}
		if i >= got.ReplayedSteps && g.Evaluated+g.Pruned != domain {
			t.Fatalf("continued step %d scanned %d+%d, want C(30, 3) = %d", i, g.Evaluated, g.Pruned, domain)
		}
	}
	if got.Covered != ref.Covered || got.Uncoverable != ref.Uncoverable {
		t.Fatalf("covered %d / uncoverable %d, want %d / %d",
			got.Covered, got.Uncoverable, ref.Covered, ref.Uncoverable)
	}
}

func TestRetryRecoversFromTransientPanic(t *testing.T) {
	// A panic inside the real kernel on the first two attempts is
	// retried and the run still completes with a full, identical cover.
	defer failpoint.DisableAll()
	tumor, normal := cohort(t, "BRCA", 36, 2, 3)
	ref, err := cover.Run(tumor, normal, cover.Options{Hits: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("cover/kernel", "panic@1-2"); err != nil {
		t.Fatal(err)
	}
	var retries, quarantines int
	res, err := Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2, Workers: 2},
		OnEvent: func(e Event) {
			switch e.Kind {
			case EventRetry:
				retries++
			case EventQuarantine:
				quarantines++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if retries == 0 {
		t.Fatal("injected panics produced no retries")
	}
	if quarantines != 0 {
		t.Fatalf("transient failure was quarantined %d times", quarantines)
	}
	sameSteps(t, "after transient panics", res.Steps, ref.Steps)
	if res.Partial {
		t.Fatal("recovered run reported partial")
	}
}

func TestPoisonPartitionQuarantine(t *testing.T) {
	// A partition that fails every attempt is quarantined; the run
	// degrades gracefully: it completes, reports the λ-range and the
	// withheld combination count, and flags the result Partial.
	defer failpoint.DisableAll()
	tumor, normal := cohort(t, "BRCA", 36, 2, 3)
	// Worker count 1 makes hit ordering deterministic: hits 1..N are the
	// first partition's attempts.
	if err := failpoint.Enable("harness/partition", "error@1-3"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined %d partitions, want 1", len(res.Quarantined))
	}
	q := res.Quarantined[0]
	if q.Attempts != 3 || q.Step != 0 {
		t.Fatalf("quarantine = %+v, want 3 attempts at step 0", q)
	}
	if q.LastError == "" {
		t.Fatal("quarantine carries no error")
	}
	if res.Unscanned != q.Size() || res.Unscanned == 0 {
		t.Fatalf("Unscanned = %d, want partition size %d", res.Unscanned, q.Size())
	}
	if !res.Partial {
		t.Fatal("quarantined run not flagged Partial")
	}
	if len(res.Steps) == 0 || res.Covered == 0 {
		t.Fatal("degraded run found no cover at all")
	}
}

func TestDeadlineReturnsPartialWithCheckpoint(t *testing.T) {
	// A tight deadline plus an injected kernel stall forces an early
	// stop: the result is Partial with best-so-far steps, a checkpoint
	// is on disk, and a resume without the stall completes to the exact
	// uninterrupted result.
	defer failpoint.DisableAll()
	tumor, normal := cohort(t, "LGG", 40, 2, 5)
	ref, err := Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Steps) < 2 {
		t.Skipf("cohort covers in %d steps; need ≥2", len(ref.Steps))
	}
	dir := t.TempDir()
	store, err := ckptstore.Open(dir, ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("cover/kernel", "delay(30ms)"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), tumor, normal, Options{
		Cover:    cover.Options{Hits: 2, Workers: 2},
		Store:    store,
		Deadline: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopDeadline || !res.Partial {
		t.Fatalf("stop = %v partial = %v, want deadline partial", res.Stop, res.Partial)
	}
	if len(res.Steps) >= len(ref.Steps) {
		t.Skip("deadline did not bite; machine too fast for the stall")
	}
	failpoint.DisableAll()
	if len(res.Steps) == 0 {
		// Nothing persisted: nothing to resume. (The deadline fired
		// before the first step; still a valid partial result.)
		return
	}
	if res.PersistedGeneration == 0 {
		t.Fatal("partial result was not persisted")
	}
	resumed, err := Run(context.Background(), tumor, normal, Options{
		Cover:  cover.Options{Hits: 2, Workers: 2},
		Store:  store,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "deadline resume", resumed.Steps, ref.Steps)
	if resumed.Evaluated != ref.Evaluated || resumed.Pruned != ref.Pruned {
		t.Fatal("deadline resume work totals differ")
	}
}

func TestCancelCheckpointsAndResumes(t *testing.T) {
	// Context cancellation (the SIGINT/SIGTERM path) behaves like the
	// deadline: persist and return best-so-far, resume completes.
	defer failpoint.DisableAll()
	tumor, normal := cohort(t, "BRCA", 36, 2, 9)
	ref, err := Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Steps) < 2 {
		t.Skipf("cohort covers in %d steps; need ≥2", len(ref.Steps))
	}
	store, err := ckptstore.Open(t.TempDir(), ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var once bool
	res, err := Run(ctx, tumor, normal, Options{
		Cover: cover.Options{Hits: 2, Workers: 2},
		Store: store,
		OnEvent: func(e Event) {
			if e.Kind == EventCheckpoint && !once {
				once = true
				cancel() // "SIGTERM" right after the first step commits
			}
		},
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopCanceled || !res.Partial {
		t.Fatalf("stop = %v partial = %v, want canceled partial", res.Stop, res.Partial)
	}
	resumed, err := Run(context.Background(), tumor, normal, Options{
		Cover:  cover.Options{Hits: 2, Workers: 2},
		Store:  store,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameSteps(t, "cancel resume", resumed.Steps, ref.Steps)
}

func TestResumeFallsBackPastCorruptGeneration(t *testing.T) {
	// End to end: corrupt the newest on-disk generation and resume. The
	// store falls back to the previous valid generation without manual
	// intervention, the harness reports the skip, and the final cover is
	// still exact.
	tumor, normal := cohort(t, "BRCA", 36, 2, 13)
	ref, err := Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2, Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Steps) < 3 {
		t.Skipf("cohort covers in %d steps; need ≥3", len(ref.Steps))
	}
	dir := t.TempDir()
	store, err := ckptstore.Open(dir, ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Run two steps, persisting each as its own generation.
	_, err = Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2, Workers: 2, MaxIterations: 2},
		Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := store.Generations()
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations %v, err %v; want 2 generations", gens, err)
	}
	// Flip one payload byte in the newest generation.
	corruptGenerationFile(t, store, gens[len(gens)-1])

	resumed, err := Run(context.Background(), tumor, normal, Options{
		Cover:  cover.Options{Hits: 2, Workers: 2},
		Store:  store,
		Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.ResumedGeneration != gens[0] || resumed.SkippedGenerations != 1 {
		t.Fatalf("resumed from gen %d skipping %d, want gen %d skipping 1",
			resumed.ResumedGeneration, resumed.SkippedGenerations, gens[0])
	}
	if resumed.ReplayedSteps != 1 {
		t.Fatalf("replayed %d steps, want 1 (the older generation)", resumed.ReplayedSteps)
	}
	sameSteps(t, "corrupt-fallback resume", resumed.Steps, ref.Steps)
	if resumed.Evaluated != ref.Evaluated || resumed.Pruned != ref.Pruned {
		t.Fatal("corrupt-fallback resume work totals differ")
	}
}

func TestResumeRequiresACheckpoint(t *testing.T) {
	// -resume semantics: an empty store is a hard error, never a silent
	// fresh start.
	tumor, normal := cohort(t, "BRCA", 36, 2, 3)
	store, err := ckptstore.Open(t.TempDir(), ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), tumor, normal, Options{
		Cover:  cover.Options{Hits: 2},
		Store:  store,
		Resume: true,
	})
	if !IsNoCheckpoint(err) {
		t.Fatalf("resume from empty store = %v, want ErrNoCheckpoint", err)
	}
	_, err = Run(context.Background(), tumor, normal, Options{
		Cover:  cover.Options{Hits: 2},
		Resume: true,
	})
	if err == nil {
		t.Fatal("resume without a store accepted")
	}
}

func TestResumeRejectsWrongCohort(t *testing.T) {
	// A checkpoint from one cohort must not replay onto another: the
	// typed fingerprint error surfaces through the harness.
	tumor, normal := cohort(t, "BRCA", 36, 2, 3)
	store, err := ckptstore.Open(t.TempDir(), ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2, MaxIterations: 1},
		Store: store,
	}); err != nil {
		t.Fatal(err)
	}
	otherT, otherN := cohort(t, "BRCA", 36, 2, 99)
	_, err = Run(context.Background(), otherT, otherN, Options{
		Cover:  cover.Options{Hits: 2},
		Store:  store,
		Resume: true,
	})
	if !errors.Is(err, cover.ErrFingerprintMismatch) {
		t.Fatalf("wrong-cohort resume = %v, want ErrFingerprintMismatch", err)
	}
}

func TestPersistenceFailureAbortsWithResult(t *testing.T) {
	// Losing the ability to checkpoint is an error (durability is the
	// contract), but the in-memory best-so-far still comes back.
	defer failpoint.DisableAll()
	tumor, normal := cohort(t, "BRCA", 36, 2, 3)
	store, err := ckptstore.Open(t.TempDir(), ckptstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("ckptstore/write", "error"); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), tumor, normal, Options{
		Cover: cover.Options{Hits: 2},
		Store: store,
	})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("persistence failure = %v", err)
	}
	if res == nil || len(res.Steps) == 0 {
		t.Fatal("no best-so-far result returned alongside the error")
	}
}

func TestSeededPassesDeterministicAndExact(t *testing.T) {
	// Every pass prunes from the seed incumbent: the combinations and
	// scanned totals equal an exhaustive (NoPrune) run, the counts repeat
	// exactly across runs with the same worker count, and the first pass
	// scores no more than the same partitions scanned without a seed.
	for _, kernelize := range []bool{false, true} {
		t.Run(fmt.Sprintf("kernelize%v", kernelize), func(t *testing.T) {
			tumor, normal := cohort(t, "BRCA", 40, 3, 7)
			copt := cover.Options{Hits: 3, Workers: 2, Kernelize: kernelize}
			exact := copt
			exact.NoPrune = true
			ref, err := Run(context.Background(), tumor, normal, Options{Cover: exact})
			if err != nil {
				t.Fatal(err)
			}
			a, err := Run(context.Background(), tumor, normal, Options{Cover: copt})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(context.Background(), tumor, normal, Options{Cover: copt})
			if err != nil {
				t.Fatal(err)
			}
			sameSteps(t, "seeded vs NoPrune", a.Steps, ref.Steps)
			if a.Evaluated+a.Pruned != ref.Evaluated+ref.Pruned {
				t.Fatalf("scanned %d, NoPrune scanned %d", a.Evaluated+a.Pruned, ref.Evaluated+ref.Pruned)
			}
			for i := range a.Steps {
				if a.Steps[i].Combo != b.Steps[i].Combo ||
					a.Steps[i].Evaluated != b.Steps[i].Evaluated || a.Steps[i].Pruned != b.Steps[i].Pruned {
					t.Fatalf("step %d differs between identical runs: %+v vs %+v", i, a.Steps[i], b.Steps[i])
				}
			}
			if kernelize {
				return
			}
			p, parts := firstPass(t, tumor, normal, copt)
			_, unseeded, err := cover.ScanPass(context.Background(), p, parts, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if a.Steps[0].Evaluated > unseeded.Evaluated {
				t.Fatalf("seeded first pass evaluated %d, unseeded %d", a.Steps[0].Evaluated, unseeded.Evaluated)
			}
		})
	}
}

// corruptGenerationFile flips a payload byte of one generation in place.
func corruptGenerationFile(t *testing.T, s *ckptstore.Store, gen uint64) {
	t.Helper()
	path := filepath.Join(s.Dir(), fmt.Sprintf("ckpt-%09d.mhc", gen))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// firstPass is an unkernelized run's first enumeration pass under copt,
// as cover.Greedy hands it to the harness, and the partition plan the
// harness scans it with.
func firstPass(t *testing.T, tumor, normal *bitmat.Matrix, copt cover.Options) (cover.Pass, []sched.Partition) {
	t.Helper()
	opt, err := copt.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	parts, err := cover.PartitionPlan(tumor.Genes(), opt, opt.Workers*cover.PartitionsPerWorker)
	if err != nil {
		t.Fatal(err)
	}
	return cover.Pass{Tumor: tumor, Normal: normal, Active: bitmat.AllOnes(tumor.Samples()),
		Denom: float64(tumor.Samples() + normal.Samples()), Opt: opt}, parts
}

func TestQuarantinedSeedPartitionKeepsBestSurvivor(t *testing.T) {
	// The partition holding the pass's winner fails every attempt and is
	// quarantined. The step must then choose what the engine's scan
	// chooses with that partition dropped: the best of the surviving
	// ranges and the pass's seed, which every survivor pruned against
	// (cover's TestScanPassDroppedSeedPartition pins that property).
	defer failpoint.DisableAll()
	tumor, normal := cohort(t, "BRCA", 40, 3, 7)
	copt := cover.Options{Hits: 3, Workers: 1, MaxIterations: 1}
	winner, _, err := cover.FindBest(tumor, normal, nil, copt)
	if err != nil {
		t.Fatal(err)
	}
	p, parts := firstPass(t, tumor, normal, copt)
	ids := winner.GeneIDs()
	lambda := combinat.PairToLinear(uint64(ids[0]), uint64(ids[1]))
	poisoned := -1
	for i, part := range parts {
		if part.Lo <= lambda && lambda < part.Hi {
			poisoned = i
		}
	}
	want, _, err := cover.ScanPass(context.Background(), p, parts, true, func(i int, scan func()) bool {
		if i == poisoned {
			return false
		}
		scan()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	// With one worker the partitions are attempted in order, one hit
	// each, so the poisoned partition's three attempts are these hits.
	if err := failpoint.Enable("harness/partition", fmt.Sprintf("error@%d-%d", poisoned+1, poisoned+3)); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), tumor, normal, Options{Cover: copt})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].Lo != parts[poisoned].Lo {
		t.Fatalf("quarantined %+v, want partition %d", res.Quarantined, poisoned)
	}
	if !res.Partial || res.Unscanned != parts[poisoned].Size() {
		t.Fatalf("partial=%v unscanned=%d, want a partial result withholding %d", res.Partial, res.Unscanned, parts[poisoned].Size())
	}
	if len(res.Steps) != 1 || res.Steps[0].Combo != want {
		t.Fatalf("steps %+v, want winner %v", res.Steps, want)
	}
}

func TestRetriedPartitionCountsMatchFaultFree(t *testing.T) {
	// A partition whose first attempt panics inside the kernel is
	// retried from a fresh incumbent, so the run's Evaluated/Pruned equal
	// a fault-free run's exactly, step by step.
	defer failpoint.DisableAll()
	tumor, normal := cohort(t, "BRCA", 40, 3, 7)
	opt := Options{Cover: cover.Options{Hits: 3, Workers: 2}}
	ref, err := Run(context.Background(), tumor, normal, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Enable("cover/kernel", "panic@3"); err != nil {
		t.Fatal(err)
	}
	var retries int
	opt.OnEvent = func(e Event) {
		if e.Kind == EventRetry {
			retries++
		}
	}
	got, err := Run(context.Background(), tumor, normal, opt)
	if err != nil {
		t.Fatal(err)
	}
	if retries != 1 || got.Partial {
		t.Fatalf("%d retries, partial=%v; want one recovered retry", retries, got.Partial)
	}
	if got.Evaluated != ref.Evaluated || got.Pruned != ref.Pruned {
		t.Fatalf("retried run counted %d/%d, fault-free %d/%d", got.Evaluated, got.Pruned, ref.Evaluated, ref.Pruned)
	}
	sameSteps(t, "after a retried partition", got.Steps, ref.Steps)
	for i := range got.Steps {
		if got.Steps[i].Evaluated != ref.Steps[i].Evaluated || got.Steps[i].Pruned != ref.Steps[i].Pruned {
			t.Fatalf("step %d counted %d/%d, fault-free %d/%d", i,
				got.Steps[i].Evaluated, got.Steps[i].Pruned, ref.Steps[i].Evaluated, ref.Steps[i].Pruned)
		}
	}
}
