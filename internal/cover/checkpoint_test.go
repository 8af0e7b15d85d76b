package cover

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/dataset"
)

func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	tumor, normal := randomPair(71, 14, 60, 50, 0.4)
	full, err := Run(tumor, normal, Options{Hits: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) < 4 {
		t.Skipf("need ≥4 steps to split, got %d", len(full.Steps))
	}

	// Interrupt after 2 iterations, checkpoint, round-trip through JSON,
	// resume.
	partial, err := Run(tumor, normal, Options{Hits: 3, Workers: 4, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := partial.ToCheckpoint(tumor, normal).Write(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(tumor, normal, Options{Hits: 3, Workers: 4}, cp)
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
	// The resumed run skipped the first two enumeration passes, but the
	// checkpoint carried their counts, so the cumulative scanned totals
	// agree. (Only the scanned sum is deterministic: with pruning on, the
	// Evaluated/Pruned split varies with worker timing.)
	if resumed.Evaluated+resumed.Pruned != full.Evaluated+full.Pruned {
		t.Fatalf("cumulative scanned %d, want %d",
			resumed.Evaluated+resumed.Pruned, full.Evaluated+full.Pruned)
	}
}

func TestCheckpointRejectsWrongInputs(t *testing.T) {
	tumor, normal := randomPair(73, 12, 40, 30, 0.4)
	partial, err := Run(tumor, normal, Options{Hits: 3, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp := partial.ToCheckpoint(tumor, normal)

	// Different matrices.
	otherT, otherN := randomPair(74, 12, 40, 30, 0.4)
	if _, err := Resume(otherT, otherN, Options{Hits: 3}, cp); err == nil {
		t.Error("accepted mismatched matrices")
	}
	// Different hit count.
	if _, err := Resume(tumor, normal, Options{Hits: 2}, cp); err == nil {
		t.Error("accepted mismatched hit count")
	}
	// Different alpha.
	if _, err := Resume(tumor, normal, Options{Hits: 3, Alpha: 0.5}, cp); err == nil {
		t.Error("accepted mismatched alpha")
	}
	// Tampered cover count.
	bad := *cp
	bad.NewlyCovered = append([]int{}, cp.NewlyCovered...)
	bad.NewlyCovered[0]++
	if _, err := Resume(tumor, normal, Options{Hits: 3}, &bad); err == nil {
		t.Error("accepted tampered cover count")
	}
	// Out-of-range gene.
	bad2 := *cp
	bad2.Combos = [][]int{{0, 1, 99}}
	bad2.NewlyCovered = []int{1}
	if _, err := Resume(tumor, normal, Options{Hits: 3}, &bad2); err == nil {
		t.Error("accepted out-of-range gene id")
	}
}

func TestReadCheckpointErrors(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("not json")); err == nil {
		t.Error("accepted garbage")
	}
	if _, err := ReadCheckpoint(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("accepted unknown version")
	}
	if _, err := ReadCheckpoint(strings.NewReader(
		`{"version": 1, "combos": [[1,2]], "newly_covered": []}`)); err == nil {
		t.Error("accepted inconsistent lengths")
	}
}

func TestCheckpointTypedErrors(t *testing.T) {
	// The load-failure modes callers branch on (the CLI reports them, the
	// harness surfaces them) are typed, not just message strings.
	if _, err := ReadCheckpoint(strings.NewReader(`{"version": 99}`)); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("unknown version error = %v, want ErrCheckpointVersion", err)
	}
	tumor, normal := randomPair(73, 12, 40, 30, 0.4)
	partial, err := Run(tumor, normal, Options{Hits: 3, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	cp := partial.ToCheckpoint(tumor, normal)
	otherT, otherN := randomPair(74, 12, 40, 30, 0.4)
	if _, err := Resume(otherT, otherN, Options{Hits: 3}, cp); !errors.Is(err, ErrFingerprintMismatch) {
		t.Errorf("mismatched matrices error = %v, want ErrFingerprintMismatch", err)
	}
}

func TestReadCheckpointBoundsInput(t *testing.T) {
	// A checkpoint stream larger than the decode bound must fail cleanly
	// instead of buffering without limit. A valid header followed by an
	// endless field exercises the io.LimitReader cut-off.
	huge := strings.NewReader(`{"version": 1, "combos": [` + strings.Repeat("[1,2],", 1<<20))
	r := io.MultiReader(huge, neverEnding('['))
	if _, err := ReadCheckpoint(r); err == nil {
		t.Error("accepted an unbounded checkpoint stream")
	}
}

// neverEnding is an infinite reader of one repeated byte.
type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

func TestResumeFromEmptyCheckpoint(t *testing.T) {
	// Resuming from a zero-step checkpoint equals a fresh run.
	tumor, normal := randomPair(79, 12, 40, 30, 0.4)
	empty := (&Result{Options: Options{Hits: 3, Alpha: DefaultAlpha}}).ToCheckpoint(tumor, normal)
	resumed, err := Resume(tumor, normal, Options{Hits: 3}, empty)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(tumor, normal, Options{Hits: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Steps) != len(fresh.Steps) || resumed.Covered != fresh.Covered {
		t.Fatal("empty-checkpoint resume differs from a fresh run")
	}
}

func TestMultiLegCheckpointing(t *testing.T) {
	// Three walltime-limited legs (2 iterations each) must reach the same
	// final cover as one uninterrupted run.
	tumor, normal := randomPair(83, 13, 50, 40, 0.45)
	full, err := Run(tumor, normal, Options{Hits: 3})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := Run(tumor, normal, Options{Hits: 3, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for leg := 0; leg < 5; leg++ {
		cp := partial.ToCheckpoint(tumor, normal)
		cap := len(partial.Steps) + 2
		partial, err = Resume(tumor, normal, Options{Hits: 3, MaxIterations: cap}, cp)
		if err != nil {
			t.Fatal(err)
		}
		if len(partial.Steps) >= len(full.Steps) {
			break
		}
	}
	// Final leg: run to completion.
	cp := partial.ToCheckpoint(tumor, normal)
	final, err := Resume(tumor, normal, Options{Hits: 3}, cp)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Steps) != len(full.Steps) || final.Covered != full.Covered {
		t.Fatalf("multi-leg result differs: %d steps vs %d", len(final.Steps), len(full.Steps))
	}
}

// cadence returns a Greedy commit callback that checkpoints the run after
// every every-th step into *cps.
func cadence(tumor, normal *bitmat.Matrix, every int, cps *[]*Checkpoint) func(*Result) error {
	return func(r *Result) error {
		if len(r.Steps)%every == 0 {
			*cps = append(*cps, r.ToCheckpoint(tumor, normal))
		}
		return nil
	}
}

func TestCheckpointCadenceCallback(t *testing.T) {
	tumor, normal := randomPair(71, 14, 60, 50, 0.4)
	var cps []*Checkpoint
	res, err := Greedy(context.Background(), tumor, normal, Options{Hits: 3}, nil,
		Hooks{Commit: cadence(tumor, normal, 2, &cps)})
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Steps) / 2
	if len(cps) != want {
		t.Fatalf("cadence 2 over %d steps took %d checkpoints, want %d",
			len(res.Steps), len(cps), want)
	}
	for i, cp := range cps {
		if got := len(cp.Combos); got != (i+1)*2 {
			t.Fatalf("checkpoint %d records %d combos, want %d", i, got, (i+1)*2)
		}
	}
	// The last cadence checkpoint resumes to the full result.
	if len(cps) > 0 {
		resumed, err := Resume(tumor, normal, Options{Hits: 3}, cps[len(cps)-1])
		if err != nil {
			t.Fatal(err)
		}
		if len(resumed.Steps) != len(res.Steps) || resumed.Covered != res.Covered {
			t.Fatal("resume from a cadence checkpoint diverges")
		}
	}
}

func TestCommitErrorEndsRun(t *testing.T) {
	// A commit callback's error ends the loop right after the step it
	// was called for, with that step kept in the result.
	tumor, normal := randomPair(71, 14, 60, 50, 0.4)
	stop := errors.New("stop")
	res, err := Greedy(context.Background(), tumor, normal, Options{Hits: 3}, nil,
		Hooks{Commit: func(r *Result) error {
			if len(r.Steps) == 2 {
				return stop
			}
			return nil
		}})
	if !errors.Is(err, stop) {
		t.Fatalf("Greedy = %v, want the commit error", err)
	}
	if res == nil || len(res.Steps) != 2 {
		t.Fatalf("run ended with %v, want the 2 committed steps", res)
	}
}

// sameStepsAfter asserts got's steps equal want's: combinations, F bits
// and cover counts everywhere, and per-step work counts from step
// continued on (replayed steps carry no per-step counts).
func sameStepsAfter(t *testing.T, label string, got, want *Result, continued int) {
	t.Helper()
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, want %d", label, len(got.Steps), len(want.Steps))
	}
	for i, w := range want.Steps {
		g := got.Steps[i]
		if g.Combo.Genes != w.Combo.Genes || math.Float64bits(g.Combo.F) != math.Float64bits(w.Combo.F) ||
			g.NewlyCovered != w.NewlyCovered || g.ActiveAfter != w.ActiveAfter {
			t.Fatalf("%s: step %d = %+v, want %+v", label, i, g, w)
		}
		if i >= continued && (g.Evaluated != w.Evaluated || g.Pruned != w.Pruned) {
			t.Fatalf("%s: step %d counts %d/%d, want %d/%d", label, i,
				g.Evaluated, g.Pruned, w.Evaluated, w.Pruned)
		}
	}
}

// TestResumeReportsLikeRun: the continued steps of a Resume commit exactly
// as an uninterrupted Run's do — one commit per continued step, cadence
// checkpoints at the same cumulative step counts — and carry wall-clock
// timings, in both the mask and the kernelized sample-axis mode.
func TestResumeReportsLikeRun(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 30, 7)
	for _, kernelize := range []bool{false, true} {
		opt := Options{Hits: 3, Workers: 2, Kernelize: kernelize}
		var fullCps []*Checkpoint
		full, err := Greedy(context.Background(), c.Tumor, c.Normal, opt, nil,
			Hooks{Commit: cadence(c.Tumor, c.Normal, 2, &fullCps)})
		if err != nil {
			t.Fatal(err)
		}
		const replayed = 3
		if len(full.Steps) <= replayed+2 {
			t.Fatalf("kernelize=%v: need >%d steps to split, got %d", kernelize, replayed+2, len(full.Steps))
		}
		capped := opt
		capped.MaxIterations = replayed
		partial, err := Run(c.Tumor, c.Normal, capped)
		if err != nil {
			t.Fatal(err)
		}

		var commits int
		var resumedCps []*Checkpoint
		checkpoint := cadence(c.Tumor, c.Normal, 2, &resumedCps)
		resumed, err := Greedy(context.Background(), c.Tumor, c.Normal, opt,
			partial.ToCheckpoint(c.Tumor, c.Normal), Hooks{Commit: func(r *Result) error {
				commits++
				return checkpoint(r)
			}})
		if err != nil {
			t.Fatal(err)
		}
		if len(resumed.Steps) != len(full.Steps) {
			t.Fatalf("kernelize=%v: resumed %d steps, uninterrupted %d", kernelize, len(resumed.Steps), len(full.Steps))
		}
		if want := len(resumed.Steps) - replayed; commits != want {
			t.Errorf("kernelize=%v: %d commits, want one per continued step (%d)", kernelize, commits, want)
		}
		var want, got []int
		for _, cp := range fullCps {
			if n := len(cp.Combos); n > replayed {
				want = append(want, n)
			}
		}
		for _, cp := range resumedCps {
			got = append(got, len(cp.Combos))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("kernelize=%v: resumed leg checkpointed at steps %v, uninterrupted run at %v", kernelize, got, want)
		}
		for i, s := range resumed.Steps[replayed:] {
			if s.Elapsed <= 0 {
				t.Errorf("kernelize=%v: continued step %d has Elapsed %v", kernelize, replayed+i, s.Elapsed)
			}
		}
		if resumed.Elapsed <= 0 {
			t.Errorf("kernelize=%v: resumed result has Elapsed %v", kernelize, resumed.Elapsed)
		}
	}
}
