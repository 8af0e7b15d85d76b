package cover

import (
	"context"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/dataset"
	"repro/internal/reduce"
)

// randomPair builds random tumor/normal matrices.
func randomPair(seed int64, genes, nt, nn int, density float64) (*bitmat.Matrix, *bitmat.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	mk := func(samples int) *bitmat.Matrix {
		m := bitmat.New(genes, samples)
		for g := 0; g < genes; g++ {
			for s := 0; s < samples; s++ {
				if rng.Float64() < density {
					m.Set(g, s)
				}
			}
		}
		return m
	}
	return mk(nt), mk(nn)
}

func TestFindBestMatchesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		hits   int
		scheme Scheme
	}{
		{2, SchemePair},
		{3, Scheme2x1},
		{4, Scheme2x2},
		{4, Scheme3x1},
		{4, Scheme1x3},
		{4, Scheme4x1},
	} {
		for seed := int64(0); seed < 4; seed++ {
			tumor, normal := randomPair(seed, 14, 40, 35, 0.35)
			want, err := ExhaustiveBest(tumor, normal, nil, tc.hits, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := FindBest(tumor, normal, nil, Options{
				Hits: tc.hits, Scheme: tc.scheme, Workers: 5, BlockSize: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("hits=%d scheme=%s seed=%d: parallel %+v != exhaustive %+v",
					tc.hits, tc.scheme, seed, got, want)
			}
		}
	}
}

func TestFindBestInvariantToWorkersAndBlocks(t *testing.T) {
	tumor, normal := randomPair(9, 16, 50, 45, 0.3)
	base, _, err := FindBest(tumor, normal, nil, Options{Hits: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		for _, bs := range []int{1, 16, 512} {
			for _, sch := range []Scheduler{EquiArea, EquiDistance} {
				got, _, err := FindBest(tumor, normal, nil, Options{
					Hits: 4, Workers: workers, BlockSize: bs, Scheduler: sch,
				})
				if err != nil {
					t.Fatal(err)
				}
				if got != base {
					t.Fatalf("workers=%d block=%d sched=%s: %+v != %+v",
						workers, bs, sch, got, base)
				}
			}
		}
	}
}

func TestSchemesAgreeOn4Hit(t *testing.T) {
	tumor, normal := randomPair(11, 18, 60, 50, 0.3)
	a, _, err := FindBest(tumor, normal, nil, Options{Hits: 4, Scheme: Scheme3x1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := FindBest(tumor, normal, nil, Options{Hits: 4, Scheme: Scheme2x2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("3x1 found %+v, 2x2 found %+v", a, b)
	}
}

func TestMemOptsDoNotChangeResults(t *testing.T) {
	tumor, normal := randomPair(13, 15, 45, 40, 0.35)
	var want reduce.Combo
	for i, opt := range []Options{
		{Hits: 3},
		{Hits: 3, MemOpt1: true},
		{Hits: 3, MemOpt1: true, MemOpt2: true},
		{Hits: 3, MemOpt2: true},
	} {
		got, _, err := FindBest(tumor, normal, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("MemOpt variant %d changed the result: %+v != %+v", i, got, want)
		}
	}
}

func TestEvaluatedCounts(t *testing.T) {
	// Every scheme must account for exactly C(G, h) combinations. With
	// pruning off, all of them are evaluated; with pruning on, the
	// Evaluated/Pruned split moves but the scanned total is conserved.
	tumor, normal := randomPair(17, 12, 30, 30, 0.4)
	for _, tc := range []struct {
		opt  Options
		want uint64
	}{
		{Options{Hits: 2}, 66},                     // C(12,2)
		{Options{Hits: 3}, 220},                    // C(12,3)
		{Options{Hits: 4, Scheme: Scheme3x1}, 495}, // C(12,4)
		{Options{Hits: 4, Scheme: Scheme2x2}, 495},
		{Options{Hits: 4, Scheme: Scheme1x3}, 495},
		{Options{Hits: 4, Scheme: Scheme4x1}, 495},
	} {
		opt := tc.opt
		opt.NoPrune = true
		_, n, err := FindBest(tumor, normal, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if n.Evaluated != tc.want || n.Pruned != 0 {
			t.Fatalf("%s NoPrune: evaluated %d (pruned %d), want %d evaluated",
				tc.opt.Scheme, n.Evaluated, n.Pruned, tc.want)
		}
		_, n, err = FindBest(tumor, normal, nil, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if n.Scanned() != tc.want {
			t.Fatalf("%s: scanned %d combinations (evaluated %d + pruned %d), want %d",
				tc.opt.Scheme, n.Scanned(), n.Evaluated, n.Pruned, tc.want)
		}
	}
}

func TestRunGreedySequenceMatchesManualGreedy(t *testing.T) {
	// Run's loop must equal a hand-rolled greedy using ExhaustiveBest with
	// explicit masking.
	tumor, normal := randomPair(19, 12, 35, 30, 0.4)
	res, err := Run(tumor, normal, Options{Hits: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	active := bitmat.AllOnes(tumor.Samples())
	buf := make([]uint64, tumor.Words())
	for step := 0; step < len(res.Steps); step++ {
		want, err := ExhaustiveBest(tumor, normal, active, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Steps[step].Combo; got != want {
			t.Fatalf("step %d: Run chose %+v, manual greedy %+v", step, got, want)
		}
		tumor.ComboVec(buf, want.GeneIDs()...)
		cov := bitmat.NewVec(tumor.Samples())
		copy(cov.Words(), buf)
		cov.And(active)
		if cov.PopCount() != res.Steps[step].NewlyCovered {
			t.Fatalf("step %d: covered %d, Run reported %d",
				step, cov.PopCount(), res.Steps[step].NewlyCovered)
		}
		active.AndNot(cov)
	}
	if active.PopCount() != res.Uncoverable {
		t.Fatalf("Run reported %d uncoverable, manual greedy leaves %d",
			res.Uncoverable, active.PopCount())
	}
}

func TestBitSpliceEquivalence(t *testing.T) {
	// Splicing covered samples out must choose the same combinations, with
	// the same F values, as masking them.
	for seed := int64(0); seed < 3; seed++ {
		tumor, normal := randomPair(100+seed, 14, 50, 40, 0.35)
		masked, err := Run(tumor, normal, Options{Hits: 3, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		spliced, err := Run(tumor, normal, Options{Hits: 3, Workers: 4, BitSplice: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(masked.Steps) != len(spliced.Steps) {
			t.Fatalf("seed %d: masked ran %d steps, spliced %d",
				seed, len(masked.Steps), len(spliced.Steps))
		}
		for i := range masked.Steps {
			if masked.Steps[i].Combo != spliced.Steps[i].Combo {
				t.Fatalf("seed %d step %d: masked %+v != spliced %+v",
					seed, i, masked.Steps[i].Combo, spliced.Steps[i].Combo)
			}
			if masked.Steps[i].NewlyCovered != spliced.Steps[i].NewlyCovered {
				t.Fatalf("seed %d step %d: cover counts differ", seed, i)
			}
		}
		if masked.Covered != spliced.Covered || masked.Uncoverable != spliced.Uncoverable {
			t.Fatalf("seed %d: totals differ", seed)
		}
	}
}

func TestRunDoesNotMutateInputs(t *testing.T) {
	tumor, normal := randomPair(23, 12, 40, 30, 0.35)
	tc, nc := tumor.Clone(), normal.Clone()
	for _, splice := range []bool{false, true} {
		if _, err := Run(tumor, normal, Options{Hits: 3, BitSplice: splice}); err != nil {
			t.Fatal(err)
		}
		if !tumor.Equal(tc) || !normal.Equal(nc) {
			t.Fatalf("Run(splice=%v) mutated its inputs", splice)
		}
	}
}

func TestRunCoversPlantedCohort(t *testing.T) {
	// On a planted synthetic cohort, the greedy cover should terminate
	// having covered nearly all tumor samples, and its first combination
	// should be a planted driver combination.
	spec := dataset.Spec{
		Code: "TST", Name: "test", Genes: 40, TumorSamples: 150, NormalSamples: 120,
		Hits: 4, PlantedCombos: 3, DriverMutProb: 0.98,
		TumorBackground: 0.01, NormalBackground: 0.002,
	}
	c, err := dataset.Generate(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c.Tumor, c.Normal, Options{Hits: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered < c.Nt()*9/10 {
		t.Fatalf("covered only %d of %d tumor samples", res.Covered, c.Nt())
	}
	firstIDs := res.Steps[0].Combo.GeneIDs()
	found := false
	for _, planted := range c.Planted {
		if len(planted) != len(firstIDs) {
			continue
		}
		same := true
		for i := range planted {
			if planted[i] != firstIDs[i] {
				same = false
				break
			}
		}
		if same {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("first combination %v is not a planted driver combo %v",
			firstIDs, c.Planted)
	}
}

func TestRunMaxIterations(t *testing.T) {
	tumor, normal := randomPair(29, 12, 60, 40, 0.5)
	res, err := Run(tumor, normal, Options{Hits: 2, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) > 2 {
		t.Fatalf("MaxIterations=2 but ran %d steps", len(res.Steps))
	}
}

func TestRunUncoverableSamples(t *testing.T) {
	// Samples with no mutations at all can never be covered; Run must
	// terminate and report them.
	tumor := bitmat.New(8, 10)
	normal := bitmat.New(8, 10)
	// Only samples 0-4 are coverable (mutated in genes 0,1).
	for s := 0; s < 5; s++ {
		tumor.Set(0, s)
		tumor.Set(1, s)
	}
	res, err := Run(tumor, normal, Options{Hits: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered != 5 {
		t.Fatalf("covered %d, want 5", res.Covered)
	}
	if res.Uncoverable != 5 {
		t.Fatalf("uncoverable %d, want 5", res.Uncoverable)
	}
}

func TestOptionsValidation(t *testing.T) {
	tumor, normal := randomPair(31, 10, 20, 20, 0.3)
	bad := []Options{
		{Hits: 1},
		{Hits: MaxHits + 1},
		{Hits: 5, Engine: EngineSparse}, // 4+1 has no sparse kernel
		{Hits: 3, Scheme: Scheme3x1},    // scheme serves 4 hits
		{Hits: 2, Alpha: -1},
		{Hits: 2, Workers: -1},
		{Hits: 2, BlockSize: -1},
	}
	for i, opt := range bad {
		if _, err := Run(tumor, normal, opt); err == nil {
			t.Errorf("case %d: Run accepted invalid options %+v", i, opt)
		}
		if _, _, err := FindBest(tumor, normal, nil, opt); err == nil {
			t.Errorf("case %d: FindBest accepted invalid options", i)
		}
	}
	// Scheme alone determines hits.
	if _, _, err := FindBest(tumor, normal, nil, Options{Scheme: Scheme2x1}); err != nil {
		t.Errorf("Scheme2x1 without Hits rejected: %v", err)
	}
}

func TestMismatchedGeneDimensions(t *testing.T) {
	tumor, _ := randomPair(37, 10, 20, 20, 0.3)
	_, normal := randomPair(37, 11, 20, 20, 0.3)
	if _, err := Run(tumor, normal, Options{Hits: 2}); err == nil {
		t.Fatal("Run accepted mismatched gene dimensions")
	}
	if _, _, err := FindBest(tumor, normal, nil, Options{Hits: 2}); err == nil {
		t.Fatal("FindBest accepted mismatched gene dimensions")
	}
}

func TestNoTumorSamples(t *testing.T) {
	tumor := bitmat.New(6, 0)
	normal := bitmat.New(6, 5)
	if _, err := Run(tumor, normal, Options{Hits: 2}); err == nil {
		t.Fatal("Run accepted an empty tumor cohort")
	}
}

func TestTooFewGenes(t *testing.T) {
	tumor := bitmat.New(3, 5)
	normal := bitmat.New(3, 5)
	if _, err := Run(tumor, normal, Options{Hits: 4}); err == nil {
		t.Fatal("Run accepted 3 genes for 4-hit discovery")
	}
}

func TestAlphaBias(t *testing.T) {
	// With α = 0 the score ignores TP entirely; a combination absent from
	// normals always wins regardless of tumor coverage. With a large α the
	// high-TP combination wins. This checks the penalty term is wired in.
	tumor := bitmat.New(4, 100)
	normal := bitmat.New(4, 100)
	// Combo (0,1): covers all 100 tumors but also 10 normals.
	for s := 0; s < 100; s++ {
		tumor.Set(0, s)
		tumor.Set(1, s)
	}
	for s := 0; s < 10; s++ {
		normal.Set(0, s)
		normal.Set(1, s)
	}
	// Combo (2,3): covers 5 tumors, no normals.
	for s := 0; s < 5; s++ {
		tumor.Set(2, s)
		tumor.Set(3, s)
	}
	highAlpha, _, err := FindBest(tumor, normal, nil, Options{Hits: 2, Alpha: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := highAlpha.GeneIDs(); got[0] != 0 || got[1] != 1 {
		t.Fatalf("α=10 chose %v, want [0 1]", got)
	}
	// With a small α the zero-false-positive combos win. (0,2) ties (2,3)
	// on TP=5, TN=100 and wins the lexicographic tie-break.
	lowAlpha, _, err := FindBest(tumor, normal, nil, Options{Hits: 2, Alpha: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if got := lowAlpha.GeneIDs(); got[0] != 0 || got[1] != 2 {
		t.Fatalf("α=0.001 chose %v, want [0 2]", got)
	}
	// The paper's α=0.1 on this construction: combo (0,1) scores
	// (0.1·100+90)/200 = 0.5; the TP=5/TN=100 combos score
	// (0.1·5+100)/200 = 0.5025 and beat it.
	paper, _, err := FindBest(tumor, normal, nil, Options{Hits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := paper.GeneIDs(); got[0] == 0 && got[1] == 1 {
		t.Fatalf("α=0.1 chose the noisy combo %v", got)
	}
}

// TestExhaustiveBest5 checks the sequential reference at h = 5.
func TestExhaustiveBest5(t *testing.T) {
	tumor, normal := randomPair(41, 9, 25, 20, 0.5)
	best, err := ExhaustiveBest(tumor, normal, nil, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if best.Genes[i] <= best.Genes[i-1] {
			t.Fatalf("5-hit genes not sorted: %v", best.Genes)
		}
	}
	if best.F < 0 {
		t.Fatal("no 5-hit combination scored")
	}
	if _, err := ExhaustiveBest(bitmat.New(4, 3), bitmat.New(4, 3), nil, 5, 0); err == nil {
		t.Fatal("ExhaustiveBest accepted 4 genes for h = 5")
	}
}

func TestSchemeString(t *testing.T) {
	for s, want := range map[Scheme]string{
		SchemeAuto: "auto", SchemePair: "pair", Scheme2x1: "2x1",
		Scheme2x2: "2x2", Scheme3x1: "3x1", Scheme(99): "Scheme(99)",
	} {
		if s.String() != want {
			t.Errorf("Scheme.String() = %q, want %q", s.String(), want)
		}
	}
	if EquiArea.String() != "EA" || EquiDistance.String() != "ED" {
		t.Error("Scheduler.String wrong")
	}
}

func TestAllFourHitSchemesAgree(t *testing.T) {
	// All four parallelization schemes of Sec. III-A — including the two
	// the paper rejects — must find the same best combination under any
	// partitioning.
	tumor, normal := randomPair(43, 16, 40, 35, 0.35)
	want, _, err := FindBest(tumor, normal, nil, Options{Hits: 4, Scheme: Scheme3x1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{Scheme2x2, Scheme1x3, Scheme4x1} {
		for _, workers := range []int{1, 3, 16} {
			got, n, err := FindBest(tumor, normal, nil, Options{
				Hits: 4, Scheme: scheme, Workers: workers, BlockSize: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s workers=%d: %+v != %+v", scheme, workers, got, want)
			}
			if n.Scanned() != 1820 { // C(16,4)
				t.Fatalf("%s scanned %d, want C(16,4)=1820", scheme, n.Scanned())
			}
		}
	}
}

func TestScheme1x3LimitedParallelism(t *testing.T) {
	// The 1x3 scheme exposes only G threads: with more workers than genes,
	// the trailing partitions are empty — exactly the paper's reason for
	// rejecting it. The result must still be correct.
	tumor, normal := randomPair(47, 10, 30, 25, 0.4)
	want, _, err := FindBest(tumor, normal, nil, Options{Hits: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := FindBest(tumor, normal, nil, Options{
		Hits: 4, Scheme: Scheme1x3, Workers: 64, // 64 workers, 10 threads
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("1x3 oversubscribed: %+v != %+v", got, want)
	}
}

// TestRun5MatchesExhaustive checks one 5-hit pass against the sequential
// reference.
func TestRun5MatchesExhaustive(t *testing.T) {
	tumor, normal := randomPair(53, 11, 30, 25, 0.45)
	want, err := ExhaustiveBest(tumor, normal, nil, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		got, n, err := FindBest(tumor, normal, nil, Options{Hits: 5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: 5-hit parallel %+v != exhaustive %+v", workers, got, want)
		}
		if n.Scanned() != 462 { // C(11,5)
			t.Fatalf("scanned %d combinations, want C(11,5)=462", n.Scanned())
		}
	}
}

// TestRun5GreedySequence replays a 5-hit greedy run against the
// sequential reference step by step.
func TestRun5GreedySequence(t *testing.T) {
	tumor, normal := randomPair(59, 11, 30, 25, 0.5)
	res, err := Run(tumor, normal, Options{Hits: 5, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Replay against the exhaustive reference with explicit masking.
	active := bitmat.AllOnes(tumor.Samples())
	buf := make([]uint64, tumor.Words())
	for step, s := range res.Steps {
		want, err := ExhaustiveBest(tumor, normal, active, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Combo != want {
			t.Fatalf("step %d: %+v != %+v", step, s.Combo, want)
		}
		tumor.ComboVec(buf, s.Combo.GeneIDs()...)
		cov := bitmat.NewVec(tumor.Samples())
		copy(cov.Words(), buf)
		cov.And(active)
		if cov.PopCount() != s.NewlyCovered {
			t.Fatalf("step %d: cover count mismatch", step)
		}
		active.AndNot(cov)
	}
	if active.PopCount() != res.Uncoverable {
		t.Fatalf("uncoverable mismatch: %d vs %d", active.PopCount(), res.Uncoverable)
	}
}

// TestRun5OnPlantedFiveHitCohort checks that a 5-hit run's first step is
// a planted 5-hit driver combination.
func TestRun5OnPlantedFiveHitCohort(t *testing.T) {
	spec := dataset.Spec{
		Code: "TST5", Name: "five-hit test", Genes: 20, TumorSamples: 80, NormalSamples: 60,
		Hits: 5, PlantedCombos: 2, DriverMutProb: 0.95,
		TumorBackground: 0.01, NormalBackground: 0.002,
	}
	c, err := dataset.Generate(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c.Tumor, c.Normal, Options{Hits: 5, MaxIterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no 5-hit combinations found")
	}
	// The first combination should be a planted 5-hit driver combination.
	first := res.Steps[0].Combo.GeneIDs()
	matched := false
	for _, planted := range c.Planted {
		if slices.Equal(planted, first) {
			matched = true
		}
	}
	if !matched {
		t.Fatalf("first 5-hit combination %v is not planted (%v)", first, c.Planted)
	}
}

// TestRun5Validation checks that a 5-hit run rejects bad inputs.
func TestRun5Validation(t *testing.T) {
	tumor, normal := randomPair(61, 4, 10, 10, 0.5)
	if _, err := Run(tumor, normal, Options{Hits: 5}); err == nil {
		t.Fatal("accepted 4 genes for 5-hit")
	}
	t6, _ := randomPair(61, 6, 10, 10, 0.5)
	_, n6 := randomPair(62, 7, 10, 10, 0.5)
	if _, err := Run(t6, n6, Options{Hits: 5}); err == nil {
		t.Fatal("accepted mismatched gene dimensions")
	}
	if _, err := Run(t6, t6.Clone(), Options{Hits: 5, Alpha: -1}); err == nil {
		t.Fatal("accepted negative alpha")
	}
}

func TestRunCtxCancellation(t *testing.T) {
	tumor, normal := randomPair(89, 14, 60, 50, 0.5)
	// A pre-cancelled context returns immediately with no steps.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunCtx(ctx, tumor, normal, Options{Hits: 3})
	if err == nil {
		t.Fatal("expected context error")
	}
	if len(res.Steps) != 0 {
		t.Fatalf("cancelled run produced %d steps", len(res.Steps))
	}
	// The partial result is checkpointable and resumable.
	cp := res.ToCheckpoint(tumor, normal)
	full, err := Resume(tumor, normal, Options{Hits: 3}, cp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(tumor, normal, Options{Hits: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Steps) != len(want.Steps) || full.Covered != want.Covered {
		t.Fatal("resume after cancellation diverges from a fresh run")
	}
}

func TestProgressCallback(t *testing.T) {
	tumor, normal := randomPair(91, 12, 40, 30, 0.45)
	var seen []Step
	res, err := Greedy(context.Background(), tumor, normal, Options{Hits: 3}, nil, Hooks{Commit: func(r *Result) error {
		seen = append(seen, r.Steps[len(r.Steps)-1])
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Steps) {
		t.Fatalf("commit saw %d steps, result has %d", len(seen), len(res.Steps))
	}
	for i := range seen {
		if seen[i].Combo != res.Steps[i].Combo {
			t.Fatalf("committed step %d differs from result", i)
		}
	}
}

// flipCtx is a context whose Err flips to context.Canceled after a fixed
// number of Err calls — a deterministic stand-in for "cancellation arrives
// mid-iteration". With Workers: 1 the Err call order is fixed: RunCtx's
// loop-top check, then the worker's per-partition claim checks and
// runKernel entry checks, strictly sequentially.
type flipCtx struct {
	context.Context
	calls *atomic.Int64
	after int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

func TestRunCtxCancellationMidIteration(t *testing.T) {
	// Cancellation lands during iteration 1 of a 4-hit run, after the
	// worker has completed exactly one of the four λ-partitions. RunCtx
	// must return within that partition — a partial Evaluated count, no
	// steps — rather than finishing the full enumeration pass.
	tumor, normal := randomPair(97, 30, 40, 35, 0.4)
	opt := Options{Hits: 4, Workers: 1}

	full, err := Run(tumor, normal, Options{Hits: 4, Workers: 1, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	fullPass := full.Steps[0].Evaluated + full.Steps[0].Pruned

	// Err calls 1–3 (RunCtx loop top, worker claim of partition 0,
	// runKernel entry) see nil; call 4 — the claim of partition 1 — sees
	// the cancellation.
	ctx := &flipCtx{Context: context.Background(), calls: &atomic.Int64{}, after: 3}
	res, err := RunCtx(ctx, tumor, normal, opt)
	if err != context.Canceled {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if len(res.Steps) != 0 {
		t.Fatalf("cancelled mid-iteration yet produced %d steps", len(res.Steps))
	}
	if res.Evaluated == 0 {
		t.Fatal("partition 0 completed before cancellation; its work must be counted")
	}
	if res.Evaluated+res.Pruned >= fullPass {
		t.Fatalf("cancelled run scanned %d of a %d-combination pass — cancellation did not stop within one partition",
			res.Evaluated+res.Pruned, fullPass)
	}
}

func TestUncoverableIsWhatTheLoopLeavesActive(t *testing.T) {
	// Uncoverable counts the samples still active when the best-F
	// combination covers none of them — not only samples with fewer than
	// h mutated genes. On this registry cohort most of them have h or
	// more mutated genes, yet no combination covering one can win a pass.
	const hits = 3
	spec := dataset.BRCA()
	spec.Hits = hits
	spec.Profiled = nil
	c, err := dataset.Generate(spec.Scaled(40), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c.Tumor, c.Normal, Options{Hits: hits, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	active := bitmat.AllOnes(c.Tumor.Samples())
	buf := make([]uint64, c.Tumor.Words())
	for _, s := range res.Steps {
		c.Tumor.ComboVec(buf, s.Combo.GeneIDs()...)
		active.AndNot(vecFromWords(c.Tumor.Samples(), buf))
	}
	if got := active.PopCount(); got != res.Uncoverable || got == 0 {
		t.Fatalf("%d samples left active, Uncoverable = %d; want equal and nonzero", got, res.Uncoverable)
	}
	best, _, err := FindBest(c.Tumor, c.Normal, active, Options{Hits: hits, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Tumor.ComboVec(buf, best.GeneIDs()...)
	cov := vecFromWords(c.Tumor.Samples(), buf)
	cov.And(active)
	if cov.PopCount() != 0 {
		t.Fatalf("the best-F combination %v still covers %d active samples", best, cov.PopCount())
	}
	var enough int
	for s := 0; s < c.Tumor.Samples(); s++ {
		if !active.Get(s) {
			continue
		}
		var genes int
		for g := 0; g < c.Tumor.Genes(); g++ {
			if c.Tumor.Get(g, s) {
				genes++
			}
		}
		if genes >= hits {
			enough++
		}
	}
	if enough == 0 {
		t.Fatalf("no uncoverable sample has %d+ mutated genes; the cohort no longer pins the wording", hits)
	}
	t.Logf("%d uncoverable samples, %d with ≥%d mutated genes", res.Uncoverable, enough, hits)
}
