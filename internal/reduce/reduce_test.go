package reduce

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCombos(rng *rand.Rand, n int) []Combo {
	out := make([]Combo, n)
	for i := range out {
		g := rng.Perm(1000)[:4]
		// Sort the four ids.
		for a := 1; a < 4; a++ {
			for b := a; b > 0 && g[b] < g[b-1]; b-- {
				g[b], g[b-1] = g[b-1], g[b]
			}
		}
		// Coarse quantization forces plenty of F ties.
		f := float64(rng.Intn(50)) / 50
		out[i] = NewCombo(f, g...)
	}
	return out
}

func TestNewComboValidation(t *testing.T) {
	c := NewCombo(0.5, 3, 7)
	if c.Hits() != 2 || c.Genes[2] != -1 {
		t.Fatal("2-gene combo malformed")
	}
	if ids := c.GeneIDs(); len(ids) != 2 || ids[0] != 3 || ids[1] != 7 {
		t.Fatalf("GeneIDs = %v", ids)
	}
	if c5 := NewCombo(0.5, 1, 2, 3, 4, 5); c5 != NewCombo5(0.5, 1, 2, 3, 4, 5) || c5.Hits() != MaxHits {
		t.Fatalf("5-gene combo malformed: %v", c5)
	}
	for i, fn := range []func(){
		func() { NewCombo(0.5) },
		func() { NewCombo(0.5, 1, 2, 3, 4, 5, 6) }, // more than MaxHits
		func() { NewCombo5(0.5, 1, 2, 3, 5, 4) },
		func() { NewCombo(0.5, 2, 2) },
		func() { NewCombo(0.5, 5, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestBetterOrdering(t *testing.T) {
	a := NewCombo(0.9, 1, 2, 3, 4)
	b := NewCombo(0.8, 0, 1, 2, 3)
	if !a.Better(b) || b.Better(a) {
		t.Fatal("higher F must win")
	}
	// Equal F: lexicographically smaller genes win.
	c := NewCombo(0.9, 1, 2, 3, 5)
	if !a.Better(c) || c.Better(a) {
		t.Fatal("tie must break to smaller gene tuple")
	}
	// Everything beats None; None never beats anything.
	if !a.Better(None) || None.Better(a) {
		t.Fatal("None ordering wrong")
	}
	if a.Better(a) {
		t.Fatal("a combo must not beat itself")
	}
	// Shorter combos: a 2-hit combo with equal F and equal prefix loses to
	// a 3-hit with smaller... the real gene beats the -1 filler.
	short := NewCombo(0.9, 1, 2)
	long := NewCombo(0.9, 1, 2, 3)
	if !long.Better(short) || short.Better(long) {
		t.Fatal("longer combo with equal prefix should win over filler")
	}
}

func TestBetterIsStrictTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := randomCombos(rng, 3)
		a, b, c := cs[0], cs[1], cs[2]
		// Antisymmetry.
		if a.Better(b) && b.Better(a) {
			return false
		}
		// Transitivity.
		if a.Better(b) && b.Better(c) && !a.Better(c) && a != c {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMaxEmpty(t *testing.T) {
	if Max(nil) != None {
		t.Fatal("Max of empty slice should be None")
	}
}

func TestAllTopologiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		combos := randomCombos(rng, n)
		want := Max(combos)
		if got := TreeReduce(combos); got != want {
			t.Fatalf("TreeReduce = %+v, want %+v", got, want)
		}
		for _, bs := range []int{1, 7, 512, n, n + 100} {
			blocks := BlockReduce(combos, bs)
			if got := Max(blocks); got != want {
				t.Fatalf("BlockReduce(%d)+Max = %+v, want %+v", bs, got, want)
			}
			if got := TreeReduce(blocks); got != want {
				t.Fatalf("BlockReduce(%d)+TreeReduce = %+v, want %+v", bs, got, want)
			}
		}
	}
}

func TestBlockReduceCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	combos := randomCombos(rng, 1100)
	out := BlockReduce(combos, 512)
	if len(out) != 3 { // ceil(1100/512)
		t.Fatalf("BlockReduce produced %d blocks, want 3", len(out))
	}
	if BlockReduce(nil, 512) != nil {
		t.Fatal("BlockReduce of empty input should be nil")
	}
}

func TestBlockReducePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BlockReduce with block size 0 did not panic")
		}
	}()
	BlockReduce(randomCombos(rand.New(rand.NewSource(5)), 4), 0)
}

func TestPlanStagesPaperNumbers(t *testing.T) {
	// BRCA, Sec. III-E: one record per 3x1 thread is a list of
	// C(19411, 3) ≈ 1.22e12 entries = 24.34 TB at 20 bytes each; the
	// in-block reduction at block size 512 compresses it to 47.5 GB.
	var threads uint64 = 19411 * 19410 / 2 * 19409 / 3 // C(19411,3)
	if threads < 1.21e12 || threads > 1.23e12 {
		t.Fatalf("thread count %d outside the paper's 1.22e12", threads)
	}
	s := PlanStages(threads, 512, 6000, 1000)
	if tb := float64(Bytes(s.Combinations)) / 1e12; tb < 24.0 || tb > 24.7 {
		t.Fatalf("pre-reduction list = %.2f TB, paper says 24.34 TB", tb)
	}
	if gb := float64(Bytes(s.AfterBlock)) / 1e9; gb < 47.0 || gb > 48.0 {
		t.Fatalf("block-survivor list = %.2f GB, paper says 47.5 GB", gb)
	}
	if s.AfterDevice != 6000 || s.AfterRank != 1000 {
		t.Fatal("device/rank survivor counts wrong")
	}
	if Bytes(s.AfterRank) != 20000 {
		t.Fatal("rank-0 receives 20 bytes per rank")
	}
}

func TestPlanStagesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PlanStages with zero ranks did not panic")
		}
	}()
	PlanStages(100, 512, 6, 0)
}

func BenchmarkMax100k(b *testing.B) {
	combos := randomCombos(rand.New(rand.NewSource(6)), 100000)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		Max(combos)
	}
}

func BenchmarkBlockThenTree100k(b *testing.B) {
	combos := randomCombos(rand.New(rand.NewSource(7)), 100000)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		TreeReduce(BlockReduce(combos, 512))
	}
}
