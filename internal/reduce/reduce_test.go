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

// runningMax folds records in order with a running maximum, the reduction
// each cover worker runs over its threads' winners.
func runningMax(combos []Combo) Combo {
	best := None
	for _, c := range combos {
		if c.Better(best) {
			best = c
		}
	}
	return best
}

// tournament folds records by repeated pairwise halving, the topology a
// GPU's parallelReduceMax kernel runs.
func tournament(combos []Combo) Combo {
	buf := append([]Combo(nil), combos...)
	for len(buf) > 1 {
		var next []Combo
		for i := 0; i < len(buf); i += 2 {
			if i+1 < len(buf) && buf[i+1].Better(buf[i]) {
				next = append(next, buf[i+1])
			} else {
				next = append(next, buf[i])
			}
		}
		buf = next
	}
	if len(buf) == 0 {
		return None
	}
	return buf[0]
}

// TestMaxEmpty checks that None is the identity of the max reduction: the
// max of no records is None, and a None observed among real records never
// changes the winner, so a kernel may leave its pruned threads unobserved.
func TestMaxEmpty(t *testing.T) {
	if runningMax(nil) != None || tournament(nil) != None {
		t.Fatal("the max of no records should be None")
	}
	rng := rand.New(rand.NewSource(6))
	combos := append(randomCombos(rng, 200), NewCombo2(0, 0, 1), NewCombo5(0, 0, 1, 2, 3, 4))
	for _, c := range combos {
		if !c.Better(None) || None.Better(c) {
			t.Fatalf("%v and None are misordered", c)
		}
	}
	want := runningMax(combos)
	withNone := append([]Combo{None}, combos...)
	withNone = append(withNone, None)
	if got := runningMax(withNone); got != want {
		t.Fatalf("running max with None observations = %v, want %v", got, want)
	}
}

// TestAllTopologiesAgree is why the engine may reduce by running maximum:
// Better is a strict total order, so the order of the records and the
// shape of the reduction never change the winner.
func TestAllTopologiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(3000)
		combos := randomCombos(rng, n)
		want := runningMax(combos)
		if got := tournament(combos); got != want {
			t.Fatalf("tournament = %+v, want %+v", got, want)
		}
		shuffled := append([]Combo(nil), combos...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := runningMax(shuffled); got != want {
			t.Fatalf("shuffled running max = %+v, want %+v", got, want)
		}
		// Per-chunk winners (partitions), then across the chunks (rank 0).
		for _, chunk := range []int{1, 7, 512, n, n + 100} {
			var winners []Combo
			top := NewTopK(1)
			for lo := 0; lo < n; lo += chunk {
				part := shuffled[lo:min(lo+chunk, n)]
				winners = append(winners, runningMax(part))
				t1 := NewTopK(1)
				for _, c := range part {
					t1.Offer(c)
				}
				top.Merge(t1)
			}
			if got := tournament(winners); got != want {
				t.Fatalf("chunk %d: tournament of chunk winners = %+v, want %+v", chunk, got, want)
			}
			if got := top.Items(); len(got) != 1 || got[0] != want {
				t.Fatalf("chunk %d: merged TopK(1) = %v, want %+v", chunk, got, want)
			}
		}
	}
}
