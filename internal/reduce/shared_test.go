package reduce

import (
	"math/rand"
	"sync"
	"testing"
)

func TestSortKeyPreservesOrder(t *testing.T) {
	// Every score the engine produces is finite; None's sentinel is -1.
	vals := []float64{-1, -0.5, -0.0001, 0, 0.0001, 0.1, 0.5, 0.999, 1, 2}
	for i := 1; i < len(vals); i++ {
		if sortKey(vals[i-1]) >= sortKey(vals[i]) {
			t.Fatalf("sortKey(%g) = %#x not below sortKey(%g) = %#x",
				vals[i-1], sortKey(vals[i-1]), vals[i], sortKey(vals[i]))
		}
	}
	if sortKey(0) != sortKey(-0.0) {
		t.Fatal("±0 must share one key")
	}
}

func TestSharedBestStartsAtNone(t *testing.T) {
	s := NewSharedBest()
	if s.Best() != None {
		t.Fatalf("fresh incumbent is %v, want None", s.Best())
	}
	// No valid score (F ∈ [0, 1]) is strictly below None's -1, so a fresh
	// incumbent never prunes.
	for _, ub := range []float64{0, 0.5, 1} {
		if s.ShouldPrune(ub) {
			t.Fatalf("fresh incumbent prunes ub=%g", ub)
		}
	}
}

func TestSharedBestPruneIsStrict(t *testing.T) {
	s := NewSharedBest()
	s.Offer(NewCombo2(0.5, 3, 7))
	if !s.ShouldPrune(0.4999) {
		t.Error("ub strictly below the incumbent must prune")
	}
	if s.ShouldPrune(0.5) {
		t.Error("ub equal to the incumbent must NOT prune (tie-break)")
	}
	if s.ShouldPrune(0.6) {
		t.Error("ub above the incumbent must not prune")
	}
}

func TestSharedBestMonotoneAndTieBreak(t *testing.T) {
	s := NewSharedBest()
	hi := NewCombo2(0.7, 5, 9)
	s.Offer(hi)
	s.Offer(NewCombo2(0.3, 0, 1)) // worse F: ignored
	if got := s.Best(); got != hi {
		t.Fatalf("worse offer displaced incumbent: %v", got)
	}
	// Equal F, lexicographically smaller genes: Better prefers it, so the
	// incumbent must move however the offers are ordered.
	lo := NewCombo2(0.7, 2, 3)
	s.Offer(lo)
	want := lo
	if hi.Better(lo) {
		want = hi
	}
	if got := s.Best(); got != want {
		t.Fatalf("tie-break kept %v, want %v", got, want)
	}
	s2 := NewSharedBest()
	s2.Offer(lo)
	s2.Offer(hi)
	if s2.Best() != s.Best() {
		t.Fatalf("offer order changed the incumbent: %v vs %v", s2.Best(), s.Best())
	}
}

func TestSharedBestConcurrentOffersReduceToMax(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 4000
	combos := make([]Combo, n)
	for i := range combos {
		a := rng.Intn(500)
		combos[i] = NewCombo2(float64(rng.Intn(64))/64, a, a+1+rng.Intn(100))
	}
	want := runningMax(combos)

	s := NewSharedBest()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				s.Offer(combos[i])
				// A reader must never observe an incumbent whose bound
				// would prune the incumbent itself.
				if s.ShouldPrune(s.Best().F) {
					t.Errorf("incumbent strictly dominates itself")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Best(); got != want {
		t.Fatalf("concurrent fold got %v, want %v", got, want)
	}
	if s.ShouldPrune(want.F) || !s.ShouldPrune(want.F-0.001) {
		t.Fatal("final bound inconsistent with winner")
	}
}
