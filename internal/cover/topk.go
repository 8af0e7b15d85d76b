package cover

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/reduce"
)

// FindTopK returns the k best h-hit combinations of one enumeration pass,
// best first — the exploratory companion to FindBest (researchers often
// want the leading candidates, not only the argmax the cover loop
// consumes). It enumerates the flat rank space of the combinatorial number
// system (combinat.Rank), partitioned evenly across workers, with a
// suffix-fold stack so advancing the fastest coordinate costs one
// AND+popcount per matrix. Exact for any K: unlike the per-thread kernels,
// every combination is offered to the accumulator. Supports h = 2–5.
func FindTopK(tumor, normal *bitmat.Matrix, active *bitmat.Vec, opt Options, k int) ([]reduce.Combo, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("cover: FindTopK needs k ≥ 1, got %d", k)
	}
	if tumor.Genes() != normal.Genes() {
		return nil, fmt.Errorf("cover: tumor has %d genes, normal has %d",
			tumor.Genes(), normal.Genes())
	}
	g := uint64(tumor.Genes())
	if g < uint64(opt.Hits) {
		return nil, fmt.Errorf("cover: %d genes cannot form %d-hit combinations", g, opt.Hits)
	}
	if active == nil {
		active = bitmat.AllOnes(tumor.Samples())
	}
	total, ok := combinat.Binomial(g, uint64(opt.Hits))
	if !ok {
		return nil, fmt.Errorf("cover: C(%d, %d) overflows uint64", g, opt.Hits)
	}
	workers := opt.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if uint64(workers) > total {
		workers = combinat.ToInt(total)
	}

	accs := make([]*reduce.TopK, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := total * uint64(w) / uint64(workers)
		hi := total * uint64(w+1) / uint64(workers)
		accs[w] = reduce.NewTopK(k)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(acc *reduce.TopK, lo, hi uint64) {
			defer wg.Done()
			topKRange(tumor, normal, active, opt, acc, lo, hi)
		}(accs[w], lo, hi)
	}
	wg.Wait()
	for _, acc := range accs[1:] {
		accs[0].Merge(acc)
	}
	out := make([]reduce.Combo, len(accs[0].Items()))
	copy(out, accs[0].Items())
	return out, nil
}

// topKRange walks ranks [lo, hi) in colexicographic order, maintaining
// tumor/normal suffix folds: suft[i] holds active ∧ rows(combo[i:]) so the
// fastest coordinate costs one AND+popcount per matrix, and a change at
// position j refolds only levels ≤ j.
func topKRange(tumor, normal *bitmat.Matrix, active *bitmat.Vec, opt Options, acc *reduce.TopK, lo, hi uint64) {
	h := opt.Hits
	g := uint64(tumor.Genes())
	denom := float64(tumor.Samples() + normal.Samples())
	nn := normal.Samples()

	combo64 := combinat.Unrank(lo, h)
	combo := make([]int, h)
	for i, c := range combo64 {
		combo[i] = combinat.ToInt(c)
	}

	suft := make([][]uint64, h+1)
	sufn := make([][]uint64, h+1)
	for i := 1; i <= h; i++ {
		suft[i] = make([]uint64, tumor.Words())
		sufn[i] = make([]uint64, normal.Words())
	}
	// suft[h] is the active mask; sufn[h] is all-ones (no mask on normals).
	copy(suft[h], active.Words())
	for w := range sufn[h] {
		sufn[h][w] = ^uint64(0)
	}
	// suft[i] = active ∧ rows(combo[i..h-1]); refold(j) rebuilds levels
	// j..1 after combo[j] changes.
	refold := func(from int) {
		for i := from; i >= 1; i-- {
			bitmat.AndWords(suft[i], suft[i+1], tumor.Row(combo[i]))
			bitmat.AndWords(sufn[i], sufn[i+1], normal.Row(combo[i]))
		}
	}
	// Fold everything above the fastest coordinate.
	refold(h - 1)

	for rank := lo; rank < hi; rank++ {
		tp := bitmat.PopAnd2(suft[1], tumor.Row(combo[0]))
		nh := bitmat.PopAnd2(sufn[1], normal.Row(combo[0]))
		f := (opt.Alpha*float64(tp) + float64(nn-nh)) / denom
		acc.Offer(reduce.NewCombo(f, combo...))

		// Advance in colex order: combo[0] fastest.
		combo[0]++
		if combo[0] == combo[1] {
			j := 1
			for ; j < h-1 && combo[j]+1 == combo[j+1]; j++ {
			}
			combo[j]++
			if j == h-1 && uint64(combo[j]) >= g {
				return // domain exhausted (rank == hi-1)
			}
			for i := 0; i < j; i++ {
				combo[i] = i
			}
			refold(j)
		}
	}
}
