package cover

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/reduce"
)

// ExhaustiveBest enumerates every h-hit combination in lexicographic order,
// one row fold per gene, and returns the best-scoring one under the same
// deterministic order the parallel engine uses. It is the sequential reference implementation
// (Sec. II-B as originally run on a single CPU): O(G^h), intended for
// differential testing and tiny problems. Supports h = 2…MaxHits. The
// active vector selects the tumor samples counting toward TP; nil means
// all.
func ExhaustiveBest(tumor, normal *bitmat.Matrix, active *bitmat.Vec, hits int, alpha float64) (reduce.Combo, error) {
	if hits < 2 || hits > MaxHits {
		return reduce.None, fmt.Errorf("cover: ExhaustiveBest supports 2-%d hits, got %d", MaxHits, hits)
	}
	if tumor.Genes() != normal.Genes() {
		return reduce.None, fmt.Errorf("cover: tumor has %d genes, normal has %d",
			tumor.Genes(), normal.Genes())
	}
	if tumor.Genes() < hits {
		return reduce.None, fmt.Errorf("cover: %d genes cannot form %d-hit combinations", tumor.Genes(), hits)
	}
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if active == nil {
		active = bitmat.AllOnes(tumor.Samples())
	}
	env := &kernelEnv{
		tumor:  tumor,
		normal: normal,
		active: active,
		alpha:  alpha,
		denom:  float64(tumor.Samples() + normal.Samples()),
		nn:     normal.Samples(),
	}
	g := tumor.Genes()
	// tfold[d] is active ∧ the tumor rows of pick[:d]; nfold[d] the normal
	// rows of pick[:d] ANDed, with nfold[0] all ones.
	tfold := foldBuffers(active.Words(), hits-1)
	nfold := foldBuffers(bitmat.AllOnes(normal.Samples()).Words(), hits-1)
	pick := make([]int, hits)
	best := reduce.None
	var walk func(d, from int)
	walk = func(d, from int) {
		for i := from; i <= g-(hits-d); i++ {
			pick[d] = i
			if d+1 < hits {
				bitmat.AndWords(tfold[d+1], tfold[d], tumor.Row(i))
				bitmat.AndWords(nfold[d+1], nfold[d], normal.Row(i))
				walk(d+1, i+1)
				continue
			}
			tp := bitmat.PopAnd2(tfold[d], tumor.Row(i))
			nh := bitmat.PopAnd2(nfold[d], normal.Row(i))
			if c := reduce.NewCombo(env.score(tp, nh), pick...); c.Better(best) {
				best = c
			}
		}
	}
	walk(0, 0)
	return best, nil
}
