package cover

import (
	"slices"

	"repro/internal/bitmat"
	"repro/internal/reduce"
)

// The seed probe (docs/PRUNING.md §3). A partition-local incumbent that
// starts at None prunes nothing until its own partition has scored a
// good combination, so partitions made of weak genes scan almost their
// whole domain. Before each pass the probe scores every h-combination of
// a few top genes and hands the best one to every partition as its
// starting incumbent. The probe is a pure function of the pass's inputs,
// so partition counts stay reproducible, and it scores through the same
// kernelEnv the kernels use, so the seed's F is a real F of the domain.

// seedGenes is the most genes the probe draws its combinations from.
const seedGenes = 24

// seedShare bounds the probe's cost against the pass it seeds: the probe
// scores at most C(G, h)/seedShare combinations. Those are not counted in
// Evaluated, which keeps Evaluated + Pruned = C(G, h) per pass.
const seedShare = 16

// seedSize returns how many top genes the probe uses for a pass over g
// genes at h hits: the largest m ≤ seedGenes with C(m, h) ≤ C(g, h)/seedShare,
// or 0 when not even m = h fits.
func seedSize(g, h int) int {
	limit, ok := domainSize(g, h)
	if ok {
		limit /= seedShare
	} else {
		limit = ^uint64(0)
	}
	m := min(seedGenes, g)
	for ; m >= h; m-- {
		if c, _ := domainSize(m, h); c <= limit {
			return m
		}
	}
	return 0
}

// seedIncumbent returns the pass's seed incumbent: the best h-combination
// among its top genes, or reduce.None when pruning is off, the scheme has
// no prefix to prune, or the domain is too small to probe.
func seedIncumbent(env *kernelEnv, opt Options) reduce.Combo {
	if opt.NoPrune || !opt.Scheme.prunable() {
		return reduce.None
	}
	genes := topGenes(env, seedSize(env.tumor.Genes(), opt.Hits))
	if genes == nil {
		return reduce.None
	}
	// The probe prunes against its own incumbent; it must not touch the
	// caller's.
	probe := *env
	probe.shared = reduce.NewSharedBest()
	s := newKernelScratch(env.tumor.Words(), env.normal.Words())
	return kernelSeed(&probe, genes, opt.Hits, s)
}

// topGenes picks m genes, ascending, by taking alternately from two
// rankings until m distinct genes are chosen: the (weighted) count of
// active tumor samples a gene is mutated in, and the gene's single-gene F.
// Both rankings break ties toward the lower gene id. It returns nil when
// m is 0.
func topGenes(env *kernelEnv, m int) []int {
	if m == 0 {
		return nil
	}
	g := env.tumor.Genes()
	aw := env.active.Words()
	tp := make([]int, g)
	byTP := make([]int, g)
	bySolo := make([]reduce.Combo, g)
	for i := range g {
		tp[i] = env.tpop2(aw, env.tumor.Row(i))
		byTP[i] = i
		bySolo[i] = reduce.NewCombo(env.score(tp[i], popWords(env.nw, env.normal.Row(i))), i)
	}
	slices.SortStableFunc(byTP, func(a, b int) int { return tp[b] - tp[a] })
	slices.SortFunc(bySolo, func(a, b reduce.Combo) int {
		if a.Better(b) {
			return -1
		}
		if b.Better(a) {
			return 1
		}
		return 0
	})

	chosen := make([]bool, g)
	out := make([]int, 0, m)
	for r := 0; len(out) < m; r++ {
		for _, c := range [2]int{byTP[r], int(bySolo[r].Genes[0])} {
			if len(out) < m && !chosen[c] {
				chosen[c] = true
				out = append(out, c)
			}
		}
	}
	slices.Sort(out)
	return out
}

// kernelSeed scores every hits-combination (3 or 4) of the ascending gene
// list and returns the best. It folds prefixes in gene order, while
// kernel3x1 folds its (j, k) pair first; the F values are bit-identical
// all the same, because AND commutes and the (weighted) counts that feed
// score are integers. It prunes against env.shared, which the caller
// owns.
func kernelSeed(env *kernelEnv, genes []int, hits int, s *kernelScratch) reduce.Combo {
	tm, nm := env.tumor, env.normal
	aw := env.active.Words()
	m := len(genes)
	best := reduce.None
	for a := 0; a <= m-hits; a++ {
		i := genes[a]
		if env.prune(env.tfold(s.t1, aw, tm.Row(i))) {
			continue
		}
		for b := a + 1; b <= m-hits+1; b++ {
			j := genes[b]
			if env.prune(env.tfold(s.t2, s.t1, tm.Row(j))) {
				continue
			}
			bitmat.AndWords(s.n2, nm.Row(i), nm.Row(j))
			for c := b + 1; c <= m-hits+2; c++ {
				k := genes[c]
				if hits == 3 {
					tp := env.tpop2(s.t2, tm.Row(k))
					nh := env.npop2(s.n2, nm.Row(k))
					if cb := reduce.NewCombo3(env.score(tp, nh), i, j, k); cb.Better(best) {
						best = cb
						env.offer(cb)
					}
					continue
				}
				if env.prune(env.tfold(s.t3, s.t2, tm.Row(k))) {
					continue
				}
				bitmat.AndWords(s.n3, s.n2, nm.Row(k))
				for d := c + 1; d < m; d++ {
					l := genes[d]
					tp := env.tpop2(s.t3, tm.Row(l))
					nh := env.npop2(s.n3, nm.Row(l))
					if cb := reduce.NewCombo4(env.score(tp, nh), i, j, k, l); cb.Better(best) {
						best = cb
						env.offer(cb)
					}
				}
			}
		}
	}
	return best
}
