package cover

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/dataset"
	"repro/internal/kernelize"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/sparsemat"
)

// perTripleDense3x1 is the 3x1 kernel without the (j, k) hoist: every
// thread folds active ∧ row(i) ∧ row(j) ∧ row(k) from scratch and prunes
// only at depth 3. It is the reference kernel3x1's group skip must agree
// with, thread for thread.
func perTripleDense3x1(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	tm, nm := env.tumor, env.normal
	g := tm.Genes()
	aw := env.active.Words()
	tbuf, nbuf := s.t2, s.n2
	var n Counts

	i, j, k := combinat.TripleCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		best := reduce.None
		bitmat.AndWords(tbuf, aw, tm.Row(i))
		bitmat.AndWords(tbuf, tbuf, tm.Row(j))
		tp3 := env.tfold(tbuf, tbuf, tm.Row(k))
		if env.prune(tp3) {
			n.Pruned += uint64(g - k - 1)
		} else {
			bitmat.AndWords(nbuf, nm.Row(i), nm.Row(j))
			bitmat.AndWords(nbuf, nbuf, nm.Row(k))
			for l := k + 1; l < g; l++ {
				tp := env.tpop2(tbuf, tm.Row(l))
				nh := env.npop2(nbuf, nm.Row(l))
				if c := reduce.NewCombo4(env.score(tp, nh), i, j, k, l); c.Better(best) {
					best = c
					env.offer(c)
				}
				n.Evaluated++
			}
		}
		observe(best)
		i++
		if i == j {
			i, j = 0, j+1
			if j == k {
				i, j, k = 0, 1, k+1
			}
		}
	}
	return n
}

// perTripleSparse3x1 is the sparse counterpart of perTripleDense3x1: each
// thread merges its (i, j) and then (i, j, k) prefix from the rows.
func perTripleSparse3x1(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	sp := env.sparse
	g := sp.t.Genes()
	var n Counts

	i, j, k := combinat.TripleCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		best := reduce.None
		tlist2, pruned := env.sparsePrefixT(s, s.st2, sp.tRows[i], sp.tRows[j])
		if !pruned {
			var tlist3 []int32
			tlist3, pruned = env.sparsePrefixNext(s, s.st3, tlist2, sp.tRows[k])
			if !pruned {
				nlist2 := sparsemat.IntersectInto(s.sn2, sp.nRows[i], sp.nRows[j])
				nlist3 := sparsemat.IntersectInto(s.sn3, nlist2, sp.nRows[k])
				for l := k + 1; l < g; l++ {
					tp := env.stpop(tlist3, sp.tRows[l])
					nh := env.snpop(nlist3, sp.nRows[l])
					if c := reduce.NewCombo4(env.score(tp, nh), i, j, k, l); c.Better(best) {
						best = c
						env.offer(c)
					}
					n.Evaluated++
				}
			}
		}
		if pruned {
			n.Pruned += uint64(g - k - 1)
		}
		observe(best)
		i++
		if i == j {
			i, j = 0, j+1
			if j == k {
				i, j, k = 0, 1, k+1
			}
		}
	}
	return n
}

// runPerTriple folds a reference kernel's per-thread observations through
// runKernel's block and tree reduction and returns the winner, the counts
// and the number of blocks flushed.
func runPerTriple(env *kernelEnv, opt Options, part sched.Partition, s *kernelScratch) (reduce.Combo, Counts, int) {
	var blocks []reduce.Combo
	blockBest := reduce.None
	inBlock := 0
	flush := func() {
		if inBlock > 0 {
			blocks = append(blocks, blockBest)
			blockBest = reduce.None
			inBlock = 0
		}
	}
	observe := func(c reduce.Combo) {
		if c.Better(blockBest) {
			blockBest = c
		}
		inBlock++
		if inBlock == opt.BlockSize {
			flush()
		}
	}
	var n Counts
	if env.sparse != nil {
		n = perTripleSparse3x1(env, part, s, observe)
	} else {
		n = perTripleDense3x1(env, part, s, observe)
	}
	flush()
	return reduce.TreeReduceInPlace(blocks), n, len(blocks)
}

// groupRanges returns λ-ranges over a C(g, 3) domain that start and end
// on, inside and across (j, k) groups, plus random ones.
func groupRanges(rng *rand.Rand, g int) []sched.Partition {
	d := combinat.TripleCount(uint64(g))
	out := []sched.Partition{{Lo: 0, Hi: d}}
	for len(out) < 12 {
		lambda := rng.Uint64() % d
		i, j, _ := combinat.TripleCoords(lambda)
		start := lambda - uint64(i) // the group's i == 0 thread
		end := start + uint64(j)
		out = append(out,
			sched.Partition{Lo: start, Hi: end},                     // one whole group
			sched.Partition{Lo: lambda, Hi: min(end+1, d)},          // mid-group into the next
			sched.Partition{Lo: start + 1, Hi: max(end-1, start+1)}, // strictly inside
		)
		lo, hi := rng.Uint64()%d, rng.Uint64()%d
		out = append(out, sched.Partition{Lo: min(lo, hi), Hi: max(lo, hi)})
	}
	return out
}

// TestPrune3x1GroupsMatchPerTripleReference checks the (j, k) group skip
// of kernel3x1 and sparse3x1 against per-triple reference kernels: on
// every λ-range, block size, instance, engine and starting incumbent the
// partition winner, its F bits, Evaluated, Pruned and the number of
// reduction blocks are identical. A group skip that over- or under-credits
// Pruned, or that moves a block boundary, fails here.
func TestPrune3x1GroupsMatchPerTripleReference(t *testing.T) {
	type instance struct {
		name          string
		tumor, normal *bitmat.Matrix
		tw, nw        *bitmat.Weights
		active        *bitmat.Vec
		denom         float64
	}
	var cases []instance
	weighted := false
	for _, c := range []struct {
		name string
		co   *dataset.Cohort
	}{
		{"BRCA", pruneCohort(t, dataset.BRCA(), 24, 7)},
		{"LGG", pruneCohort(t, dataset.LGG(), 22, 11)},
		{"ACC", pruneCohort(t, dataset.ACC(), 22, 19)},
	} {
		denom := float64(c.co.Tumor.Samples() + c.co.Normal.Samples())
		masked := partialActive(c.co.Tumor.Samples())
		cases = append(cases,
			instance{c.name + "/plain", c.co.Tumor, c.co.Normal, nil, nil, bitmat.AllOnes(c.co.Tumor.Samples()), denom},
			instance{c.name + "/masked", c.co.Tumor, c.co.Normal, nil, nil, masked, denom})
		kern, err := kernelize.Reduce(c.co.Tumor, c.co.Normal, 4)
		if err != nil {
			t.Fatal(err)
		}
		if kern.Tumor.Genes() >= 4 {
			weighted = weighted || kern.TumorWeights != nil
			cases = append(cases, instance{c.name + "/kernel", kern.Tumor, kern.Normal,
				kern.TumorWeights, kern.NormalWeights, kern.MapActive(masked), denom})
		}
	}

	if !weighted {
		t.Fatal("no cohort kernelized to a weighted instance; the weighted kernels are not exercised")
	}

	rng := rand.New(rand.NewSource(15))
	groupSkips := 0
	for _, in := range cases {
		g := in.tumor.Genes()
		ranges := groupRanges(rng, g)
		for _, engine := range []Engine{EngineDense, EngineSparse} {
			env := newKernelEnv(in.tumor, in.normal, in.active, in.tw, in.nw, DefaultAlpha, in.denom)
			s := newKernelScratch(in.tumor.Words(), in.normal.Words())
			if engine == EngineSparse {
				env.sparse = newSparseEnv(in.tumor, in.normal, in.active, in.tw, in.nw)
				s.ensureSparse(env.sparse)
			}
			base := Options{Hits: 4, Scheme: Scheme3x1}
			for _, seed := range []reduce.Combo{reduce.None, seedIncumbent(env, base)} {
				for _, bs := range []int{1, 7, DefaultBlockSize} {
					opt := base
					opt.BlockSize = bs
					for _, part := range ranges {
						name := fmt.Sprintf("%s %s seeded=%v block=%d [%d,%d)",
							in.name, engine, seed != reduce.None, bs, part.Lo, part.Hi)
						ref := *env
						ref.shared = incumbent(opt, seed)
						want, wantN, wantBlocks := runPerTriple(&ref, opt, part, s)
						got := *env
						got.shared = incumbent(opt, seed)
						gotBest, gotN := runKernel(context.Background(), &got, opt, part, s)
						if gotBest != want || math.Float64bits(gotBest.F) != math.Float64bits(want.F) {
							t.Fatalf("%s: winner %v, per-triple reference %v", name, gotBest, want)
						}
						if gotN != wantN {
							t.Fatalf("%s: counts %+v, per-triple reference %+v", name, gotN, wantN)
						}
						if len(s.blockBests) != wantBlocks {
							t.Fatalf("%s: %d reduction blocks, per-triple reference %d", name, len(s.blockBests), wantBlocks)
						}
						if gotN.Evaluated+gotN.Pruned != tripleSubtrees(g, part) {
							t.Fatalf("%s: scanned %d, want %d", name, gotN.Evaluated+gotN.Pruned, tripleSubtrees(g, part))
						}
						if seed != reduce.None {
							groupSkips += dominatedGroups(env, opt, seed, part)
						}
					}
				}
			}
		}
	}
	if groupSkips == 0 {
		t.Fatal("no (j, k) group was dominated by a seed: the group skip was never exercised")
	}
}

// tripleSubtrees is the number of 4-combinations under the 3x1 threads of
// part: the sum of g−k−1 over its (i, j, k).
func tripleSubtrees(g int, part sched.Partition) uint64 {
	var n uint64
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		_, _, k := combinat.TripleCoords(lambda)
		n += uint64(g - k - 1)
	}
	return n
}

// dominatedGroups counts the (j, k) groups of part whose prefix the seed
// alone already dominates — groups the kernels must skip at entry.
func dominatedGroups(env *kernelEnv, opt Options, seed reduce.Combo, part sched.Partition) int {
	probe := *env
	probe.shared = incumbent(opt, seed)
	buf := make([]uint64, env.tumor.Words())
	n := 0
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		i, j, k := combinat.TripleCoords(lambda)
		if i != 0 && lambda != part.Lo {
			continue
		}
		bitmat.AndWords(buf, env.active.Words(), env.tumor.Row(k))
		if probe.prune(probe.tfold(buf, buf, env.tumor.Row(j))) {
			n++
		}
	}
	return n
}
