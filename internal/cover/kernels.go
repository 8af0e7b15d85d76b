package cover

import (
	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// The kernels below are the Go counterparts of the paper's CUDA maxF
// kernels. Each is handed a contiguous λ-range (one worker's partition),
// decodes the starting coordinates once with the combinat maps, and then
// advances coordinates incrementally — the same traversal order a GPU
// thread grid realizes, at sequential-scan cost. observe() is called with
// a thread's best combination over its inner loop(s), and the caller keeps
// the running maximum of what it observes. A pruned thread's best is
// reduce.None, which never wins, so a kernel that skips a run of threads
// whole observes nothing for them.
//
// Bound-and-prune (docs/PRUNING.md): when env.shared carries an incumbent,
// each kernel computes the tumor popcount of its pre-folded prefix and
// asks whether the prefix's upper bound — the score the suffix would reach
// if it lost no tumor sample and hit no normal sample — still falls
// strictly below the incumbent's F. If so the remaining nested loop(s)
// are skipped and their combination count lands in Counts.Pruned, so
// Evaluated + Pruned always equals the partition's full enumeration size.
// The upper bound is computed by the same env.score the full evaluation
// uses, so float rounding cannot break its monotonicity.

// kernelScratch is one worker's reusable buffer space. The kernels
// previously allocated their fold buffers per partition call, which a
// multi-iteration Run multiplies into O(partitions × iterations)
// allocations; each worker now allocates one scratch for its lifetime.
type kernelScratch struct {
	// t2/t3 hold depth-2/depth-3 tumor prefix folds; n2/n3 the
	// normal-side ones. t1 and t4/n4 are the seed probe's depth-1 and
	// depth-4 folds.
	t1, t2, t3, t4 []uint64
	n2, n3, n4     []uint64
	// st2/st3 and sn2/sn3 are the sparse engine's prefix index lists
	// (depth-2/3 tumor and normal merges). They stay nil on dense passes
	// and are sized by ensureSparse at worker setup.
	st2, st3 []int32
	sn2, sn3 []int32
	// spBoundKey/spTPStar memoize sparseMinTP's threshold: the smallest
	// surviving tumor count only changes when the shared bound rises, so
	// each worker re-solves it on a bound change and otherwise answers
	// prefix prune queries with one atomic load and one compare.
	spBoundKey uint64
	spTPStar   int
	spBoundOK  bool
}

// newKernelScratch sizes the buffers for the given matrices.
func newKernelScratch(tumorWords, normalWords int) *kernelScratch {
	return &kernelScratch{
		t1: make([]uint64, tumorWords),
		t2: make([]uint64, tumorWords),
		t3: make([]uint64, tumorWords),
		t4: make([]uint64, tumorWords),
		n2: make([]uint64, normalWords),
		n3: make([]uint64, normalWords),
		n4: make([]uint64, normalWords),
	}
}

// kernelPair scores one 2-hit combination per thread. There is no inner
// loop to skip, so the pair kernel never prunes.
func kernelPair(env *kernelEnv, part sched.Partition, observe func(reduce.Combo)) uint64 {
	tm, nm := env.tumor, env.normal
	aw := env.active.Words()
	i, j := combinat.PairCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		tp := env.tpop3(aw, tm.Row(i), tm.Row(j))
		nh := env.npop2(nm.Row(i), nm.Row(j))
		observe(reduce.NewCombo2(env.score(tp, nh), i, j))
		i++
		if i == j {
			i, j = 0, j+1
		}
	}
	return part.Size()
}

// kernel2x1 is the 3-hit kernel (Algorithm 1): thread (i, j) loops over
// k = j+1 … G−1, fetching rows i, j and k from the matrix on every k. It
// checks the (i, j) prefix bound before entering the k loop, which costs
// one extra popcount sweep per thread.
func kernel2x1(env *kernelEnv, part sched.Partition, observe func(reduce.Combo)) Counts {
	tm, nm := env.tumor, env.normal
	g := tm.Genes()
	aw := env.active.Words()
	var n Counts

	i, j := combinat.PairCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		best := reduce.None
		if env.prune3(aw, tm.Row(i), tm.Row(j)) {
			n.Pruned += uint64(g - j - 1)
		} else {
			for k := j + 1; k < g; k++ {
				tp := env.tpop4(aw, tm.Row(i), tm.Row(j), tm.Row(k))
				nh := env.npop3(nm.Row(i), nm.Row(j), nm.Row(k))
				if c := reduce.NewCombo3(env.score(tp, nh), i, j, k); c.Better(best) {
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
		}
	}
	return n
}

// kernel3x1 is the 4-hit kernel of Algorithm 3: thread (i, j, k) runs one
// inner loop over l = k+1 … G−1 against its pre-folded rows. Threads run i
// fastest, so consecutive threads sharing (j, k) form a group of up to j
// threads (fewer where the partition cuts it). The group folds
// active ∧ row(k) ∧ row(j) once on entry, and each thread adds only
// row(i) to it. Pruning checks both levels: a dominated (j, k) prefix
// dominates every thread left in the group — tp(i, j, k) ≤ tp(j, k) and
// the incumbent only rises — so the group is skipped whole, crediting
// run·(g−k−1) to Pruned; a dominated (i, j, k) prefix skips the thread's
// normal fold and l loop.
func kernel3x1(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	tm, nm := env.tumor, env.normal
	g := tm.Genes()
	aw := env.active.Words()
	tjk, njk := s.t2, s.n2
	tbuf, nbuf := s.t3, s.n3
	var n Counts

	i, j, k := combinat.TripleCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; {
		run := min(uint64(j-i), part.Hi-lambda)
		lambda += run
		bitmat.AndWords(tjk, aw, tm.Row(k))
		if env.prune(env.tfold(tjk, tjk, tm.Row(j))) {
			n.Pruned += run * uint64(g-k-1)
		} else {
			// The normal-side (j, k) fold waits for the group's first
			// surviving thread: a group whose threads all prune never
			// needs it.
			nFolded := false
			for end := i + combinat.ToInt(run); i < end; i++ {
				best := reduce.None
				if env.prune(env.tfold(tbuf, tjk, tm.Row(i))) {
					n.Pruned += uint64(g - k - 1)
					continue
				}
				if !nFolded {
					bitmat.AndWords(njk, nm.Row(j), nm.Row(k))
					nFolded = true
				}
				bitmat.AndWords(nbuf, njk, nm.Row(i))
				for l := k + 1; l < g; l++ {
					tp := env.tpop2(tbuf, tm.Row(l))
					nh := env.npop2(nbuf, nm.Row(l))
					if c := reduce.NewCombo4(env.score(tp, nh), i, j, k, l); c.Better(best) {
						best = c
						env.offer(c)
					}
					n.Evaluated++
				}
				observe(best)
			}
		}
		i, j = 0, j+1
		if j == k {
			j, k = 1, k+1
		}
	}
	return n
}

// kernel4p1 is the 5-hit kernel, kernel3x1 one dimension up: thread
// (i, j, k, l) runs one inner loop over m = l+1 … G−1. Threads run i
// fastest, so consecutive threads sharing (j, k, l) form a group that
// folds active ∧ row(l) ∧ row(k) ∧ row(j) once, and each thread adds only
// row(i). Pruning checks both levels, as in kernel3x1: a dominated
// (j, k, l) prefix skips the rest of the group, a dominated (i, j, k, l)
// prefix skips the thread's normal fold and m loop.
func kernel4p1(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	tm, nm := env.tumor, env.normal
	g := tm.Genes()
	aw := env.active.Words()
	tjkl, njkl := s.t2, s.n2
	tbuf, nbuf := s.t3, s.n3
	var n Counts

	i, j, k, l := combinat.QuadCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; {
		run := min(uint64(j-i), part.Hi-lambda)
		lambda += run
		bitmat.AndWords(tjkl, aw, tm.Row(l))
		bitmat.AndWords(tjkl, tjkl, tm.Row(k))
		if env.prune(env.tfold(tjkl, tjkl, tm.Row(j))) {
			n.Pruned += run * uint64(g-l-1)
		} else {
			nFolded := false
			for end := i + combinat.ToInt(run); i < end; i++ {
				best := reduce.None
				if env.prune(env.tfold(tbuf, tjkl, tm.Row(i))) {
					n.Pruned += uint64(g - l - 1)
					continue
				}
				if !nFolded {
					bitmat.AndWords(njkl, nm.Row(j), nm.Row(k))
					bitmat.AndWords(njkl, njkl, nm.Row(l))
					nFolded = true
				}
				bitmat.AndWords(nbuf, njkl, nm.Row(i))
				for m := l + 1; m < g; m++ {
					tp := env.tpop2(tbuf, tm.Row(m))
					nh := env.npop2(nbuf, nm.Row(m))
					if c := reduce.NewCombo5(env.score(tp, nh), i, j, k, l, m); c.Better(best) {
						best = c
						env.offer(c)
					}
					n.Evaluated++
				}
				observe(best)
			}
		}
		i, j = 0, j+1
		if j == k {
			j, k = 1, k+1
			if k == l {
				k, l = 2, l+1
			}
		}
	}
	return n
}
