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
// thread grid realizes, at sequential-scan cost. observe() is called once
// per thread with the thread's best combination over its inner loop(s);
// the caller folds those through block and tree reduction. A kernel that
// skips a run of threads whole reports them with skip(n), which stands for
// n observations of reduce.None.
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
	// t1 holds the hoisted active ∧ row(i) fold of the 1x3 kernel; t2/t3
	// hold depth-2/depth-3 tumor prefix folds; n2/n3 the normal-side ones.
	t1, t2, t3 []uint64
	n2, n3     []uint64
	// st1/st2/st3 and sn2/sn3 are the sparse engine's prefix index lists
	// (tumor depth-1/2/3 and normal depth-2/3 merges). They stay nil on
	// dense passes and are sized by ensureSparse at worker setup.
	st1, st2, st3 []int32
	sn2, sn3      []int32
	// spBoundKey/spTPStar memoize sparseMinTP's threshold: the smallest
	// surviving tumor count only changes when the shared bound rises, so
	// each worker re-solves it on a bound change and otherwise answers
	// prefix prune queries with one atomic load and one compare.
	spBoundKey uint64
	spTPStar   int
	spBoundOK  bool
	// blockBests is runKernel's reusable block-reduction output.
	blockBests []reduce.Combo
}

// newKernelScratch sizes the buffers for the given matrices.
func newKernelScratch(tumorWords, normalWords int) *kernelScratch {
	return &kernelScratch{
		t1: make([]uint64, tumorWords),
		t2: make([]uint64, tumorWords),
		t3: make([]uint64, tumorWords),
		n2: make([]uint64, normalWords),
		n3: make([]uint64, normalWords),
	}
}

// choose2 returns C(n, 2) for the pruned-combination accounting.
func choose2(n int) uint64 {
	if n < 2 {
		return 0
	}
	return uint64(n) * uint64(n-1) / 2
}

// choose3 returns C(n, 3).
func choose3(n int) uint64 {
	if n < 3 {
		return 0
	}
	return uint64(n) * uint64(n-1) / 2 * uint64(n-2) / 3
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
// k = j+1 … G−1. The MemOpt flags control how much of the thread-invariant
// state is hoisted out of the inner loop, reproducing the Fig. 5 ablation:
//
//	no opts:  rows i, j and k are fetched from the matrix on every k;
//	MemOpt1:  the rows for gene i are fetched once per thread;
//	MemOpt2:  the rows for genes i and j are fetched once per thread and
//	          pre-folded (together with the active mask) into one buffer,
//	          halving the word traffic of the inner loop.
//
// Every variant checks the (i, j) prefix bound before entering the k loop;
// under MemOpt2 the prefix popcount falls out of the fold for free, the
// unfolded variants pay one extra popcount sweep per thread.
func kernel2x1(env *kernelEnv, opt Options, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	tm, nm := env.tumor, env.normal
	g := tm.Genes()
	aw := env.active.Words()
	tbuf, nbuf := s.t2, s.n2
	var n Counts

	i, j := combinat.PairCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		best := reduce.None
		switch {
		case opt.MemOpt2:
			// Pre-fold active ∧ row(i) ∧ row(j) once per thread.
			bitmat.AndWords(tbuf, aw, tm.Row(i))
			tp2 := env.tfold(tbuf, tbuf, tm.Row(j))
			if env.prune(tp2) {
				n.Pruned += uint64(g - j - 1)
				break
			}
			bitmat.AndWords(nbuf, nm.Row(i), nm.Row(j))
			for k := j + 1; k < g; k++ {
				tp := env.tpop2(tbuf, tm.Row(k))
				nh := env.npop2(nbuf, nm.Row(k))
				if c := reduce.NewCombo3(env.score(tp, nh), i, j, k); c.Better(best) {
					best = c
					env.offer(c)
				}
				n.Evaluated++
			}
		case opt.MemOpt1:
			ti, ni := tm.Row(i), nm.Row(i)
			if env.prune3(aw, ti, tm.Row(j)) {
				n.Pruned += uint64(g - j - 1)
				break
			}
			for k := j + 1; k < g; k++ {
				tp := env.tpop4(aw, ti, tm.Row(j), tm.Row(k))
				nh := env.npop3(ni, nm.Row(j), nm.Row(k))
				if c := reduce.NewCombo3(env.score(tp, nh), i, j, k); c.Better(best) {
					best = c
					env.offer(c)
				}
				n.Evaluated++
			}
		default:
			if env.prune3(aw, tm.Row(i), tm.Row(j)) {
				n.Pruned += uint64(g - j - 1)
				break
			}
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

// kernel2x2 is the 4-hit kernel of Algorithm 2: thread (i, j) runs the
// depth-2 nested loop over (k, l). Fully prefetched, as in the paper's
// production configuration. Pruning checks both fold levels: a dominated
// (i, j) prefix skips the whole C(G−j−1, 2) nest, a dominated (i, j, k)
// prefix skips its l loop.
func kernel2x2(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	tm, nm := env.tumor, env.normal
	g := tm.Genes()
	aw := env.active.Words()
	tbuf2, nbuf2 := s.t2, s.n2
	tbuf3, nbuf3 := s.t3, s.n3
	var n Counts

	i, j := combinat.PairCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		best := reduce.None
		bitmat.AndWords(tbuf2, aw, tm.Row(i))
		tp2 := env.tfold(tbuf2, tbuf2, tm.Row(j))
		if env.prune(tp2) {
			n.Pruned += choose2(g - j - 1)
			observe(best)
			i++
			if i == j {
				i, j = 0, j+1
			}
			continue
		}
		bitmat.AndWords(nbuf2, nm.Row(i), nm.Row(j))
		for k := j + 1; k < g-1; k++ {
			tp3 := env.tfold(tbuf3, tbuf2, tm.Row(k))
			if env.prune(tp3) {
				n.Pruned += uint64(g - k - 1)
				continue
			}
			bitmat.AndWords(nbuf3, nbuf2, nm.Row(k))
			for l := k + 1; l < g; l++ {
				tp := env.tpop2(tbuf3, tm.Row(l))
				nh := env.npop2(nbuf3, nm.Row(l))
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
		}
	}
	return n
}

// kernel1x3 is the 4-hit 1x3 scheme: thread i runs the full depth-3 nested
// loop over (j, k, l). The paper rejects it — only G threads exist — but it
// completes the scheme ablation. λ is simply the outer index i. The
// active ∧ row(i) fold is invariant across the whole nest, so it is hoisted
// into a one-time prefix buffer per thread (it was previously recomputed
// on every j), and pruning checks all three fold depths.
func kernel1x3(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	tm, nm := env.tumor, env.normal
	g := tm.Genes()
	aw := env.active.Words()
	t1 := s.t1
	tbuf2, nbuf2 := s.t2, s.n2
	tbuf3, nbuf3 := s.t3, s.n3
	var n Counts

	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		i := combinat.ToInt(lambda)
		best := reduce.None
		tp1 := env.tfold(t1, aw, tm.Row(i))
		if env.prune(tp1) {
			n.Pruned += choose3(g - i - 1)
			observe(best)
			continue
		}
		for j := i + 1; j < g-2; j++ {
			tp2 := env.tfold(tbuf2, t1, tm.Row(j))
			if env.prune(tp2) {
				n.Pruned += choose2(g - j - 1)
				continue
			}
			bitmat.AndWords(nbuf2, nm.Row(i), nm.Row(j))
			for k := j + 1; k < g-1; k++ {
				tp3 := env.tfold(tbuf3, tbuf2, tm.Row(k))
				if env.prune(tp3) {
					n.Pruned += uint64(g - k - 1)
					continue
				}
				bitmat.AndWords(nbuf3, nbuf2, nm.Row(k))
				for l := k + 1; l < g; l++ {
					tp := env.tpop2(tbuf3, tm.Row(l))
					nh := env.npop2(nbuf3, nm.Row(l))
					if c := reduce.NewCombo4(env.score(tp, nh), i, j, k, l); c.Better(best) {
						best = c
						env.offer(c)
					}
					n.Evaluated++
				}
			}
		}
		observe(best)
	}
	return n
}

// kernel4x1 is the fully flattened 4-hit scheme: one thread per
// combination, λ decoded through the 4-simplex map. The paper rejects it
// for its "astronomically large" thread count; here it pays the fold of
// all four rows on every combination because nothing is loop-invariant —
// and with no loop-invariant prefix there is nothing to prune either.
func kernel4x1(env *kernelEnv, part sched.Partition, observe func(reduce.Combo)) uint64 {
	tm, nm := env.tumor, env.normal
	aw := env.active.Words()
	i, j, k, l := combinat.QuadCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		tp := env.tpop5(aw, tm.Row(i), tm.Row(j), tm.Row(k), tm.Row(l))
		nh := env.npop4(nm.Row(i), nm.Row(j), nm.Row(k), nm.Row(l))
		observe(reduce.NewCombo4(env.score(tp, nh), i, j, k, l))
		// Advance (i, j, k, l) in λ order: i fastest, then j, k, l.
		i++
		if i == j {
			i, j = 0, j+1
			if j == k {
				j, k = 1, k+1
				if k == l {
					k, l = 2, l+1
				}
			}
		}
	}
	return part.Size()
}

// kernel3x1 is the 4-hit kernel of Algorithm 3: thread (i, j, k) runs one
// inner loop over l = k+1 … G−1 against its pre-folded rows. Threads run i
// fastest, so consecutive threads sharing (j, k) form a group of up to j
// threads (fewer where the partition cuts it). The group folds
// active ∧ row(k) ∧ row(j) once on entry, and each thread adds only
// row(i) to it. Pruning checks both levels: a dominated (j, k) prefix
// dominates every thread left in the group — tp(i, j, k) ≤ tp(j, k) and
// the incumbent only rises — so the group is skipped whole, crediting
// run·(g−k−1) to Pruned and advancing the block cadence through skip; a
// dominated (i, j, k) prefix skips the thread's normal fold and l loop.
func kernel3x1(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo), skip func(uint64)) Counts {
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
			skip(run)
		} else {
			// The normal-side (j, k) fold waits for the group's first
			// surviving thread: a group whose threads all prune never
			// needs it.
			nFolded := false
			for end := i + combinat.ToInt(run); i < end; i++ {
				best := reduce.None
				if env.prune(env.tfold(tbuf, tjk, tm.Row(i))) {
					n.Pruned += uint64(g - k - 1)
					observe(best)
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
