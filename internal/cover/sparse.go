package cover

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/reduce"
	"repro/internal/sched"
	"repro/internal/sparsemat"
)

// Engine selects the scan representation (docs/SPARSE.md). It is an
// execution knob, not a semantic one: both engines produce bit-identical
// winners, Counts, and checkpoints, so Engine appears in neither
// Checkpoint nor the service result-cache key — a run checkpointed under
// one engine resumes under the other.
type Engine int

const (
	// EngineAuto picks per instance: post-kernelization, the scan
	// matrices' mean row occupancy (set samples per gene row) is compared
	// against the scheme's measured crossover (BENCH_9.json) and the
	// cheaper engine wins.
	EngineAuto Engine = iota
	// EngineDense always runs the packed bit-matrix kernels.
	EngineDense
	// EngineSparse always runs the sorted-index merge kernels. Only the
	// prunable schemes (2x1, 2x2, 3x1, 1x3) have sparse kernels; Pair and
	// 4x1 have no loop-invariant prefix worth merging and stay dense.
	EngineSparse
)

// String returns "auto", "dense" or "sparse".
func (e Engine) String() string {
	switch e {
	case EngineDense:
		return "dense"
	case EngineSparse:
		return "sparse"
	}
	return "auto"
}

// ParseEngine parses "auto", "dense" or "sparse" (the CLI/service spec
// spelling); the empty string means EngineAuto.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "dense":
		return EngineDense, nil
	case "sparse":
		return EngineSparse, nil
	}
	return EngineAuto, fmt.Errorf("cover: unknown engine %q (want auto, dense or sparse)", s)
}

// sparseCapable reports whether the scheme has a sparse kernel: every
// prunable scheme but the 5-hit 4+1. A scheme with no loop-invariant
// prefix has neither a bound to check nor a prefix list worth
// materializing.
func (s Scheme) sparseCapable() bool { return s.prunable() && s != Scheme4p1 }

// sparseCrossover returns the break-even mean row occupancy — set
// samples per gene row, density×samples — below which Auto goes sparse
// for the given scheme. Occupancy, not raw density, is the quantity the
// engines actually trade on: a merge step costs a few times a dense
// word AND-popcount, and a prefix merge walks ~2×occupancy elements
// while the dense fold walks samples/64 words regardless of how empty
// they are. The constants come from the BENCH_9.json dense-vs-sparse
// sweep (cmd/benchreport -exp sparse): at 2x1, ACC cohorts (~1.4
// set samples per row) run ~25% faster sparse while BRCA at ~10 already
// loses 2× to the unrolled dense fold; the 4-hit schemes tolerate more
// occupancy because the deeper nests reuse each merged prefix across a
// longer inner cascade — LGG 3x1 at ~6.5 runs 3× faster sparse, BRCA
// 4-hit cells at ~43 lose badly.
func sparseCrossover(s Scheme) float64 {
	switch s {
	case Scheme2x1:
		return 4
	case Scheme2x2, Scheme3x1, Scheme1x3:
		return 12
	}
	return 0
}

// SparseCrossover exposes the scheme's break-even mean row occupancy for
// reporting (cmd/benchreport writes it next to the measured dense/sparse
// ns/op in BENCH_9.json); 0 means the scheme has no sparse kernel.
func SparseCrossover(s Scheme) float64 { return sparseCrossover(s) }

// ResolveEngine resolves EngineAuto against the actual scan matrices —
// for kernelized runs the post-reduction matrices, which is why callers
// resolve after kernelization. A non-Auto engine is returned unchanged;
// Auto falls back to dense whenever the sparse path is structurally
// unavailable (a non-sparse-capable scheme), otherwise it
// compares the matrices' mean row occupancy against the scheme
// crossover.
func ResolveEngine(opt Options, tumor, normal *bitmat.Matrix) Engine {
	if opt.Engine != EngineAuto {
		return opt.Engine
	}
	if !opt.Scheme.sparseCapable() {
		return EngineDense
	}
	rows := float64(tumor.Genes() + normal.Genes())
	if rows == 0 {
		return EngineDense
	}
	meanRow := float64(tumor.PopCount()+normal.PopCount()) / rows
	if meanRow < sparseCrossover(opt.Scheme) {
		return EngineSparse
	}
	return EngineDense
}

// resolveEngine resolves opt.Engine in place against the matrices about
// to be scanned — the safety net for passes not handed over by Greedy
// (FindBestCtx, a direct ScanPass call).
func resolveEngine(opt *Options, tumor, normal *bitmat.Matrix) Engine {
	opt.Engine = ResolveEngine(*opt, tumor, normal)
	return opt.Engine
}

// sparseEnv is the sparse-engine sibling of the dense matrices in
// kernelEnv: CSR views of the same tumor/normal instance, flattened
// per-column weights (nil when the instance is unweighted), and the
// active-sample mask in packed form (nil when every sample is active).
// ScanPass builds one per pass, so a kernelized run's per-iteration
// SelectRows rebuild gets a fresh CSR of exactly the surviving genes.
type sparseEnv struct {
	t, n   *sparsemat.Matrix
	tw, nw []int32
	mask   []uint64
	// tRows/nRows cache the per-gene row slices so the kernels' inner
	// loops index an array instead of calling Row, whose range check
	// (with its panic path) stops it inlining.
	tRows, nRows [][]int32
	// tMax/nMax bound the per-worker scratch lists.
	tMax, nMax int
}

// newSparseEnv converts one pass's scan state to sparse form. The O(G·W)
// conversion is paid once per pass and is negligible next to the scan.
func newSparseEnv(tumor, normal *bitmat.Matrix, active *bitmat.Vec, tw, nw *bitmat.Weights) *sparseEnv {
	sp := &sparseEnv{
		t: sparsemat.FromBitmat(tumor),
		n: sparsemat.FromBitmat(normal),
	}
	sp.tMax = sp.t.MaxRowLen()
	sp.nMax = sp.n.MaxRowLen()
	sp.tRows = make([][]int32, sp.t.Genes())
	for g := range sp.tRows {
		sp.tRows[g] = sp.t.Row(g)
	}
	sp.nRows = make([][]int32, sp.n.Genes())
	for g := range sp.nRows {
		sp.nRows[g] = sp.n.Row(g)
	}
	if active.PopCount() != active.Len() {
		sp.mask = active.Words()
	}
	sp.tw = flattenWeights(tw, tumor.Samples())
	sp.nw = flattenWeights(nw, normal.Samples())
	return sp
}

// flattenWeights expands the bit-plane weight encoding into one int32 per
// column, the random-access form the merge kernels sum over.
func flattenWeights(w *bitmat.Weights, samples int) []int32 {
	if w == nil {
		return nil
	}
	out := make([]int32, samples)
	for j := 0; j < samples; j++ {
		out[j] = int32(w.Weight(j))
	}
	return out
}

// ensureSparse sizes the worker scratch's index lists for the pass's
// sparse environment. Called once per worker at setup (never inside a
// kernel, which must stay allocation-free).
func (s *kernelScratch) ensureSparse(sp *sparseEnv) {
	if len(s.st1) < sp.tMax {
		s.st1 = make([]int32, sp.tMax)
		s.st2 = make([]int32, sp.tMax)
		s.st3 = make([]int32, sp.tMax)
	}
	if len(s.sn2) < sp.nMax {
		s.sn2 = make([]int32, sp.nMax)
		s.sn3 = make([]int32, sp.nMax)
	}
}

// sparseMinTP returns the smallest tumor count whose prefix upper bound
// still survives the incumbent — the merge short-circuit
// threshold. A prefix prunes iff its tp is strictly below the returned
// value, because score(tp, 0) is monotone in tp: the threshold search
// and the dense engine's per-prefix prune(tp) call therefore take
// identical decisions against the same bound. cap is the largest
// achievable count; a return of cap+1 means even a lossless prefix is
// dominated and the merge can be skipped outright. With no incumbent the
// threshold is 0 and nothing short-circuits.
//
// The threshold depends only on the bound, not on the prefix, so each
// worker memoizes it in its scratch keyed by the bound's sortKey
// snapshot: the steady-state cost per prefix is one atomic load and one
// compare — the same as the dense engine's prune(tp) — and the search
// itself reruns only the O(log) times per scan the incumbent improves.
func (e *kernelEnv) sparseMinTP(s *kernelScratch, cap int) int {
	if e.shared == nil {
		return 0
	}
	bound := e.shared.BoundKey()
	if !s.spBoundOK || bound != s.spBoundKey {
		s.spTPStar = e.solveSparseMinTP(bound)
		s.spBoundKey = bound
		s.spBoundOK = true
	}
	if s.spTPStar > cap {
		return cap + 1
	}
	return s.spTPStar
}

// solveSparseMinTP binary-searches the smallest tp whose upper bound
// score(tp, 0) is not strictly below the bound snapshot. The search is
// cap-independent (the hi limit is far above any achievable count) so
// the result can be memoized across prefixes and clamped per call.
func (e *kernelEnv) solveSparseMinTP(bound uint64) int {
	lo, hi := 0, 1<<31
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if reduce.SortKey(e.score(mid, 0)) < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sparsePrefixT folds two tumor rows under the active mask into dst and
// reports the surviving list and whether the prefix is dominated — the
// sparse counterpart of the dense tfold+prune pair. Unweighted instances
// short-circuit the merge at the incumbent-derived threshold; weighted
// instances merge fully (an element count does not bound a weighted
// count) and threshold the weighted sum exactly as the dense engine
// does.
func (e *kernelEnv) sparsePrefixT(s *kernelScratch, dst, a, b []int32) ([]int32, bool) {
	sp := e.sparse
	if sp.tw == nil {
		cap := len(a)
		if len(b) < cap {
			cap = len(b)
		}
		minTP := e.sparseMinTP(s, cap)
		if minTP > cap {
			return nil, true
		}
		out, ok := sparsemat.IntersectIntoMaskMin(dst, a, b, sp.mask, minTP)
		if !ok {
			return nil, true
		}
		return out, len(out) < minTP
	}
	out, _ := sparsemat.IntersectIntoMaskMin(dst, a, b, sp.mask, 0)
	return out, e.prune(sparsemat.CountWeighted(out, sp.tw))
}

// sparsePrefixNext deepens an already-masked prefix list by one more
// tumor row, with the same domination contract as sparsePrefixT.
func (e *kernelEnv) sparsePrefixNext(s *kernelScratch, dst, prev, row []int32) ([]int32, bool) {
	sp := e.sparse
	if sp.tw == nil {
		cap := len(prev)
		if len(row) < cap {
			cap = len(row)
		}
		minTP := e.sparseMinTP(s, cap)
		if minTP > cap {
			return nil, true
		}
		out, ok := sparsemat.IntersectIntoMaskMin(dst, prev, row, nil, minTP)
		if !ok {
			return nil, true
		}
		return out, len(out) < minTP
	}
	out, _ := sparsemat.IntersectIntoMaskMin(dst, prev, row, nil, 0)
	return out, e.prune(sparsemat.CountWeighted(out, sp.tw))
}

// sparseRow1 masks a single tumor row — the depth-1 prefix of the 1x3
// scheme — with the same domination contract as sparsePrefixT.
func (e *kernelEnv) sparseRow1(dst, row []int32) ([]int32, bool) {
	sp := e.sparse
	var out []int32
	if sp.mask == nil {
		out = row
	} else {
		out = sparsemat.FilterMask(dst, row, sp.mask)
	}
	if sp.tw == nil {
		return out, e.prune(len(out))
	}
	return out, e.prune(sparsemat.CountWeighted(out, sp.tw))
}

// stpop returns the (weighted) tumor count of prefix ∩ row — the sparse
// tpop2 over an already-masked prefix list.
func (e *kernelEnv) stpop(prefix, row []int32) int {
	if e.sparse.tw == nil {
		return sparsemat.IntersectCount(prefix, row)
	}
	return sparsemat.IntersectCountWeighted(prefix, row, e.sparse.tw)
}

// snpop is stpop on the normal side.
func (e *kernelEnv) snpop(prefix, row []int32) int {
	if e.sparse.nw == nil {
		return sparsemat.IntersectCount(prefix, row)
	}
	return sparsemat.IntersectCountWeighted(prefix, row, e.sparse.nw)
}

// The sparse kernels below mirror their dense siblings in kernels.go
// step for step: identical λ traversal and prune points, identical
// observe() cadence (including the reduce.None observations of pruned
// threads and the skip() of a skipped 3x1 group, which keep block
// boundaries and therefore the tie-broken reduction identical),
// identical Evaluated increments, and identical Pruned subtree credits.
// The only difference is the representation: prefixes are merged sample
// lists instead of folded words, and the prune decision comes from the
// merge threshold (sparseMinTP) instead of a popcount — the decisions
// coincide, see docs/SPARSE.md for the argument. MemOpt1/MemOpt2 do not
// apply: the sparse path is always fully hoisted, and the prefix tp that
// drives pruning is the same in every dense MemOpt variant.

// sparse2x1 is the sparse 3-hit kernel: thread (i, j) merges its tumor
// and normal prefixes once and intersects row k against them.
func sparse2x1(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	sp := env.sparse
	g := sp.t.Genes()
	var n Counts

	i, j := combinat.PairCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		best := reduce.None
		tlist, pruned := env.sparsePrefixT(s, s.st2, sp.tRows[i], sp.tRows[j])
		if pruned {
			n.Pruned += uint64(g - j - 1)
		} else {
			nlist := sparsemat.IntersectInto(s.sn2, sp.nRows[i], sp.nRows[j])
			for k := j + 1; k < g; k++ {
				tp := env.stpop(tlist, sp.tRows[k])
				nh := env.snpop(nlist, sp.nRows[k])
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

// sparse2x2 is the sparse 4-hit 2x2 kernel: thread (i, j) runs the
// depth-2 nest over (k, l), deepening the merged prefix at each level.
func sparse2x2(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	sp := env.sparse
	g := sp.t.Genes()
	var n Counts

	i, j := combinat.PairCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		best := reduce.None
		tlist2, pruned := env.sparsePrefixT(s, s.st2, sp.tRows[i], sp.tRows[j])
		if pruned {
			n.Pruned += choose2(g - j - 1)
			observe(best)
			i++
			if i == j {
				i, j = 0, j+1
			}
			continue
		}
		nlist2 := sparsemat.IntersectInto(s.sn2, sp.nRows[i], sp.nRows[j])
		for k := j + 1; k < g-1; k++ {
			tlist3, pruned := env.sparsePrefixNext(s, s.st3, tlist2, sp.tRows[k])
			if pruned {
				n.Pruned += uint64(g - k - 1)
				continue
			}
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
		observe(best)
		i++
		if i == j {
			i, j = 0, j+1
		}
	}
	return n
}

// sparse1x3 is the sparse 4-hit 1x3 kernel: thread i runs the full
// depth-3 nest, with the masked row-i list hoisted across it.
func sparse1x3(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo)) Counts {
	sp := env.sparse
	g := sp.t.Genes()
	var n Counts

	for lambda := part.Lo; lambda < part.Hi; lambda++ {
		i := combinat.ToInt(lambda)
		best := reduce.None
		tlist1, pruned := env.sparseRow1(s.st1, sp.tRows[i])
		if pruned {
			n.Pruned += choose3(g - i - 1)
			observe(best)
			continue
		}
		for j := i + 1; j < g-2; j++ {
			tlist2, pruned := env.sparsePrefixNext(s, s.st2, tlist1, sp.tRows[j])
			if pruned {
				n.Pruned += choose2(g - j - 1)
				continue
			}
			nlist2 := sparsemat.IntersectInto(s.sn2, sp.nRows[i], sp.nRows[j])
			for k := j + 1; k < g-1; k++ {
				tlist3, pruned := env.sparsePrefixNext(s, s.st3, tlist2, sp.tRows[k])
				if pruned {
					n.Pruned += uint64(g - k - 1)
					continue
				}
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
		observe(best)
	}
	return n
}

// sparse3x1 is the sparse 4-hit 3x1 kernel: each (j, k) group merges its
// masked tumor prefix once on entry (sparsePrefixT) and each thread
// deepens it by row i (sparsePrefixNext), exactly kernel3x1's two prune
// levels. A group refused at the (j, k) merge is skipped whole with the
// same run·(g−k−1) credit and skip call as the dense kernel.
func sparse3x1(env *kernelEnv, part sched.Partition, s *kernelScratch, observe func(reduce.Combo), skip func(uint64)) Counts {
	sp := env.sparse
	g := sp.t.Genes()
	var n Counts

	i, j, k := combinat.TripleCoords(part.Lo)
	for lambda := part.Lo; lambda < part.Hi; {
		run := min(uint64(j-i), part.Hi-lambda)
		lambda += run
		tjk, pruned := env.sparsePrefixT(s, s.st2, sp.tRows[j], sp.tRows[k])
		if pruned {
			n.Pruned += run * uint64(g-k-1)
			skip(run)
		} else {
			var njk []int32
			nMerged := false
			for end := i + combinat.ToInt(run); i < end; i++ {
				best := reduce.None
				tlist, pruned := env.sparsePrefixNext(s, s.st3, tjk, sp.tRows[i])
				if pruned {
					n.Pruned += uint64(g - k - 1)
					observe(best)
					continue
				}
				if !nMerged {
					njk = sparsemat.IntersectInto(s.sn2, sp.nRows[j], sp.nRows[k])
					nMerged = true
				}
				nlist := sparsemat.IntersectInto(s.sn3, njk, sp.nRows[i])
				for l := k + 1; l < g; l++ {
					tp := env.stpop(tlist, sp.tRows[l])
					nh := env.snpop(nlist, sp.nRows[l])
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
