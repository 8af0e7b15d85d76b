package cover

import (
	"context"
	"math/bits"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/reduce"
)

// The support pass (docs/PRUNING.md §7). A combination has TP > 0 only
// when some active tumor sample is mutated in all of its genes, that is
// only when it is an h-subset of some active column's genes: its support.
// Every other combination has TP = 0, so its F is score(0, nh), at most
// score(0, 0) = Nn/denom. Late in a greedy run the support is a sliver of
// C(G, h), so greedy tries to decide each pass from it before scanning:
//
//   - the support is built only when Σ C(deg_s, h) over the active
//     columns s is at most C(G, h)/seedShare, the seed probe's budget;
//   - each active column's h-subsets are enumerated from the tumor
//     transpose, and a subset is recorded only at the lowest active
//     column that contains it, so every supported combination is recorded
//     once, with its active tumor count (its normal count is taken when a
//     pass first needs it);
//   - a supported best strictly above score(0, 0) beats every unsupported
//     combination and wins outright;
//   - otherwise the winner is the better of the supported best and the
//     lexicographically first combination that hits no normal sample
//     (firstNormalFree), whose F is score(tp, 0) ≥ score(0, 0). Every
//     other unsupported combination either hits a normal sample, and
//     scores strictly below score(0, 0), or ties the witness's F from a
//     lexicographically later gene tuple, so the tie-break is exact;
//   - with no such witness found within the same budget, the pass falls
//     back to the scan.
//
// The support only shrinks as samples are covered, and the normal side
// never changes, so greedy builds the support once and carries it
// (supportState): each step subtracts its covered columns' weights from
// the tumor counts of the combinations those columns carry, and each later
// pass decides from the combinations whose count is still above zero. The
// witness depends on the normal matrix alone and is searched for once.
//
// A decided pass counts the supported combinations as Evaluated and the
// rest of C(G, h) as Pruned. The counts, like the winner, are a function
// of the pass's inputs alone: a carried state and one built fresh on the
// same pass agree on both.

// supportPass tries to decide pass p from a support state built fresh on
// it. ok is false when the pass must fall back to the scan; the work spent
// is then not counted. The context is checked before each active column's
// subsets.
func supportPass(ctx context.Context, p Pass) (best reduce.Combo, cnt Counts, ok bool, err error) {
	var st supportState
	return st.pass(ctx, p)
}

// supportState is one greedy run's carried support. The zero value is
// unbuilt; pass builds it on the first pass whose support fits the budget,
// and remove keeps it current after each step. It holds Σ C(deg_s, h)
// int32 index entries plus one record per supported combination, and lives
// as long as the run.
type supportState struct {
	built bool
	h     int
	// full is C(G, h) of the pass domain; budget is full/seedShare.
	full, budget uint64
	// Record r is one supported combination: genes[r] in ascending order,
	// its (weighted) active tumor count tp[r] and its normal count nh[r]
	// (-1 until decide first needs it).
	genes  [][4]int32
	tp, nh []int32
	// live counts the records with tp > 0.
	live uint64
	// Build column c carries the records colRecs[colStart[c]:colStart[c+1]],
	// and weight[c] is its multiplicity (nil: every column counts once).
	colStart []int
	colRecs  []int32
	weight   []int32
	// cols maps the current columns to build columns under BitSplice,
	// where each step splices its covered columns out; nil otherwise.
	cols []int32
	// The witness is the first normal-free combination, searched for once.
	witnessSearched, witnessFound bool
	witness                       [4]int
}

// pass decides p from the state, building it first if need be. ok is false
// when the pass must fall back to the scan.
func (st *supportState) pass(ctx context.Context, p Pass) (best reduce.Combo, cnt Counts, ok bool, err error) {
	if !st.built {
		if ok, err = st.build(ctx, p); !ok {
			return reduce.None, Counts{}, false, err
		}
	}
	env := newKernelEnv(p.Tumor, p.Normal, p.Active, p.TumorWeights, p.NormalWeights, p.Opt.Alpha, p.Denom)
	best, cnt.Evaluated = st.decide(env), st.live
	if !best.StrictlyAbove(env.score(0, 0)) {
		if !st.witnessSearched {
			st.witness, st.witnessFound = firstNormalFree(env.normal, st.h, st.budget)
			st.witnessSearched = true
		}
		if !st.witnessFound {
			return reduce.None, Counts{}, false, nil
		}
		tp := env.pickTP(st.witness, st.h)
		if tp == 0 {
			// An unsupported witness is one more scored combination; a
			// supported one is among the live records.
			cnt.Evaluated++
		}
		if w := env.scorePick(st.witness, st.h, tp); w.Better(best) {
			best = w
		}
	}
	cnt.Pruned = st.full - cnt.Evaluated
	return best, cnt, true, nil
}

// build records pass p's support, or reports false when it is over budget.
// The records are pre-sized to the support bound, which they never exceed.
func (st *supportState) build(ctx context.Context, p Pass) (bool, error) {
	h := p.Opt.Hits
	full, err := domainSizeChecked(p.Tumor.Genes(), h)
	if err != nil {
		return false, err
	}
	budget := full / seedShare
	start, rows := p.Tumor.Columns(p.Active.Words())
	n := len(start) - 1
	colStart := make([]int, n+1)
	var size uint64
	for s := range n {
		c, fits := domainSize(start[s+1]-start[s], h)
		if !fits || c > budget-size {
			return false, nil
		}
		size += c
		colStart[s+1] = combinat.ToInt(size)
	}
	bound := colStart[n]
	*st = supportState{
		h: h, full: full, budget: budget,
		genes:    make([][4]int32, 0, bound),
		tp:       make([]int32, 0, bound),
		nh:       make([]int32, 0, bound),
		colStart: colStart,
		colRecs:  make([]int32, bound),
	}
	if w := p.TumorWeights; w != nil {
		st.weight = make([]int32, n)
		for c := range n {
			st.weight[c] = int32(w.Weight(c))
		}
	}
	if p.Opt.BitSplice {
		st.cols = make([]int32, n)
		for c := range n {
			st.cols[c] = int32(c)
		}
	}

	env := newKernelEnv(p.Tumor, p.Normal, p.Active, p.TumorWeights, p.NormalWeights, p.Opt.Alpha, p.Denom)
	sc := supportScan{env: env, st: st, h: h, fold: foldBuffers(p.Active.Words(), h), next: make([]int, n)}
	copy(sc.next, colStart)
	for s := range n {
		if start[s+1]-start[s] < h {
			continue
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		sc.subsets(s, rows[start[s]:start[s+1]], 0, 0)
	}
	st.live = uint64(len(st.tp))
	st.built = true
	return true, nil
}

// decide returns the best live record, scored through env. A record
// whose bound score(tp, 0) falls strictly below the best so far cannot
// win or tie, so its normal count is left untaken; a record's normal count
// is taken the first time it is needed and kept, since the normal side
// never changes.
func (st *supportState) decide(env *kernelEnv) reduce.Combo {
	best := reduce.None
	for r, tp := range st.tp {
		if tp == 0 || best.StrictlyAbove(env.score(int(tp), 0)) {
			continue
		}
		g := st.genes[r]
		if st.nh[r] < 0 {
			st.nh[r] = int32(env.pickNH([4]int{int(g[0]), int(g[1]), int(g[2]), int(g[3])}, st.h))
		}
		if c := (reduce.Combo{Genes: g, F: env.score(int(tp), int(st.nh[r]))}); c.Better(best) {
			best = c
		}
	}
	return best
}

// remove takes the covered columns (a mask over the current columns) out
// of the state: each one's weight leaves the tumor count of every record
// it carries. Under BitSplice the columns are then spliced out of the
// column map, as the step splices them out of the tumor matrix.
func (st *supportState) remove(covered []uint64) {
	if !st.built {
		return
	}
	for w, x := range covered {
		for ; x != 0; x &= x - 1 {
			c := w*bitmat.WordBits + bits.TrailingZeros64(x)
			if st.cols != nil {
				c = int(st.cols[c])
			}
			wt := int32(1)
			if st.weight != nil {
				wt = st.weight[c]
			}
			for _, r := range st.colRecs[st.colStart[c]:st.colStart[c+1]] {
				if st.tp[r] -= wt; st.tp[r] == 0 {
					st.live--
				}
			}
		}
	}
	if st.cols == nil {
		return
	}
	kept := 0
	for c, b := range st.cols {
		if covered[c/bitmat.WordBits]>>(uint(c)%bitmat.WordBits)&1 == 0 {
			st.cols[kept] = b
			kept++
		}
	}
	st.cols = st.cols[:kept]
}

// foldBuffers returns h+1 prefix-fold buffers: base, then h fresh ones of
// its length.
func foldBuffers(base []uint64, h int) [][]uint64 {
	fold := make([][]uint64, h+1)
	fold[0] = base
	for d := 1; d <= h; d++ {
		fold[d] = make([]uint64, len(base))
	}
	return fold
}

// supportScan records the supported combinations of one pass.
type supportScan struct {
	env *kernelEnv
	st  *supportState
	h   int
	// fold[d] is active ∧ the tumor rows of pick[:d]; fold[0] is active.
	// fold[h] is filled only from the recorded column's word on (see
	// lowest).
	fold [][]uint64
	pick [4]int
	// next[c] is column c's next free slot in st.colRecs.
	next []int
}

// subsets extends pick[:d] with the column's genes from index from on,
// in lexicographic order, and records each completed h-subset whose
// lowest active column is s.
func (sc *supportScan) subsets(s int, genes []int32, d, from int) {
	for i := from; i <= len(genes)-(sc.h-d); i++ {
		sc.pick[d] = int(genes[i])
		row := sc.env.tumor.Row(sc.pick[d])
		if d+1 < sc.h {
			bitmat.AndWords(sc.fold[d+1], sc.fold[d], row)
			sc.subsets(s, genes, d+1, i+1)
			continue
		}
		if sc.lowest(s, row) {
			sc.record(s)
		}
	}
}

// lowest reports whether s is the lowest active column carrying pick[:h],
// whose last gene has the tumor row row. Only then does it fold the row
// into fold[h], from column s's word on: the words below it are empty.
func (sc *supportScan) lowest(s int, row []uint64) bool {
	prefix, w := sc.fold[sc.h-1], s/bitmat.WordBits
	for k := range w {
		if prefix[k]&row[k] != 0 {
			return false
		}
	}
	if prefix[w]&row[w]&(1<<(uint(s)%bitmat.WordBits)-1) != 0 {
		return false
	}
	bitmat.AndWords(sc.fold[sc.h][w:], prefix[w:], row[w:])
	return true
}

// record appends the completed pick, whose lowest carrier is column s, as
// a record, and indexes it under every active column that carries it, the
// set bits of fold[h]; its tumor count is the carriers' total weight.
func (sc *supportScan) record(s int) {
	st, next, weight := sc.st, sc.next, sc.st.weight
	r := int32(len(st.tp))
	tp := 0
	// The carriers' words below column s are empty.
	for w, x := range sc.fold[sc.h][s/bitmat.WordBits:] {
		if weight == nil {
			tp += bits.OnesCount64(x)
		}
		base := (w + s/bitmat.WordBits) * bitmat.WordBits
		for ; x != 0; x &= x - 1 {
			col := base + bits.TrailingZeros64(x)
			st.colRecs[next[col]] = r
			next[col]++
			if weight != nil {
				tp += int(weight[col])
			}
		}
	}
	st.genes = append(st.genes, pickGenes(sc.pick, sc.h))
	st.tp = append(st.tp, int32(tp))
	st.nh = append(st.nh, -1) // taken by decide when first needed
}

// pickGenes returns the ascending genes pick[:h] as a combination's gene
// tuple.
func pickGenes(pick [4]int, h int) [4]int32 {
	g := reduce.None.Genes
	for i := range h {
		g[i] = int32(pick[i])
	}
	return g
}

// scorePick scores the ascending genes pick[:h], given their (weighted)
// active tumor count tp.
func (e *kernelEnv) scorePick(pick [4]int, h, tp int) reduce.Combo {
	return reduce.Combo{Genes: pickGenes(pick, h), F: e.score(tp, e.pickNH(pick, h))}
}

// pickNH returns the (weighted) normal count of the ascending genes
// pick[:h], through npop{h}.
func (e *kernelEnv) pickNH(pick [4]int, h int) int {
	nm := e.normal
	switch h {
	case 2:
		return e.npop2(nm.Row(pick[0]), nm.Row(pick[1]))
	case 3:
		return e.npop3(nm.Row(pick[0]), nm.Row(pick[1]), nm.Row(pick[2]))
	}
	return e.npop4(nm.Row(pick[0]), nm.Row(pick[1]), nm.Row(pick[2]), nm.Row(pick[3]))
}

// pickTP returns the (weighted) active tumor count of the ascending genes
// pick[:h], through tpop{h+1}.
func (e *kernelEnv) pickTP(pick [4]int, h int) int {
	tm, aw := e.tumor, e.active.Words()
	switch h {
	case 2:
		return e.tpop3(aw, tm.Row(pick[0]), tm.Row(pick[1]))
	case 3:
		return e.tpop4(aw, tm.Row(pick[0]), tm.Row(pick[1]), tm.Row(pick[2]))
	}
	return e.tpop5(aw, tm.Row(pick[0]), tm.Row(pick[1]), tm.Row(pick[2]), tm.Row(pick[3]))
}

// firstNormalFree returns the lexicographically first h-combination that
// no sample of the normal matrix carries in full. found is false when
// every combination hits a normal sample or the search used up its budget
// of row folds first.
func firstNormalFree(normal *bitmat.Matrix, h int, budget uint64) (pick [4]int, found bool) {
	all := bitmat.AllOnes(normal.Samples()).Words()
	ws := witnessSearch{nm: normal, h: h, left: budget, fold: foldBuffers(all, h)}
	if !ws.search(0, 0) {
		return pick, false
	}
	return ws.pick, true
}

// witnessSearch is firstNormalFree's depth-first walk over normal-side
// prefix folds.
type witnessSearch struct {
	nm *bitmat.Matrix
	h  int
	// fold[d] is the normal rows of pick[:d] ANDed; fold[0] is all ones.
	fold [][]uint64
	pick [4]int
	left uint64
}

// search extends pick[:d] in lexicographic order and reports whether it
// completed pick to a normal-free combination. Once a prefix fold is
// empty, every completion is normal-free, and the first one takes the
// next genes in order.
func (ws *witnessSearch) search(d, from int) bool {
	for i := from; i <= ws.nm.Genes()-(ws.h-d); i++ {
		if ws.left == 0 {
			return false
		}
		ws.left--
		ws.pick[d] = i
		if bitmat.AndWordsPop(ws.fold[d+1], ws.fold[d], ws.nm.Row(i)) == 0 {
			for k := d + 1; k < ws.h; k++ {
				ws.pick[k] = ws.pick[k-1] + 1
			}
			return true
		}
		if d+1 < ws.h && ws.search(d+1, i+1) {
			return true
		}
	}
	return false
}
