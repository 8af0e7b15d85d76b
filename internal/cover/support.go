package cover

import (
	"context"
	"math"
	"math/bits"
	"sync/atomic"

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
//   - each active column's h-subsets are enumerated from its gene list
//     and looked up by their genes, so every supported combination is
//     recorded once, at its first sighting, with its active tumor count
//     summed over its carriers (its normal count is taken when a pass
//     first needs it);
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
// pass decides from the combinations whose count is still above zero,
// walking them in build-time count order and stopping at the first that
// cannot win. The witness depends on the normal matrix alone and is
// searched for once.
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
// int32 index entries plus one compact record per supported combination,
// and lives as long as the run.
type supportState struct {
	built bool
	h     int
	// full is C(G, h) of the pass domain; budget is full/seedShare.
	full, budget uint64
	// Record r is one supported combination: its ascending genes, its
	// (weighted) active tumor count tp[r] and its normal count nh[r] (-1
	// until decide first needs it). The records are numbered by their
	// tumor count at the build, descending, and runs splits them into the
	// runs that share one build-time count.
	genes  recordGenes
	tp, nh []int32
	runs   []tpRun
	// live counts the records with tp > 0.
	live uint64
	// Build column c carries the records colRecs[colStart[c]:colStart[c+1]],
	// and weight[c] is its multiplicity (nil: every column counts once).
	colStart []int
	colRecs  []int32
	weight   []int32
	// The witness is the first normal-free combination, searched for once.
	witnessSearched, witnessFound bool
	witness                       [reduce.MaxHits]int32
}

// tpRun ends a run of records that share one build-time tumor count tp:
// the run is the records from the previous run's end up to end.
type tpRun struct {
	end, tp int32
}

// recordGenes holds h gene ids per record, record r at [r*h, (r+1)*h):
// uint16 ids (narrow) while the pass has at most 65,535 genes, int32 ids
// (wide) past that.
type recordGenes struct {
	h      int
	narrow []uint16
	wide   []int32
}

// maxNarrowGenes is the largest gene count whose ids fit recordGenes'
// uint16 form.
const maxNarrowGenes = math.MaxUint16

// newRecordGenes makes room for the given number of records of h ids
// each, drawn from a pass of the given gene count.
func newRecordGenes(genes, h, records int) recordGenes {
	if genes <= maxNarrowGenes {
		return recordGenes{h: h, narrow: make([]uint16, records*h)}
	}
	return recordGenes{h: h, wide: make([]int32, records*h)}
}

// geneID is the type of the gene ids records store: recordGenes' uint16
// or int32 form.
type geneID interface{ uint16 | int32 }

// tuple returns record r's genes as a combination's gene tuple.
func (rg *recordGenes) tuple(r int) [reduce.MaxHits]int32 {
	g := reduce.None.Genes
	if rg.narrow != nil {
		for i, x := range rg.narrow[r*rg.h : (r+1)*rg.h] {
			g[i] = int32(x)
		}
		return g
	}
	copy(g[:], rg.wide[r*rg.h:(r+1)*rg.h])
	return g
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
			var pick [reduce.MaxHits]int
			pick, st.witnessFound = firstNormalFree(env.normal, st.h, st.budget)
			st.witness = pickGenes(pick, st.h)
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
		w := reduce.Combo{Genes: st.witness, F: env.score(tp, env.pickNH(st.witness, st.h))}
		if w.Better(best) {
			best = w
		}
	}
	cnt.Pruned = st.full - cnt.Evaluated
	return best, cnt, true, nil
}

// build records pass p's support, or reports false when it is over budget.
func (st *supportState) build(ctx context.Context, p Pass) (bool, error) {
	h := p.Opt.Hits
	full, err := domainSizeChecked(p.Tumor.Genes(), h)
	if err != nil {
		return false, err
	}
	budget := full / seedShare
	b := takeSupportScratch()
	defer b.release()
	b.start, b.rows = p.Tumor.ColumnsInto(p.Active.Words(), b.start, b.rows)
	n := len(b.start) - 1
	colStart := make([]int, n+1)
	var size uint64
	for s := range n {
		c, fits := domainSize(b.start[s+1]-b.start[s], h)
		if !fits || c > budget-size {
			return false, nil
		}
		size += c
		colStart[s+1] = combinat.ToInt(size)
	}
	*st = supportState{
		h: h, full: full, budget: budget,
		colStart: colStart,
		colRecs:  make([]int32, colStart[n]),
	}
	if w := p.TumorWeights; w != nil {
		st.weight = make([]int32, n)
		for c := range n {
			st.weight[c] = int32(w.Weight(c))
		}
	}
	if err := b.enumerate(ctx, st, p.Tumor.Genes()); err != nil {
		return false, err
	}
	st.number(b, p.Tumor.Genes())
	st.live = uint64(len(st.tp))
	st.built = true
	return true, nil
}

// number stores the enumerated records in st, compactly and numbered by
// tumor count, descending: a counting sort over the counts, stable, so
// records of one count keep their enumeration order. The index entries
// are renumbered to match.
func (st *supportState) number(b *supportScratch, genes int) {
	n, h := b.records, st.h
	b.tp = b.tp[:n]
	top := int32(0)
	for _, tp := range b.tp {
		top = max(top, tp)
	}
	// at[tp] counts the records of each count, then becomes the next
	// number a record of that count takes.
	at := resize(b.at, int(top)+1)
	clear(at)
	runs := 0
	for _, tp := range b.tp {
		if at[tp]++; at[tp] == 1 {
			runs++
		}
	}
	st.runs = make([]tpRun, 0, runs)
	next := int32(0)
	for tp := top; tp >= 0; tp-- {
		if c := at[tp]; c > 0 {
			at[tp] = next
			next += c
			st.runs = append(st.runs, tpRun{end: next, tp: tp})
		}
	}
	st.genes = newRecordGenes(genes, h, n)
	st.tp = make([]int32, n)
	order := resize(b.order, n)
	for r, tp := range b.tp {
		to := at[tp]
		at[tp]++
		order[r] = to
		st.tp[to] = tp
	}
	if st.genes.narrow != nil {
		permuteGenes(st.genes.narrow, b.narrow, order, h)
	} else {
		permuteGenes(st.genes.wide, b.wide, order, h)
	}
	st.nh = make([]int32, n)
	for r := range st.nh {
		st.nh[r] = -1 // taken by decide when first needed
	}
	for i, r := range st.colRecs {
		st.colRecs[i] = order[r]
	}
	b.at, b.order = at, order
}

// decide returns the best live record, scored through env. The records
// come in build-time tumor count order, and a record's count only falls
// after the build, so once a run's bound score(tp, 0) is strictly below
// the best so far, no record from there on can win or tie, and decide
// stops. A record whose own bound score(tp, 0) falls strictly below the
// best is skipped with its normal count untaken; a record's normal count
// is taken the first time it is needed and kept, since the normal side
// never changes.
func (st *supportState) decide(env *kernelEnv) reduce.Combo {
	best := reduce.None
	r := 0
	for _, run := range st.runs {
		if best.StrictlyAbove(env.score(int(run.tp), 0)) {
			break
		}
		for ; r < int(run.end); r++ {
			tp := st.tp[r]
			if tp == 0 || best.StrictlyAbove(env.score(int(tp), 0)) {
				continue
			}
			g := st.genes.tuple(r)
			if st.nh[r] < 0 {
				st.nh[r] = int32(env.pickNH(g, st.h))
			}
			if c := (reduce.Combo{Genes: g, F: env.score(int(tp), int(st.nh[r]))}); c.Better(best) {
				best = c
			}
		}
	}
	return best
}

// remove takes the covered columns (a mask over the build columns) out of
// the state: each one's weight leaves the tumor count of every record it
// carries.
func (st *supportState) remove(covered []uint64) {
	if !st.built {
		return
	}
	for w, x := range covered {
		for ; x != 0; x &= x - 1 {
			c := w*bitmat.WordBits + bits.TrailingZeros64(x)
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

// supportScratch is a build's transient working set. A finished build
// leaves it for the next one (takeSupportScratch), so a run of small
// builds allocates only the state it keeps.
type supportScratch struct {
	// start and rows are the active tumor columns' gene lists
	// (bitmat.Matrix.ColumnsInto).
	start []int
	rows  []int32
	// table finds a subset's record from its genes by open addressing: a
	// slot holds the subset hash's low 32 bits over the record number + 1,
	// and 0 when empty. Its size is a power of two above 5/4 of the
	// subset count, and a subset's probe starts at its hash's top bits.
	table []uint64
	shift uint
	// pick is the subset being filed; filed counts the index entries
	// written so far.
	pick  [reduce.MaxHits]int32
	filed int
	// The records in first-sighting order, records of them: h gene ids
	// each, in narrow or wide as the state stores them, and the tumor
	// count.
	records int
	narrow  []uint16
	wide    []int32
	tp      []int32
	// at and order are number's counting-sort scratch.
	at, order []int32
}

// spareSupportScratch holds at most one finished build's scratch.
var spareSupportScratch atomic.Pointer[supportScratch]

// supportScratchKeep bounds the bytes of scratch kept between builds: a
// large build's scratch goes to the collector instead.
const supportScratchKeep = 1 << 20

func takeSupportScratch() *supportScratch {
	if b := spareSupportScratch.Swap(nil); b != nil {
		return b
	}
	return new(supportScratch)
}

// release offers the scratch to the next build if it is small enough.
func (b *supportScratch) release() {
	bytes := 8*(cap(b.start)+cap(b.table)) + 2*cap(b.narrow) +
		4*(cap(b.rows)+cap(b.wide)+cap(b.tp)+cap(b.at)+cap(b.order))
	if bytes <= supportScratchKeep {
		spareSupportScratch.Store(b)
	}
}

// resize returns buf resized to n, reallocated only when its capacity is
// short; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// subsetHash is the multiplier of the subset hash, which folds in one
// gene at a time: x' = (x ^ gene) · subsetHash.
const subsetHash = 0x9e3779b97f4a7c15

// enumerate records every h-subset of the active columns' gene lists in
// st, columns in ascending order and each column's subsets in
// lexicographic order. A subset's first sighting, at its lowest carrying
// column, makes its record; every sighting adds the column's weight to
// the record's tumor count and files the record under the column. The
// context is checked before each column's subsets.
func (b *supportScratch) enumerate(ctx context.Context, st *supportState, geneCount int) error {
	// A column's subsets are distinct, so there are at most as many
	// records as index entries, and the table is at most 4/5 full.
	bound := len(st.colRecs)
	size := 1 << bits.Len(uint(bound+bound/4))
	b.table = resize(b.table, size)
	clear(b.table)
	b.shift = uint(64 - bits.TrailingZeros(uint(size)))
	narrow := geneCount <= maxNarrowGenes
	if narrow {
		b.narrow = resize(b.narrow, bound*st.h)
	} else {
		b.wide = resize(b.wide, bound*st.h)
	}
	b.tp = resize(b.tp, bound)
	b.records, b.filed = 0, 0
	for c := range len(b.start) - 1 {
		genes := b.rows[b.start[c]:b.start[c+1]]
		if len(genes) < st.h {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		wt := int32(1)
		if st.weight != nil {
			wt = st.weight[c]
		}
		if narrow {
			fileSubsets(b, st, genes, wt, b.narrow)
		} else {
			fileSubsets(b, st, genes, wt, b.wide)
		}
	}
	return nil
}

// fileSubsets files each h-subset of one column's genes, whose weight is
// wt, in st, in lexicographic order; recGenes is b's records' genes.
// idx[:h] walks the subsets' positions in genes like an odometer, with its
// last wheel turned in the innermost loop, and x[d] is the hash of
// pick[:d].
func fileSubsets[G geneID](b *supportScratch, st *supportState, genes []int32, wt int32, recGenes []G) {
	h, n := st.h, len(genes)
	table, mask, shift := b.table, uint64(len(b.table)-1), b.shift
	recTP, colRecs := b.tp, st.colRecs
	records, filed := b.records, b.filed
	pick := b.pick[:h]
	var idx [reduce.MaxHits]int
	var x [reduce.MaxHits]uint64
	for d := 0; ; {
		for ; d < h-1; d++ {
			g := genes[idx[d]]
			pick[d] = g
			x[d+1] = (x[d] ^ uint64(g)) * subsetHash
			idx[d+1] = idx[d] + 1
		}
		for _, g := range genes[idx[h-1]:] {
			pick[h-1] = g
			y := (x[h-1] ^ uint64(g)) * subsetHash
			// Find pick's record: probe from the hash's top bits for
			// an empty slot, which makes the record, or a slot whose
			// tag and genes match.
			tag, r := y<<32, 0
			for i := y >> shift; ; i = (i + 1) & mask {
				e := table[i]
				if e == 0 {
					r = records
					records++
					table[i] = tag | uint64(r+1)
					for k, g := range pick {
						recGenes[r*h+k] = G(g)
					}
					recTP[r] = 0
					break
				}
				if r = int(uint32(e)) - 1; e&^(1<<32-1) == tag && sameGenes(recGenes[r*h:r*h+h], pick) {
					break
				}
			}
			recTP[r] += wt
			colRecs[filed] = int32(r)
			filed++
		}
		// Turn the deepest wheel above the last that has room.
		d = h - 2
		for d >= 0 && idx[d] == n-h+d {
			d--
		}
		if d < 0 {
			break
		}
		idx[d]++
	}
	b.records, b.filed = records, filed
}

// sameGenes reports whether a record's stored genes are pick.
func sameGenes[G geneID](stored []G, pick []int32) bool {
	for k, g := range pick {
		if stored[k] != G(g) {
			return false
		}
	}
	return true
}

// permuteGenes copies record r's h gene ids in src to record order[r] in
// dst.
func permuteGenes[G geneID](dst, src []G, order []int32, h int) {
	for r, to := range order {
		d, s := dst[int(to)*h:int(to)*h+h], src[r*h:r*h+h]
		for k := range d {
			d[k] = s[k]
		}
	}
}

// pickGenes returns the ascending genes pick[:h] as a combination's gene
// tuple.
func pickGenes(pick [reduce.MaxHits]int, h int) [reduce.MaxHits]int32 {
	g := reduce.None.Genes
	for i := range h {
		g[i] = int32(pick[i])
	}
	return g
}

// pickNH returns the (weighted) normal count of the h-gene tuple g,
// through npop{h}.
func (e *kernelEnv) pickNH(g [reduce.MaxHits]int32, h int) int {
	nm := e.normal
	switch h {
	case 2:
		return e.npop2(nm.Row(int(g[0])), nm.Row(int(g[1])))
	case 3:
		return e.npop3(nm.Row(int(g[0])), nm.Row(int(g[1])), nm.Row(int(g[2])))
	case 4:
		return e.npop4(nm.Row(int(g[0])), nm.Row(int(g[1])), nm.Row(int(g[2])), nm.Row(int(g[3])))
	}
	return e.npop5(nm.Row(int(g[0])), nm.Row(int(g[1])), nm.Row(int(g[2])), nm.Row(int(g[3])), nm.Row(int(g[4])))
}

// pickTP returns the (weighted) active tumor count of the h-gene tuple g,
// through tpop{h+1}; at h = 5 the active mask and the first row are folded
// first.
func (e *kernelEnv) pickTP(g [reduce.MaxHits]int32, h int) int {
	tm, aw := e.tumor, e.active.Words()
	switch h {
	case 2:
		return e.tpop3(aw, tm.Row(int(g[0])), tm.Row(int(g[1])))
	case 3:
		return e.tpop4(aw, tm.Row(int(g[0])), tm.Row(int(g[1])), tm.Row(int(g[2])))
	case 4:
		return e.tpop5(aw, tm.Row(int(g[0])), tm.Row(int(g[1])), tm.Row(int(g[2])), tm.Row(int(g[3])))
	}
	fold := make([]uint64, len(aw))
	bitmat.AndWords(fold, aw, tm.Row(int(g[0])))
	return e.tpop5(fold, tm.Row(int(g[1])), tm.Row(int(g[2])), tm.Row(int(g[3])), tm.Row(int(g[4])))
}

// firstNormalFree returns the lexicographically first h-combination that
// no sample of the normal matrix carries in full. found is false when
// every combination hits a normal sample or the search used up its budget
// of row folds first.
func firstNormalFree(normal *bitmat.Matrix, h int, budget uint64) (pick [reduce.MaxHits]int, found bool) {
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
	pick [reduce.MaxHits]int
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
