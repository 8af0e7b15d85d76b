package cover

import (
	"context"

	"repro/internal/bitmat"
	"repro/internal/reduce"
)

// The support pass (docs/PRUNING.md §7). A combination has TP > 0 only
// when some active tumor sample is mutated in all of its genes, that is
// only when it is an h-subset of some active column's genes: its support.
// Every other combination has TP = 0, so its F is score(0, nh), at most
// score(0, 0) = Nn/denom. Late in a greedy run the support is a sliver of
// C(G, h), so greedy tries to decide each pass from it before scanning:
//
//   - the pass runs only when Σ C(deg_s, h) over the active columns s is
//     at most C(G, h)/seedShare, the seed probe's budget;
//   - each active column's h-subsets are enumerated from the tumor
//     transpose, and a subset is scored only at the lowest active column
//     that contains it, so every supported combination is scored once;
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
// A decided pass counts the combinations it scored as Evaluated and the
// rest of C(G, h) as Pruned. The counts, like the winner, are a function
// of the pass's inputs alone.

// supportPass tries to decide pass p from its support. ok is false when
// the pass must fall back to the scan; the work spent is then not counted.
// The context is checked before each active column's subsets.
func supportPass(ctx context.Context, p Pass) (best reduce.Combo, cnt Counts, ok bool, err error) {
	h := p.Opt.Hits
	full, err := domainSizeChecked(p.Tumor.Genes(), h)
	if err != nil {
		return reduce.None, Counts{}, false, err
	}
	budget := full / seedShare
	start, rows := p.Tumor.Columns(p.Active.Words())
	var size uint64
	for s := range len(start) - 1 {
		c, fits := domainSize(start[s+1]-start[s], h)
		if !fits || c > budget-size {
			return reduce.None, Counts{}, false, nil
		}
		size += c
	}

	env := newKernelEnv(p.Tumor, p.Normal, p.Active, p.TumorWeights, p.NormalWeights, p.Opt.Alpha, p.Denom)
	sc := supportScan{env: env, h: h, best: reduce.None, fold: foldBuffers(p.Active.Words(), h)}
	for s := range len(start) - 1 {
		if start[s+1]-start[s] < h {
			continue
		}
		if err := ctx.Err(); err != nil {
			return reduce.None, Counts{}, false, err
		}
		sc.subsets(s, rows[start[s]:start[s+1]], 0, 0)
	}
	best, cnt.Evaluated = sc.best, sc.scored
	if !best.StrictlyAbove(env.score(0, 0)) {
		w, tp, found := firstNormalFree(env, h, budget)
		if !found {
			return reduce.None, Counts{}, false, nil
		}
		if tp == 0 {
			// An unsupported witness is one more scored combination; a
			// supported one was scored with the support.
			cnt.Evaluated++
		}
		if w.Better(best) {
			best = w
		}
	}
	cnt.Pruned = full - cnt.Evaluated
	return best, cnt, true, nil
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

// supportScan scores the supported combinations of one pass.
type supportScan struct {
	env *kernelEnv
	h   int
	// fold[d] is active ∧ the tumor rows of pick[:d]; fold[0] is active.
	fold   [][]uint64
	pick   [4]int
	best   reduce.Combo
	scored uint64
}

// subsets extends pick[:d] with the column's genes from index from on,
// in lexicographic order, and scores each completed h-subset whose lowest
// active column is s.
func (sc *supportScan) subsets(s int, genes []int32, d, from int) {
	for i := from; i <= len(genes)-(sc.h-d); i++ {
		g := int(genes[i])
		sc.pick[d] = g
		bitmat.AndWords(sc.fold[d+1], sc.fold[d], sc.env.tumor.Row(g))
		if d+1 < sc.h {
			sc.subsets(s, genes, d+1, i+1)
			continue
		}
		if bitmat.FirstSet(sc.fold[sc.h]) != s {
			continue // scored at a lower active column
		}
		c := sc.env.scorePick(sc.pick, sc.h, popWords(sc.env.tw, sc.fold[sc.h]))
		sc.scored++
		if c.Better(sc.best) {
			sc.best = c
		}
	}
}

// scorePick scores the ascending genes pick[:h], given their (weighted)
// active tumor count tp: the normal-side count comes from npop{h}.
func (e *kernelEnv) scorePick(pick [4]int, h, tp int) reduce.Combo {
	nm := e.normal
	switch h {
	case 2:
		nh := e.npop2(nm.Row(pick[0]), nm.Row(pick[1]))
		return reduce.NewCombo2(e.score(tp, nh), pick[0], pick[1])
	case 3:
		nh := e.npop3(nm.Row(pick[0]), nm.Row(pick[1]), nm.Row(pick[2]))
		return reduce.NewCombo3(e.score(tp, nh), pick[0], pick[1], pick[2])
	}
	nh := e.npop4(nm.Row(pick[0]), nm.Row(pick[1]), nm.Row(pick[2]), nm.Row(pick[3]))
	return reduce.NewCombo4(e.score(tp, nh), pick[0], pick[1], pick[2], pick[3])
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
// no normal sample carries in full, scored at its real F, with its active
// tumor count. found is false when every combination hits a normal sample
// or the search used up its budget of row folds first.
func firstNormalFree(env *kernelEnv, h int, budget uint64) (w reduce.Combo, tp int, found bool) {
	all := bitmat.AllOnes(env.normal.Samples()).Words()
	ws := witnessSearch{nm: env.normal, h: h, left: budget, fold: foldBuffers(all, h)}
	if !ws.search(0, 0) {
		return reduce.None, 0, false
	}
	tp = env.pickTP(ws.pick, h)
	return env.scorePick(ws.pick, h, tp), tp, true
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
