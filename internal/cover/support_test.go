package cover

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/dataset"
	"repro/internal/reduce"
)

// The support pass's four outcomes.
const (
	supportOutright  = "outright"    // the supported best is above score(0, 0)
	supportWitness   = "witness"     // decided against a normal-free witness
	supportNoWitness = "no witness"  // fell back: no witness within budget
	supportOverflow  = "over budget" // fell back: the support is too large
)

// supportChecker compares every pass of a greedy run against the NoPrune
// scan of the same pass and tallies the support pass's outcomes.
type supportChecker struct {
	t        *testing.T
	name     string
	outcomes map[string]int
}

// hooks returns Greedy hooks that check each pass: a settled pass must
// reproduce the exhaustive winner bit for bit and account for the whole
// domain; a scanned pass must be one the support pass declined.
func (sc *supportChecker) hooks() Hooks {
	return Hooks{
		Settled: func(p Pass) { sc.check(p, true) },
		Scan: func(ctx context.Context, p Pass) (reduce.Combo, Counts, error) {
			sc.check(p, false)
			return findBest(ctx, p)
		},
	}
}

func (sc *supportChecker) check(p Pass, settled bool) {
	t := sc.t
	t.Helper()
	got, cnt, ok, err := supportPass(context.Background(), p)
	if err != nil {
		t.Fatalf("%s step %d: %v", sc.name, p.Step, err)
	}
	if ok != settled {
		t.Fatalf("%s step %d: supportPass ok=%v, but greedy settled=%v", sc.name, p.Step, ok, settled)
	}
	full, _ := domainSize(p.Tumor.Genes(), p.Opt.Hits)
	if !ok {
		if supportSize(p) > full/seedShare {
			sc.outcomes[supportOverflow]++
		} else {
			sc.outcomes[supportNoWitness]++
		}
		return
	}
	exhaustive := p
	exhaustive.Opt.NoPrune = true
	want, _, err := findBest(context.Background(), exhaustive)
	if err != nil {
		t.Fatal(err)
	}
	if got.Genes != want.Genes || math.Float64bits(got.F) != math.Float64bits(want.F) {
		t.Fatalf("%s step %d: support pass chose %v (F bits %#x), full scan %v (F bits %#x)",
			sc.name, p.Step, got, math.Float64bits(got.F), want, math.Float64bits(want.F))
	}
	if cnt.Scanned() != full {
		t.Fatalf("%s step %d: Evaluated %d + Pruned %d = %d, want C(G, h) = %d",
			sc.name, p.Step, cnt.Evaluated, cnt.Pruned, cnt.Scanned(), full)
	}
	env := newKernelEnv(p.Tumor, p.Normal, p.Active, p.TumorWeights, p.NormalWeights, p.Opt.Alpha, p.Denom)
	if got.StrictlyAbove(env.score(0, 0)) {
		sc.outcomes[supportOutright]++
	} else {
		sc.outcomes[supportWitness]++
	}
}

// supportSize is Σ C(deg_s, h) over the pass's active columns.
func supportSize(p Pass) uint64 {
	start, _ := p.Tumor.Columns(p.Active.Words())
	var n uint64
	for s := range len(start) - 1 {
		c, _ := domainSize(start[s+1]-start[s], p.Opt.Hits)
		n += c
	}
	return n
}

// TestSupportPassMatchesFullScan checks the support pass against the
// exhaustive scan on every pass of greedy runs over the registry's
// cohorts, h = 2–5, in mask and kernelized mode, and on
// hand-built instances for the tie, no-witness and over-budget branches.
// Each run must also equal its NoPrune run step for step, and a
// hand-built first pass must count exactly what it scored.
func TestSupportPassMatchesFullScan(t *testing.T) {
	outcomes := map[string]int{}
	modes := []struct {
		name string
		opt  Options
	}{
		{"mask", Options{}},
		{"kernel", Options{Kernelize: true}},
	}
	for _, spec := range dataset.FourHitCancers() {
		for _, genes := range []int{14, 30} {
			c := pruneCohort(t, spec, genes, 3)
			for hits := 2; hits <= MaxHits; hits++ {
				if hits == 5 && genes == 30 {
					// The NoPrune reference would scan C(30, 5) per pass,
					// ten times the rest of the test; at G = 14 the h = 5
					// runs already settle ~400 passes through both decided
					// branches.
					continue
				}
				for _, m := range modes {
					opt := m.opt
					opt.Hits, opt.Workers = hits, 2
					name := spec.Code + "/" + m.name
					sc := &supportChecker{t: t, name: name, outcomes: outcomes}
					got, err := Greedy(context.Background(), c.Tumor, c.Normal, opt, nil, sc.hooks())
					if err != nil {
						t.Fatal(err)
					}
					opt.NoPrune = true
					want, err := Run(c.Tumor, c.Normal, opt)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, name, got, want)
				}
			}
		}
	}
	for _, hc := range supportCases() {
		sc := &supportChecker{t: t, name: hc.name, outcomes: outcomes}
		got, err := Greedy(context.Background(), hc.tumor, hc.normal, hc.opt, nil, sc.hooks())
		if err != nil {
			t.Fatal(err)
		}
		opt := hc.opt
		opt.NoPrune = true
		want, err := Run(hc.tumor, hc.normal, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, hc.name, got, want)
		if hc.first != nil {
			hc.first(t, got)
		}
		checkFirstPassCount(t, hc)
	}
	for _, o := range []string{supportOutright, supportWitness, supportNoWitness, supportOverflow} {
		if outcomes[o] == 0 {
			t.Errorf("no pass took the %q branch (outcomes %v)", o, outcomes)
		}
	}
	t.Logf("support pass outcomes: %v", outcomes)
}

// sameResult requires two runs to agree on every step's combination and
// F bits, and on Covered and Uncoverable.
func sameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if len(got.Steps) != len(want.Steps) || got.Covered != want.Covered || got.Uncoverable != want.Uncoverable {
		t.Fatalf("%s: %d steps covering %d (%d uncoverable), NoPrune %d covering %d (%d)", name,
			len(got.Steps), got.Covered, got.Uncoverable, len(want.Steps), want.Covered, want.Uncoverable)
	}
	for i := range got.Steps {
		g, w := got.Steps[i], want.Steps[i]
		if g.Combo.Genes != w.Combo.Genes || math.Float64bits(g.Combo.F) != math.Float64bits(w.Combo.F) ||
			g.NewlyCovered != w.NewlyCovered {
			t.Fatalf("%s step %d: %v covering %d, NoPrune %v covering %d", name, i,
				g.Combo, g.NewlyCovered, w.Combo, w.NewlyCovered)
		}
	}
}

// supportCase is a hand-built instance aimed at one branch; first, when
// set, checks the run's first step.
type supportCase struct {
	name          string
	tumor, normal *bitmat.Matrix
	opt           Options
	first         func(t *testing.T, res *Result)
}

// matrix builds a genes×len(samples) matrix whose column s carries the
// genes listed in samples[s].
func matrix(genes int, samples [][]int) *bitmat.Matrix {
	m := bitmat.New(genes, len(samples))
	for s, gs := range samples {
		for _, g := range gs {
			m.Set(g, s)
		}
	}
	return m
}

func supportCases() []supportCase {
	const genes = 16 // C(16, 2)/seedShare = 7 subsets and witness folds
	// Two tumor samples carry only {a, b}, and one of the four normal
	// samples carries {0, 1, 14, 15}: at α = 0.5, (a, b) scores
	// (0.5·2 + 4 − 1)/denom = score(0, 0), tying every normal-free
	// combination, and the lexicographic order decides.
	tie := func(a, b int) (*bitmat.Matrix, *bitmat.Matrix) {
		return matrix(genes, [][]int{{a, b}, {a, b}}),
			matrix(genes, [][]int{{0, 1, 14, 15}, {}, {}, {}})
	}
	firstIs := func(want ...int) func(*testing.T, *Result) {
		return func(t *testing.T, res *Result) {
			t.Helper()
			if len(res.Steps) == 0 || !slices.Equal(res.Steps[0].Combo.GeneIDs(), want) {
				t.Fatalf("first steps %v, want genes %v", res.Steps, want)
			}
			c := res.Steps[0].Combo
			if math.Float64bits(c.F) != math.Float64bits(4.0/6) {
				t.Fatalf("first step F = %v, want score(0, 0) = 4/6", c.F)
			}
		}
	}
	var cases []supportCase
	// The supported (14, 15) ties the normal-free witness (0, 2), which
	// wins lexicographically and covers nothing.
	tt, tn := tie(14, 15)
	cases = append(cases, supportCase{name: "tie, witness wins", tumor: tt, normal: tn,
		opt: Options{Hits: 2, Alpha: 0.5, Workers: 1}, first: func(t *testing.T, res *Result) {
			if len(res.Steps) != 0 || res.Uncoverable != 2 {
				t.Fatalf("witness (0, 2) should win the tie and end the run: %d steps, %d uncoverable",
					len(res.Steps), res.Uncoverable)
			}
		}})
	// The supported (0, 1) ties the witness (0, 2) and wins.
	tt, tn = tie(0, 1)
	cases = append(cases, supportCase{name: "tie, supported wins", tumor: tt, normal: tn,
		opt: Options{Hits: 2, Alpha: 0.5, Workers: 1}, first: firstIs(0, 1)})
	// At a vanishing α the supported normal-free (0, 1) scores exactly
	// score(0, 0), so it is decided as the witness, not outright.
	cases = append(cases, supportCase{name: "supported witness",
		tumor:  matrix(genes, [][]int{{0, 1}}),
		normal: matrix(genes, [][]int{{14, 15}, {}, {}, {}}),
		opt:    Options{Hits: 2, Alpha: 1e-20, Workers: 1}})
	// Every gene is mutated in one normal sample, so every combination
	// hits it and no witness exists.
	all := make([]int, genes)
	for g := range all {
		all[g] = g
	}
	cases = append(cases, supportCase{name: "no witness",
		tumor:  matrix(genes, [][]int{{2, 9}, {5, 6, 7}}),
		normal: matrix(genes, [][]int{all, {}, {}}),
		opt:    Options{Hits: 3, Workers: 1}})
	// Every tumor sample carries every gene: the support is the whole
	// domain, far over budget.
	cases = append(cases, supportCase{name: "over budget",
		tumor:  matrix(genes, [][]int{all, all, {1, 2, 3}}),
		normal: matrix(genes, [][]int{{4, 5}, {}}),
		opt:    Options{Hits: 2, Workers: 1}})
	return cases
}

// checkFirstPassCount pins the Evaluated of a hand-built case's first
// pass, when the support pass decides it, against a brute-force count:
// every supported combination once, plus the witness when it is
// unsupported.
func checkFirstPassCount(t *testing.T, hc supportCase) {
	t.Helper()
	opt, err := hc.opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	p := Pass{Tumor: hc.tumor, Normal: hc.normal, Active: bitmat.AllOnes(hc.tumor.Samples()),
		Denom: float64(hc.tumor.Samples() + hc.normal.Samples()), Opt: opt}
	best, cnt, ok, err := supportPass(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		return
	}
	supported, witnessTP := bruteSupport(hc.tumor, hc.normal, opt.Hits)
	want := supported
	if witnessTP == 0 {
		want++
	}
	if cnt.Evaluated != want {
		t.Fatalf("%s: Evaluated %d, want %d (%d supported, witness tp %d); best %v",
			hc.name, cnt.Evaluated, want, supported, witnessTP, best)
	}
}

// bruteSupport counts the h-combinations some tumor sample carries in
// full, and returns the tumor count of the lexicographically first
// combination no normal sample carries (-1 when there is none).
func bruteSupport(tumor, normal *bitmat.Matrix, h int) (supported uint64, witnessTP int) {
	witnessTP = -1
	var rec func(genes []int, from int)
	rec = func(genes []int, from int) {
		if len(genes) == h {
			tp := tumor.ComboPopCount(genes...)
			if tp > 0 {
				supported++
			}
			if witnessTP < 0 && normal.ComboPopCount(genes...) == 0 {
				witnessTP = tp
			}
			return
		}
		for g := from; g < tumor.Genes(); g++ {
			rec(append(genes, g), g+1)
		}
	}
	rec(nil, 0)
	return supported, witnessTP
}

// TestSupportCarriedMatchesFresh checks the support state greedy carries
// across passes against one built fresh on the same pass: on every pass
// the carried state settles, the step's winner (genes and F bits) and its
// Evaluated/Pruned must equal supportPass's. It covers h = 2–5 in mask
// and kernelized mode over registry cohorts and seeds, and
// requires a resume from every step, which rebuilds the state on its
// first pass, to reproduce the uninterrupted run's per-step counts.
func TestSupportCarriedMatchesFresh(t *testing.T) {
	var specs []dataset.Spec
	for _, code := range []string{"ACC", "BRCA", "LGG", "LUAD"} {
		spec, err := dataset.ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	modes := []struct {
		name string
		opt  Options
	}{
		{"mask", Options{}},
		{"kernel", Options{Kernelize: true}},
	}
	carried := 0
	for _, spec := range specs {
		for seed := int64(1); seed <= 3; seed++ {
			c := pruneCohort(t, spec, 30, seed)
			for hits := 2; hits <= MaxHits; hits++ {
				for _, m := range modes {
					opt := m.opt
					opt.Hits, opt.Workers = hits, 2
					name := fmt.Sprintf("%s/seed %d/h=%d/%s", spec.Code, seed, hits, m.name)
					want, cps, n := carriedRun(t, name, c, opt)
					carried += n
					for i, cp := range cps {
						got, err := Resume(c.Tumor, c.Normal, opt, cp)
						if err != nil {
							t.Fatal(err)
						}
						sameCounts(t, fmt.Sprintf("%s resumed after step %d", name, i), got, want, i+1)
					}
				}
			}
		}
	}
	if carried == 0 {
		t.Fatal("no settled pass came after the support state was built")
	}
	t.Logf("%d settled passes decided from carried state", carried)
}

// carriedRun runs greedy, checking each settled step against a fresh
// supportPass on its pass, and returns the result, a checkpoint after each
// step, and how many settled passes followed the run's first settled one.
func carriedRun(t *testing.T, name string, c *dataset.Cohort, opt Options) (*Result, []*Checkpoint, int) {
	t.Helper()
	resolved, err := opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	kern, err := newKernel(c.Tumor, c.Normal, resolved)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := domainSize(c.Tumor.Genes(), opt.Hits)
	kept, _ := domainSize(len(kern.Keep), opt.Hits)
	var (
		fresh    reduce.Combo
		freshCnt Counts
		pending  bool
		settled  int
		cps      []*Checkpoint
	)
	hooks := Hooks{
		Settled: func(p Pass) {
			best, cnt, ok, err := supportPass(context.Background(), p)
			if err != nil || !ok {
				t.Fatalf("%s step %d: carried state settled the pass, a fresh build did not (ok=%v, %v)",
					name, p.Step, ok, err)
			}
			fresh, freshCnt, pending = kern.RemapCombo(best), cnt, true
			settled++
		},
		Commit: func(res *Result) error {
			cps = append(cps, res.ToCheckpoint(c.Tumor, c.Normal))
			if !pending {
				return nil
			}
			pending = false
			st := res.Steps[len(res.Steps)-1]
			if st.Combo.Genes != fresh.Genes || math.Float64bits(st.Combo.F) != math.Float64bits(fresh.F) {
				t.Fatalf("%s step %d: carried state chose %v (F bits %#x), fresh build %v (F bits %#x)",
					name, len(res.Steps)-1, st.Combo, math.Float64bits(st.Combo.F), fresh, math.Float64bits(fresh.F))
			}
			if st.Evaluated != freshCnt.Evaluated || st.Pruned != freshCnt.Pruned+full-kept {
				t.Fatalf("%s step %d: carried Evaluated %d Pruned %d, fresh build %d and %d (+%d kernel-dropped)",
					name, len(res.Steps)-1, st.Evaluated, st.Pruned, freshCnt.Evaluated, freshCnt.Pruned, full-kept)
			}
			return nil
		},
	}
	res, err := Greedy(context.Background(), c.Tumor, c.Normal, opt, nil, hooks)
	if err != nil {
		t.Fatal(err)
	}
	return res, cps, max(settled-1, 0)
}

// sameCounts requires a resumed run to equal the uninterrupted one: every
// step's combination and F bits, the per-step counts of the steps it ran
// itself (from step k on, after k replayed ones), and the run totals.
func sameCounts(t *testing.T, name string, got, want *Result, k int) {
	t.Helper()
	sameResult(t, name, got, want)
	for i := k; i < len(want.Steps); i++ {
		g, w := got.Steps[i], want.Steps[i]
		if g.Evaluated != w.Evaluated || g.Pruned != w.Pruned {
			t.Fatalf("%s: step %d counted %d+%d, uninterrupted run %d+%d", name, i,
				g.Evaluated, g.Pruned, w.Evaluated, w.Pruned)
		}
	}
	if got.Evaluated != want.Evaluated || got.Pruned != want.Pruned {
		t.Fatalf("%s: totals %d+%d, uninterrupted run %d+%d", name,
			got.Evaluated, got.Pruned, want.Evaluated, want.Pruned)
	}
}

// foldSupport is the support build the hashed build replaced, kept as its
// oracle: each active column's h-subsets are enumerated with the tumor
// fold active ∧ rows carried down the prefix, and a subset is recorded
// only at the lowest set bit of the full fold, its lowest carrying
// column, and filed under every set bit.
type foldSupport struct {
	h     int
	genes [][reduce.MaxHits]int32
	tp    []int32
	// recs[c] lists the records build column c carries; weight[c] is its
	// multiplicity (nil: 1).
	recs   [][]int32
	weight []int32
}

func buildFoldSupport(p Pass) *foldSupport {
	h := p.Opt.Hits
	start, rows := p.Tumor.Columns(p.Active.Words())
	n := len(start) - 1
	fs := &foldSupport{h: h, recs: make([][]int32, n)}
	if w := p.TumorWeights; w != nil {
		fs.weight = make([]int32, n)
		for c := range n {
			fs.weight[c] = int32(w.Weight(c))
		}
	}
	sc := foldScan{tumor: p.Tumor, fs: fs, fold: foldBuffers(p.Active.Words(), h)}
	for s := range n {
		if start[s+1]-start[s] >= h {
			sc.subsets(s, rows[start[s]:start[s+1]], 0, 0)
		}
	}
	return fs
}

// foldScan is foldSupport's enumeration state.
type foldScan struct {
	tumor *bitmat.Matrix
	fs    *foldSupport
	// fold[d] is active ∧ the tumor rows of pick[:d].
	fold [][]uint64
	pick [reduce.MaxHits]int
}

func (sc *foldScan) subsets(s int, genes []int32, d, from int) {
	h := sc.fs.h
	for i := from; i <= len(genes)-(h-d); i++ {
		sc.pick[d] = int(genes[i])
		bitmat.AndWords(sc.fold[d+1], sc.fold[d], sc.tumor.Row(sc.pick[d]))
		if d+1 < h {
			sc.subsets(s, genes, d+1, i+1)
			continue
		}
		if lowest := firstBit(sc.fold[h]); lowest == s {
			sc.record()
		}
	}
}

// firstBit is the lowest set bit of words, or -1.
func firstBit(words []uint64) int {
	for w, x := range words {
		if x != 0 {
			return w*bitmat.WordBits + bits.TrailingZeros64(x)
		}
	}
	return -1
}

func (sc *foldScan) record() {
	fs := sc.fs
	r := int32(len(fs.tp))
	tp := int32(0)
	for w, x := range sc.fold[fs.h] {
		for ; x != 0; x &= x - 1 {
			c := w*bitmat.WordBits + bits.TrailingZeros64(x)
			fs.recs[c] = append(fs.recs[c], r)
			tp += fs.columnWeight(c)
		}
	}
	fs.genes = append(fs.genes, pickGenes(sc.pick, fs.h))
	fs.tp = append(fs.tp, tp)
}

func (fs *foldSupport) columnWeight(c int) int32 {
	if fs.weight == nil {
		return 1
	}
	return fs.weight[c]
}

// remove takes the build columns cols out: each one's weight leaves the
// tumor count of every record it carries.
func (fs *foldSupport) remove(cols []int) {
	for _, c := range cols {
		for _, r := range fs.recs[c] {
			fs.tp[r] -= fs.columnWeight(c)
		}
	}
}

// decideAll is decide without its stop rule or its bound: the
// Better-maximum over every record with tp > 0, and their count.
func (fs *foldSupport) decideAll(env *kernelEnv) (reduce.Combo, uint64) {
	best, live := reduce.None, uint64(0)
	for r, tp := range fs.tp {
		if tp == 0 {
			continue
		}
		live++
		g := fs.genes[r]
		if c := (reduce.Combo{Genes: g, F: env.score(int(tp), env.pickNH(g, fs.h))}); c.Better(best) {
			best = c
		}
	}
	return best, live
}

// supportOracleCase is one random instance for TestSupportBuildMatchesFoldOracle.
type supportOracleCase struct {
	genes, tumor, normal, hits int
	weighted                   bool
	// pool, when set, is the genes the tumor columns draw from; dup makes
	// every tumor column carry the same genes.
	pool []int32
	dup  bool
}

// TestSupportBuildMatchesFoldOracle checks the hashed build against the
// fold-based oracle on random instances: h = 2–5, tumor and normal
// weights on and off, gene counts just below, at
// and above the 8-, 12- and 16-bit gene id boundaries (the last is where
// records switch from uint16 to int32 ids), and cohorts with empty and
// all-duplicate columns. The build must hold the oracle's (genes, tp)
// records and file the same records under each column; then, over
// greedy-like steps that remove covered columns from both, every decide
// must return the winner (genes and F bits) of a decide over all records,
// and Evaluated must count the oracle's live records.
func TestSupportBuildMatchesFoldOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var cases []supportOracleCase
	for hits := 2; hits <= MaxHits; hits++ {
		// Gene counts whose support budget, C(G, h)/16, the random
		// columns fit.
		small := map[int][]int{2: {60, 200}, 3: {30, 60}, 4: {24, 40}, 5: {22, 30}}
		for _, genes := range small[hits] {
			for _, nt := range []int{1, 63, 64, 65, 130} {
				cases = append(cases, supportOracleCase{genes: genes, tumor: nt, normal: 20, hits: hits})
			}
		}
		boundaries := []int{255, 256, 257, 65535, 65536, 65537}
		if hits == 5 {
			// C(65537, 5) overflows the domain count, so h = 5 takes
			// the 12-bit boundary instead of the 16-bit one.
			boundaries = []int{255, 256, 257, 4095, 4096, 4097}
		}
		for _, genes := range boundaries {
			// Columns draw from the lowest and the highest ids, so the
			// widest ids land in records.
			pool := []int32{0, 1, 2, 3, int32(genes / 2), int32(genes - 4), int32(genes - 3), int32(genes - 2), int32(genes - 1)}
			cases = append(cases, supportOracleCase{genes: genes, tumor: 70, normal: 9, hits: hits, pool: pool})
		}
		cases = append(cases, supportOracleCase{genes: 100, tumor: 40, normal: 9, hits: hits, dup: true})
	}
	built := 0
	for i, sc := range cases {
		for _, weighted := range []bool{false, true} {
			sc.weighted = weighted
			name := fmt.Sprintf("case %d (G=%d Nt=%d h=%d weighted=%v dup=%v)",
				i, sc.genes, sc.tumor, sc.hits, weighted, sc.dup)
			if checkSupportOracle(t, name, sc, rng) {
				built++
			}
		}
	}
	if 2*built < 3*len(cases) {
		t.Fatalf("only %d of %d instances fit the support budget", built, len(cases)*2)
	}
	t.Logf("%d instances checked", built)
}

// checkSupportOracle builds one random instance's support both ways and
// compares them through a run of steps; it reports false when the
// instance is over the support budget.
func checkSupportOracle(t *testing.T, name string, sc supportOracleCase, rng *rand.Rand) bool {
	t.Helper()
	tumor := bitmat.New(sc.genes, sc.tumor)
	var shared []int32
	for s := range sc.tumor {
		if s%7 == 3 {
			continue // an empty column
		}
		genes := shared
		if genes == nil {
			genes = randomColumn(rng, sc)
			if sc.dup {
				shared = genes
			}
		}
		for _, g := range genes {
			tumor.Set(int(g), s)
		}
	}
	normal := bitmat.New(sc.genes, sc.normal)
	for s := range sc.normal {
		for range rng.Intn(3) {
			normal.Set(rng.Intn(sc.genes), s)
		}
	}
	opt, err := Options{Hits: sc.hits}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	active := bitmat.AllOnes(sc.tumor)
	for s := range sc.tumor {
		if s%5 == 1 {
			active.Clear(s)
		}
	}
	p := Pass{Tumor: tumor, Normal: normal, Active: active, Opt: opt,
		Denom: float64(sc.tumor + sc.normal)}
	if sc.weighted {
		p.TumorWeights = randomWeights(rng, sc.tumor)
		p.NormalWeights = randomWeights(rng, sc.normal)
		p.Denom = float64(p.TumorWeights.Total() + p.NormalWeights.Total())
	}

	var st supportState
	ok, err := st.build(context.Background(), p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !ok {
		return false
	}
	fs := buildFoldSupport(p)
	sameRecords(t, name, &st, fs)

	for step := 0; ; step++ {
		env := newKernelEnv(p.Tumor, p.Normal, p.Active, p.TumorWeights, p.NormalWeights, p.Opt.Alpha, p.Denom)
		got := st.decide(env)
		want, live := fs.decideAll(env)
		if got.Genes != want.Genes || math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Fatalf("%s step %d: decide chose %v (F bits %#x), a decide over all records %v (F bits %#x)",
				name, step, got, math.Float64bits(got.F), want, math.Float64bits(want.F))
		}
		if st.live != live {
			t.Fatalf("%s step %d: Evaluated %d, the oracle has %d live records", name, step, st.live, live)
		}
		if live == 0 {
			return true
		}
		// Cover the winner's carriers, or, when it has none left, one
		// random live column.
		var covered []int
		for c := range sc.tumor {
			if p.Active.Get(c) && carries(tumor, c, want) {
				covered = append(covered, c)
			}
		}
		if len(covered) == 0 {
			for c := range sc.tumor {
				if p.Active.Get(c) && len(fs.recs[c]) > 0 && tumor.Get(int(want.Genes[0]), c) {
					covered = append(covered, c)
					break
				}
			}
		}
		if len(covered) == 0 {
			t.Fatalf("%s step %d: no active column carries a live record", name, step)
		}
		mask := bitmat.NewVec(sc.tumor)
		for _, c := range covered {
			mask.Set(c)
		}
		st.remove(mask.Words())
		fs.remove(covered)
		for _, c := range covered {
			p.Active.Clear(c)
		}
	}
}

// randomColumn draws a tumor column's genes: up to h+2 of them, from the
// case's pool or the whole gene range.
func randomColumn(rng *rand.Rand, sc supportOracleCase) []int32 {
	n := rng.Intn(sc.hits + 3)
	var genes []int32
	for range n {
		if sc.pool != nil {
			genes = append(genes, sc.pool[rng.Intn(len(sc.pool))])
		} else {
			genes = append(genes, int32(rng.Intn(min(sc.genes, sc.hits+6))))
		}
	}
	slices.Sort(genes)
	return slices.Compact(genes)
}

func randomWeights(rng *rand.Rand, n int) *bitmat.Weights {
	mult := make([]int, n)
	for i := range mult {
		mult[i] = 1 + rng.Intn(4)
	}
	return bitmat.NewWeights(mult)
}

// carries reports whether tumor column c holds every gene of combo.
func carries(tumor *bitmat.Matrix, c int, combo reduce.Combo) bool {
	for _, g := range combo.GeneIDs() {
		if !tumor.Get(g, c) {
			return false
		}
	}
	return true
}

// sameRecords requires st to hold fs's (genes, tp) records, and each
// build column to carry the same records in both.
func sameRecords(t *testing.T, name string, st *supportState, fs *foldSupport) {
	t.Helper()
	type rec struct {
		genes [reduce.MaxHits]int32
		tp    int32
	}
	cmp := func(a, b rec) int {
		if c := slices.Compare(a.genes[:], b.genes[:]); c != 0 {
			return c
		}
		return int(a.tp - b.tp)
	}
	var got, want []rec
	for r := range st.tp {
		got = append(got, rec{st.genes.tuple(r), st.tp[r]})
	}
	for r := range fs.tp {
		want = append(want, rec{fs.genes[r], fs.tp[r]})
	}
	slices.SortFunc(got, cmp)
	slices.SortFunc(want, cmp)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d records, the oracle %d; first records %v, oracle %v",
			name, len(got), len(want), got[:min(len(got), 4)], want[:min(len(want), 4)])
	}
	tuples := func(recs []int32, tuple func(int32) [reduce.MaxHits]int32) [][reduce.MaxHits]int32 {
		out := make([][reduce.MaxHits]int32, len(recs))
		for i, r := range recs {
			out[i] = tuple(r)
		}
		slices.SortFunc(out, func(a, b [reduce.MaxHits]int32) int { return slices.Compare(a[:], b[:]) })
		return out
	}
	for c := range fs.recs {
		g := tuples(st.colRecs[st.colStart[c]:st.colStart[c+1]], func(r int32) [reduce.MaxHits]int32 { return st.genes.tuple(int(r)) })
		w := tuples(fs.recs[c], func(r int32) [reduce.MaxHits]int32 { return fs.genes[r] })
		if !slices.Equal(g, w) {
			t.Fatalf("%s: column %d carries %v, the oracle %v", name, c, g, w)
		}
	}
}

// TestSupportScratchSharedAcrossRuns runs greedy on several cohorts from
// concurrent goroutines, which take, grow and hand back the one kept
// build scratch in any order, and requires every run to equal the same
// run made alone: no state may keep a reference into a scratch that a
// later build reuses.
func TestSupportScratchSharedAcrossRuns(t *testing.T) {
	type run struct {
		c   *dataset.Cohort
		opt Options
	}
	var runs []run
	for i, code := range []string{"ACC", "BRCA", "LGG", "LUAD"} {
		spec, err := dataset.ByCode(code)
		if err != nil {
			t.Fatal(err)
		}
		for _, genes := range []int{30, 60} {
			runs = append(runs, run{pruneCohort(t, spec, genes, int64(i+1)),
				Options{Hits: 2 + i%3, MaxIterations: 6, Workers: 1, Kernelize: genes == 60}})
		}
	}
	want := make([]*Result, len(runs))
	for i, r := range runs {
		res, err := Run(r.c.Tumor, r.c.Normal, r.opt)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(runs))
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range runs {
				i := (k + g) % len(runs)
				res, err := Run(runs[i].c.Tumor, runs[i].c.Normal, runs[i].opt)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Steps) != len(want[i].Steps) {
					errs <- fmt.Errorf("run %d took %d steps, alone %d", i, len(res.Steps), len(want[i].Steps))
					return
				}
				for s := range want[i].Steps {
					if res.Steps[s].Combo != want[i].Steps[s].Combo ||
						res.Steps[s].Evaluated != want[i].Steps[s].Evaluated {
						errs <- fmt.Errorf("run %d step %d differs from the run made alone", i, s)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
