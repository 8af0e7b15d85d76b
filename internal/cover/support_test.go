package cover

import (
	"context"
	"fmt"
	"math"
	"slices"
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
	t    *testing.T
	name string
	// genes is the run's gene count; a BitSplice pass over fewer genes is
	// splicePass's compacted sub-pass, which the support pass never sees.
	genes    int
	outcomes map[string]int
}

// hooks returns Greedy hooks that check each pass: a settled pass must
// reproduce the exhaustive winner bit for bit and account for the whole
// domain; a scanned pass must be one the support pass declined.
func (sc *supportChecker) hooks() Hooks {
	return Hooks{
		Settled: func(p Pass) { sc.check(p, true) },
		Scan: func(ctx context.Context, p Pass) (reduce.Combo, Counts, error) {
			if !p.Opt.BitSplice || p.Tumor.Genes() == sc.genes {
				sc.check(p, false)
			}
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
// cohorts, h = 2–5, in mask, kernelized and BitSplice mode, and on
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
		{"splice", Options{BitSplice: true}},
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
					sc := &supportChecker{t: t, name: name, genes: genes, outcomes: outcomes}
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
		sc := &supportChecker{t: t, name: hc.name, genes: hc.tumor.Genes(), outcomes: outcomes}
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
// Evaluated/Pruned must equal supportPass's. It covers h = 2–5 in mask,
// kernelized and BitSplice mode over registry cohorts and seeds, and
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
		{"splice", Options{BitSplice: true}},
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
