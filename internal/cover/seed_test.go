package cover

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/dataset"
	"repro/internal/kernelize"
	"repro/internal/reduce"
)

// seedSchemes are the prunable kernels' hit counts, the only ones the
// probe seeds.
var seedSchemes = []Options{
	{Hits: 3},
	{Hits: 4},
	{Hits: 5},
}

// seedEngines returns the engines a seeded scheme runs on: both, or dense
// alone for a scheme with no sparse kernel.
func seedEngines(s Scheme) []Engine {
	if sparseCrossover(s) == 0 {
		return []Engine{EngineDense}
	}
	return []Engine{EngineDense, EngineSparse}
}

// partialActive clears every third tumor sample, so the probe and the
// kernels run under a mask as they do after the first greedy step.
func partialActive(samples int) *bitmat.Vec {
	v := bitmat.AllOnes(samples)
	for i := 0; i < samples; i += 3 {
		v.Clear(i)
	}
	return v
}

func TestSeedSize(t *testing.T) {
	for _, tc := range []struct{ g, h, want int }{
		{100, 4, 24}, // C(24,4) = 10626 ≤ C(100,4)/16
		{60, 3, 24},  // 2024 ≤ 34220/16 = 2138
		{40, 3, 16},  // C(17,3) = 680 > 9880/16 = 617
		{20, 3, 8},   // C(9,3) = 84 > 1140/16 = 71
		{12, 4, 6},   // C(7,4) = 35 > 495/16 = 30
		{6, 3, 3},    // only C(3,3) = 1 ≤ 20/16 = 1
		{5, 4, 0},    // C(5,4)/16 = 0: nothing fits
	} {
		if got := seedSize(tc.g, tc.h); got != tc.want {
			t.Errorf("seedSize(%d, %d) = %d, want %d", tc.g, tc.h, got, tc.want)
		}
	}
}

// TestSeededPassMatchesUnseededAndNoPrune scans one pass partition by
// partition, once from the seed and once from None: both reduce to the
// NoPrune winner, both scan the whole domain, and the seeded scan never
// scores more — per partition — than the unseeded one.
func TestSeededPassMatchesUnseededAndNoPrune(t *testing.T) {
	cohorts := []*dataset.Cohort{
		pruneCohort(t, dataset.BRCA(), 26, 7),
		pruneCohort(t, dataset.LGG(), 24, 11),
		pruneCohort(t, dataset.ACC(), 22, 19),
	}
	for ci, c := range cohorts {
		for _, active := range []*bitmat.Vec{nil, partialActive(c.Tumor.Samples())} {
			for _, base := range seedSchemes {
				for _, engine := range seedEngines(SchemeFor(base.Hits)) {
					opt := base
					opt.Engine = engine
					label := fmt.Sprintf("cohort %d masked=%v %s %s", ci, active != nil, SchemeFor(opt.Hits), engine)
					exact := opt
					exact.NoPrune = true
					exact.Workers = 1
					want, wantCnt, err := FindBest(c.Tumor, c.Normal, active, exact)
					if err != nil {
						t.Fatal(err)
					}
					p := plainInstance(label, c, active).pass(t, opt)
					if passSeed(p) == reduce.None {
						t.Fatalf("%s: no seed on a %d-gene domain", label, c.Tumor.Genes())
					}
					parts, err := PartitionPlan(c.Tumor.Genes(), opt, 8)
					if err != nil {
						t.Fatal(err)
					}
					seeded, unseeded := reduce.None, reduce.None
					var sCnt Counts
					for i := range parts {
						sb, sn := scanAll(t, p, parts[i:i+1], true)
						ub, un := scanAll(t, p, parts[i:i+1], false)
						if sn.Scanned() != un.Scanned() {
							t.Fatalf("%s partition %v: seeded scanned %d, unseeded %d", label, parts[i], sn.Scanned(), un.Scanned())
						}
						if sn.Evaluated > un.Evaluated {
							t.Fatalf("%s partition %v: seeded evaluated %d > unseeded %d", label, parts[i], sn.Evaluated, un.Evaluated)
						}
						if sb.Better(seeded) {
							seeded = sb
						}
						if ub.Better(unseeded) {
							unseeded = ub
						}
						sCnt.add(sn)
					}
					if seeded != want || unseeded != want {
						t.Fatalf("%s: seeded %v, unseeded %v, NoPrune %v", label, seeded, unseeded, want)
					}
					if sCnt.Scanned() != wantCnt.Evaluated {
						t.Fatalf("%s: scanned %d, domain %d", label, sCnt.Scanned(), wantCnt.Evaluated)
					}
				}
			}
		}
	}
}

// TestSeedFMatchesKernelF pins the property strict pruning relies on: the
// seed's F is bit-identical to the F a kernel computes for the same
// combination, on both engines, with and without kernel weights. The
// kernel side scans the sub-instance made of the seed's genes alone, a
// domain of exactly one combination.
func TestSeedFMatchesKernelF(t *testing.T) {
	c := pruneCohort(t, dataset.ACC(), 24, 19)
	cases := []scanInstance{plainInstance("plain", c, partialActive(c.Tumor.Samples()))}
	for _, hits := range []int{3, 4} {
		kern, err := kernelize.Reduce(c.Tumor, c.Normal, hits)
		if err != nil {
			t.Fatal(err)
		}
		if kern.TumorWeights == nil || kern.NormalWeights == nil {
			t.Fatalf("h=%d: cohort merged no columns; the weighted case is not exercised", hits)
		}
		cases = append(cases, scanInstance{name: fmt.Sprintf("kernel%d", hits),
			tumor: kern.Tumor, normal: kern.Normal, tw: kern.TumorWeights, nw: kern.NormalWeights,
			active: kern.MapActive(partialActive(c.Tumor.Samples())),
			denom:  float64(c.Tumor.Samples() + c.Normal.Samples())})
	}
	for _, in := range cases {
		for _, base := range seedSchemes {
			seed := passSeed(in.pass(t, base))
			if seed == reduce.None {
				t.Fatalf("%s %s: no seed", in.name, SchemeFor(base.Hits))
			}
			ids := seed.GeneIDs()
			subT, subN := in.tumor.SelectRows(ids), in.normal.SelectRows(ids)
			for _, engine := range seedEngines(SchemeFor(base.Hits)) {
				opt := base
				opt.Engine = engine
				opt.NoPrune = true
				parts, err := PartitionPlan(len(ids), opt, 1)
				if err != nil {
					t.Fatal(err)
				}
				sub := in
				sub.tumor, sub.normal = subT, subN
				got, n := scanAll(t, sub.pass(t, opt), parts, false)
				if n.Evaluated != 1 {
					t.Fatalf("%s %s %s: sub-instance scored %d combinations, want 1", in.name, SchemeFor(base.Hits), engine, n.Evaluated)
				}
				if math.Float64bits(got.F) != math.Float64bits(seed.F) {
					t.Fatalf("%s %s %s: kernel F %v, seed F %v", in.name, SchemeFor(base.Hits), engine, got.F, seed.F)
				}
			}
		}
	}
}

// TestFindBestCountsDeterministic: with seeded partition-local
// incumbents, runs with equal Workers report equal Evaluated/Pruned, both
// per pass and per greedy step.
func TestFindBestCountsDeterministic(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 26, 7)
	for _, base := range seedSchemes {
		for _, engine := range seedEngines(SchemeFor(base.Hits)) {
			opt := base
			opt.Engine = engine
			opt.Workers = 3
			_, first, err := FindBest(c.Tumor, c.Normal, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 5; rep++ {
				_, n, err := FindBest(c.Tumor, c.Normal, nil, opt)
				if err != nil {
					t.Fatal(err)
				}
				if n != first {
					t.Fatalf("%s %s repeat %d: counts %+v, first run %+v", SchemeFor(opt.Hits), engine, rep, n, first)
				}
			}
		}
	}
	for _, kern := range []bool{false, true} {
		opt := Options{Hits: 3, Workers: 3, Kernelize: kern}
		a, err := Run(c.Tumor, c.Normal, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(c.Tumor, c.Normal, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Steps) != len(b.Steps) {
			t.Fatalf("kernelize=%v: %d steps vs %d", kern, len(a.Steps), len(b.Steps))
		}
		for i := range a.Steps {
			if a.Steps[i].Evaluated != b.Steps[i].Evaluated || a.Steps[i].Pruned != b.Steps[i].Pruned {
				t.Fatalf("kernelize=%v step %d: counts %d/%d vs %d/%d", kern, i,
					a.Steps[i].Evaluated, a.Steps[i].Pruned, b.Steps[i].Evaluated, b.Steps[i].Pruned)
			}
		}
	}
}
