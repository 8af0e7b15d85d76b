package cover

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/dataset"
	"repro/internal/kernelize"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// scanInstance is one pass's instance: the matrices, the active mask and,
// for a kernelized instance, the merged columns' weights.
type scanInstance struct {
	name          string
	tumor, normal *bitmat.Matrix
	tw, nw        *bitmat.Weights
	active        *bitmat.Vec
	denom         float64
}

// pass builds the Pass ScanPass scans, with opt resolved as Greedy
// resolves it.
func (in scanInstance) pass(t *testing.T, opt Options) Pass {
	t.Helper()
	opt, err := opt.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	active := in.active
	if active == nil {
		active = bitmat.AllOnes(in.tumor.Samples())
	}
	return Pass{Tumor: in.tumor, Normal: in.normal, Active: active,
		TumorWeights: in.tw, NormalWeights: in.nw, Denom: in.denom, Opt: opt}
}

// plainInstance is a cohort's unkernelized instance under active.
func plainInstance(name string, c *dataset.Cohort, active *bitmat.Vec) scanInstance {
	return scanInstance{name: name, tumor: c.Tumor, normal: c.Normal, active: active,
		denom: float64(c.Tumor.Samples() + c.Normal.Samples())}
}

// passSeed is the seed incumbent a seeded ScanPass of p starts from.
func passSeed(p Pass) reduce.Combo {
	return seedIncumbent(newKernelEnv(p.Tumor, p.Normal, p.Active, p.TumorWeights, p.NormalWeights, p.Opt.Alpha, p.Denom), p.Opt)
}

// scanAll runs ScanPass with no supervisor and fails the test on an error.
func scanAll(t *testing.T, p Pass, parts []sched.Partition, seeded bool) (reduce.Combo, Counts) {
	t.Helper()
	best, n, err := ScanPass(context.Background(), p, parts, seeded, nil)
	if err != nil {
		t.Fatal(err)
	}
	return best, n
}

// TestScanPassPlansAcrossEnginesAndKernels scans one pass with three
// plans — one partition, Workers×PartitionsPerWorker equi-area
// partitions, and the cluster's two-level per-GPU plan — seeded and
// unseeded, on both engines, over plain, masked and kernelized (weighted)
// instances. Every scan returns
// the NoPrune winner and scans exactly C(G, h) combinations; the engines
// agree on the Evaluated/Pruned split; and a seeded scan never evaluates
// more than an unseeded one.
func TestScanPassPlansAcrossEnginesAndKernels(t *testing.T) {
	brca := pruneCohort(t, dataset.BRCA(), 24, 13)
	lgg := pruneCohort(t, dataset.LGG(), 24, 11)
	acc := pruneCohort(t, dataset.ACC(), 24, 19)
	weighted := 0
	for _, base := range seedSchemes {
		base.Workers = 3
		kern, err := kernelize.Reduce(acc.Tumor, acc.Normal, base.Hits)
		if err != nil {
			t.Fatal(err)
		}
		if kern.TumorWeights != nil {
			weighted++
		}
		instances := []scanInstance{
			plainInstance("BRCA", brca, nil),
			plainInstance("LGG masked", lgg, partialActive(lgg.Tumor.Samples())),
			{name: "ACC kernelized", tumor: kern.Tumor, normal: kern.Normal,
				tw: kern.TumorWeights, nw: kern.NormalWeights,
				active: kern.MapActive(partialActive(acc.Tumor.Samples())),
				denom:  float64(acc.Tumor.Samples() + acc.Normal.Samples())},
		}
		for _, in := range instances {
			g := in.tumor.Genes()
			exact := base
			exact.NoPrune = true
			one, err := PartitionPlan(g, exact, 1)
			if err != nil {
				t.Fatal(err)
			}
			want, ref := scanAll(t, in.pass(t, exact), one, false)
			domain := combinat.MustBinomial(uint64(g), uint64(base.Hits))
			if ref.Evaluated != domain || ref.Pruned != 0 {
				t.Fatalf("%s %s: NoPrune scan counted %+v, want %d evaluated", in.name, SchemeFor(base.Hits), ref, domain)
			}
			curve, err := SchemeCurve(uint64(g), SchemeFor(base.Hits))
			if err != nil {
				t.Fatal(err)
			}
			pool, err := PartitionPlan(g, base, base.Workers*PartitionsPerWorker)
			if err != nil {
				t.Fatal(err)
			}
			tl, err := sched.NewTwoLevel(curve, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			var perGPU []sched.Partition
			for _, gpus := range tl.PerNode {
				perGPU = append(perGPU, gpus...)
			}
			plans := map[string][]sched.Partition{"one": one, "pool": pool, "perGPU": perGPU}
			for plan, parts := range plans {
				var unseeded Counts
				for _, seeded := range []bool{false, true} {
					var dense Counts
					for _, engine := range seedEngines(SchemeFor(base.Hits)) {
						opt := base
						opt.Engine = engine
						label := fmt.Sprintf("%s %s %s plan=%s seeded=%v", in.name, SchemeFor(opt.Hits), engine, plan, seeded)
						got, n := scanAll(t, in.pass(t, opt), parts, seeded)
						if got != want || math.Float64bits(got.F) != math.Float64bits(want.F) {
							t.Fatalf("%s: winner %v, NoPrune %v", label, got, want)
						}
						if n.Scanned() != domain {
							t.Fatalf("%s: scanned %d, C(%d, %d) = %d", label, n.Scanned(), g, opt.Hits, domain)
						}
						if engine == EngineDense {
							dense = n
						} else if n != dense {
							t.Fatalf("%s: counts %+v, dense engine %+v", label, n, dense)
						}
					}
					if !seeded {
						unseeded = dense
					} else if dense.Evaluated > unseeded.Evaluated {
						t.Fatalf("%s %s plan=%s: seeded evaluated %d > unseeded %d",
							in.name, SchemeFor(base.Hits), plan, dense.Evaluated, unseeded.Evaluated)
					}
				}
			}
		}
	}
	if weighted == 0 {
		t.Fatal("no kernel merged a column: the weighted instance is never exercised")
	}
}

// TestScanPassDroppedSeedPartition drops each partition of a seeded pass
// in turn through try, the seed's own partition among them. The survivors
// have pruned against the seed's bound, so only the seed joining the
// reduction keeps the winner the best of the seed and the survivors.
func TestScanPassDroppedSeedPartition(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 40, 7)
	for _, base := range []Options{{Hits: 3}, {Hits: 4}} {
		base.Workers = 1
		in := plainInstance("BRCA", c, nil)
		p := in.pass(t, base)
		seed := passSeed(p)
		if seed == reduce.None {
			t.Fatalf("%s: no seed", SchemeFor(p.Opt.Hits))
		}
		parts, err := PartitionPlan(c.Tumor.Genes(), p.Opt, PartitionsPerWorker)
		if err != nil {
			t.Fatal(err)
		}
		alone := make([]reduce.Combo, len(parts))
		for j := range parts {
			alone[j], _ = scanAll(t, p, parts[j:j+1], false)
		}
		for drop := range parts {
			want := seed
			for j, b := range alone {
				if j != drop && b.Better(want) {
					want = b
				}
			}
			got, _, err := ScanPass(context.Background(), p, parts, true, func(i int, scan func()) bool {
				if i == drop {
					return false
				}
				scan()
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s dropping partition %d: winner %v, want %v (seed %v)", SchemeFor(p.Opt.Hits), drop, got, want, seed)
			}
		}
	}
}

// TestScanPassAllocationsFlatInPartitions pins the pool's allocation
// profile: buffers are per worker and per pass, never per partition, so
// cutting a pass into 64 partitions allocates no more than cutting it
// into 4.
func TestScanPassAllocationsFlatInPartitions(t *testing.T) {
	c := pruneCohort(t, dataset.BRCA(), 40, 7)
	in := plainInstance("BRCA", c, nil)
	for _, engine := range []Engine{EngineDense, EngineSparse} {
		p := in.pass(t, Options{Hits: 4, Workers: 2, Engine: engine})
		allocs := map[int]float64{}
		for _, n := range []int{4, 64} {
			parts, err := PartitionPlan(c.Tumor.Genes(), p.Opt, n)
			if err != nil {
				t.Fatal(err)
			}
			allocs[n] = testing.AllocsPerRun(20, func() {
				if _, _, err := ScanPass(context.Background(), p, parts, true, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		if allocs[64] > allocs[4] {
			t.Fatalf("%s: %v allocations per pass with 64 partitions, %v with 4", engine, allocs[64], allocs[4])
		}
		t.Logf("%s: %v allocations per pass with 4 or 64 partitions", engine, allocs[4])
	}
}
