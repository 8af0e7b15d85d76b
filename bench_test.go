package repro

// One benchmark per table/figure of the paper's evaluation (the mapping is
// DESIGN.md §4). Benchmarks that exercise the performance model are fast;
// those that run the real kernels use CPU-enumerable gene universes.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/cluster"
	"repro/internal/combinat"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/gene"
	"repro/internal/kernelize"
	"repro/internal/mpisim"
	"repro/internal/mutlevel"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// BenchmarkFig2Workload (E1): per-thread workload evaluation under the
// triangular and tetrahedral mappings.
func BenchmarkFig2Workload(b *testing.B) {
	for _, bench := range []struct {
		name  string
		curve sched.Curve
	}{
		{"2x2", sched.NewTri2x2(19411)},
		{"3x1", sched.NewTetra3x1(19411)},
	} {
		b.Run(bench.name, func(b *testing.B) {
			n := bench.curve.Threads()
			var sink uint64
			for i := 0; i < b.N; i++ {
				sink += bench.curve.WorkAt(uint64(i) % n)
			}
			_ = sink
		})
	}
}

// BenchmarkFig3Scheduling (E2): partitioning the paper's example workload
// (and the paper-scale one) under ED and EA.
func BenchmarkFig3Scheduling(b *testing.B) {
	curve := sched.NewTetra3x1(50)
	b.Run("ED/G=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sched.EquiDistance(curve, 30); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("EA/G=50", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sched.EquiArea(curve, 30); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig4aStrongScaling (E3): the full 100→1000-node strong-scaling
// study on the cluster model.
func BenchmarkFig4aStrongScaling(b *testing.B) {
	w := cluster.BRCA4Hit(cover.Scheme3x1)
	for i := 0; i < b.N; i++ {
		pts, err := cluster.StrongScaling(w, []int{100, 500, 1000})
		if err != nil {
			b.Fatal(err)
		}
		if pts[2].Efficiency < 0.7 {
			b.Fatal("efficiency collapsed")
		}
	}
}

// BenchmarkFig4bWeakScaling (E4): the weak-scaling study.
func BenchmarkFig4bWeakScaling(b *testing.B) {
	w := cluster.BRCA4Hit(cover.Scheme3x1)
	for i := 0; i < b.N; i++ {
		if _, err := cluster.WeakScaling(w, []int{100, 300, 500}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEDvsEA (E6): simulating the full 2x2 BRCA run at 100 nodes under
// both schedulers.
func BenchmarkEDvsEA(b *testing.B) {
	for _, s := range []cover.Scheduler{cover.EquiArea, cover.EquiDistance} {
		b.Run(s.String(), func(b *testing.B) {
			w := cluster.BRCA4Hit(cover.Scheme2x2)
			w.Scheduler = s
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Simulate(cluster.Summit(100), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Utilization (E7): the 600-GPU ACC 2x2 profile.
func BenchmarkFig6Utilization(b *testing.B) {
	w := cluster.ACC4Hit(cover.Scheme2x2)
	for i := 0; i < b.N; i++ {
		rep, err := cluster.Simulate(cluster.Summit(100), w)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.GPUMetrics) != 600 {
			b.Fatal("wrong GPU count")
		}
	}
}

// BenchmarkFig7Utilization (E8): the 600-GPU BRCA 3x1 profile.
func BenchmarkFig7Utilization(b *testing.B) {
	w := cluster.BRCA4Hit(cover.Scheme3x1)
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Simulate(cluster.Summit(100), w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8CommOverlap (E9): a 1000-rank virtual-time reduction round.
func BenchmarkFig8CommOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		world := mpisim.NewWorld(1000, mpisim.Summit())
		err := world.Run(func(r *mpisim.Rank) error {
			r.Compute(1)
			r.Reduce(reduce.NewCombo(float64(r.ID()), r.ID()+1, r.ID()+2),
				reduce.BytesPerRecord, func(a, c any) any {
					ca, cb := a.(reduce.Combo), c.(reduce.Combo)
					if cb.Better(ca) {
						return cb
					}
					return ca
				})
			r.Bcast(reduce.None, reduce.BytesPerRecord)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Classification (E10): one cancer type's full train/test
// pipeline at a small gene universe.
func BenchmarkFig9Classification(b *testing.B) {
	spec := dataset.LGG().Scaled(40)
	for i := 0; i < b.N; i++ {
		cohort, err := dataset.Generate(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.TrainTest(cohort, 0.75, 1, cover.Options{Hits: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Histogram (E11): generating the LGG cohort with MAF records
// and binning the IDH1/MUC6 position histograms.
func BenchmarkFig10Histogram(b *testing.B) {
	spec := dataset.LGG().Scaled(70)
	for i := 0; i < b.N; i++ {
		cohort, err := dataset.Generate(spec, 42)
		if err != nil {
			b.Fatal(err)
		}
		for _, sym := range []string{"IDH1", "MUC6"} {
			gene.HistogramPositions(cohort.Mutations, sym, gene.Tumor)
			gene.HistogramPositions(cohort.Mutations, sym, gene.Normal)
		}
	}
}

// BenchmarkSingleGPUEstimate (E12): pricing the whole 4-hit workload on one
// device.
func BenchmarkSingleGPUEstimate(b *testing.B) {
	w := cluster.BRCA4Hit(cover.Scheme3x1)
	for i := 0; i < b.N; i++ {
		if _, err := cluster.SingleGPUSeconds(cluster.Summit(1), w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTetraMap (E13): the λ→(i,j,k) decode, exact vs the paper's
// closed form.
func BenchmarkTetraMap(b *testing.B) {
	lambda := combinat.TripleCount(19411) - 7
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			combinat.LinearToTriple(lambda)
		}
	})
	b.Run("paper-closed-form", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += combinat.PaperTripleK(lambda)
		}
		_ = sink
	})
}

// BenchmarkScheduleCost (E14): computing the full paper-scale EA schedule
// (G = 19411, 6000 GPUs).
func BenchmarkScheduleCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curve := sched.NewTetra3x1(19411)
		parts, err := sched.EquiArea(curve, 6000)
		if err != nil {
			b.Fatal(err)
		}
		if len(parts) != 6000 {
			b.Fatal("bad partition count")
		}
	}
}

// BenchmarkKernel3x1 measures one pruned enumeration pass of the
// production 4-hit kernel: the seed probe plus the 3x1 scan of every
// partition. Pruning decides how much of C(G, 4) is scored, so ns/op is
// the cost of a pass, not of a full enumeration. evaluated/op and
// pruned/op report the split, which depends only on the inputs and the
// partition plan, so a speedup at equal counts is the same work done
// faster. dense runs the bit-matrix kernel on a BRCA cohort; sparse runs
// the merge kernel on a kernelized (column-weighted) ACC cohort.
func BenchmarkKernel3x1(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		cohort, err := dataset.Generate(dataset.BRCA().Scaled(60), 42)
		if err != nil {
			b.Fatal(err)
		}
		opt := cover.Options{Hits: 4, Engine: cover.EngineDense}
		benchPass(b, cohort.Tumor.Genes(), func() (cover.Counts, error) {
			_, n, err := cover.FindBest(cohort.Tumor, cohort.Normal, nil, opt)
			return n, err
		})
	})
	b.Run("sparse", func(b *testing.B) {
		cohort, err := dataset.Generate(dataset.ACC().Scaled(60), 42)
		if err != nil {
			b.Fatal(err)
		}
		kern, err := kernelize.Reduce(cohort.Tumor, cohort.Normal, 4)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := cover.Options{Hits: 4, Engine: cover.EngineSparse}.Normalized()
		if err != nil {
			b.Fatal(err)
		}
		p := cover.Pass{Tumor: kern.Tumor, Normal: kern.Normal, Active: bitmat.AllOnes(kern.Tumor.Samples()),
			TumorWeights: kern.TumorWeights, NormalWeights: kern.NormalWeights,
			Denom: float64(cohort.Tumor.Samples() + cohort.Normal.Samples()), Opt: opt}
		parts, err := cover.PartitionPlan(kern.Tumor.Genes(), opt, 4)
		if err != nil {
			b.Fatal(err)
		}
		benchPass(b, kern.Tumor.Genes(), func() (cover.Counts, error) {
			_, n, err := cover.ScanPass(context.Background(), p, parts, true, nil)
			return n, err
		})
	})
}

// benchPass times pass, checks that every op accounts for all C(genes, 4)
// combinations, and reports the op's Evaluated/Pruned split.
func benchPass(b *testing.B, genes int, pass func() (cover.Counts, error)) {
	want := combinat.QuadCount(uint64(genes))
	var n cover.Counts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if n, err = pass(); err != nil {
			b.Fatal(err)
		}
		if n.Scanned() != want {
			b.Fatalf("evaluated %d + pruned %d = %d, want C(%d, 4) = %d",
				n.Evaluated, n.Pruned, n.Scanned(), genes, want)
		}
	}
	b.ReportMetric(float64(n.Evaluated), "evaluated/op")
	b.ReportMetric(float64(n.Pruned), "pruned/op")
}

// BenchmarkSeedProbe measures what the seed probe (docs/PRUNING.md §3)
// buys a scanned pass: one ScanPass over the same partition plan of a
// BRCA G=100 h=4 first pass, with every partition pruning from the seed
// and with every partition starting empty. evaluated/op is the work each
// side scores; both must find the same winner and account for C(G, 4).
func BenchmarkSeedProbe(b *testing.B) {
	spec := dataset.BRCA().Scaled(100)
	spec.Hits = 4
	cohort, err := dataset.Generate(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	opt, err := cover.Options{Hits: 4, Workers: 2}.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	g := cohort.Tumor.Genes()
	p := cover.Pass{Tumor: cohort.Tumor, Normal: cohort.Normal, Active: bitmat.AllOnes(cohort.Tumor.Samples()),
		Denom: float64(cohort.Tumor.Samples() + cohort.Normal.Samples()), Opt: opt}
	parts, err := cover.PartitionPlan(g, opt, opt.Workers*cover.PartitionsPerWorker)
	if err != nil {
		b.Fatal(err)
	}
	seededBest, _, err := cover.ScanPass(context.Background(), p, parts, true, nil)
	if err != nil {
		b.Fatal(err)
	}
	unseededBest, _, err := cover.ScanPass(context.Background(), p, parts, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	if seededBest != unseededBest {
		b.Fatalf("seeded winner %v, unseeded %v", seededBest, unseededBest)
	}
	for _, seeded := range []bool{true, false} {
		name := "unseeded"
		if seeded {
			name = "seeded"
		}
		b.Run(name, func(b *testing.B) {
			benchPass(b, g, func() (cover.Counts, error) {
				_, n, err := cover.ScanPass(context.Background(), p, parts, seeded, nil)
				return n, err
			})
		})
	}
}

// BenchmarkDistributedDiscover measures the functional multi-rank pipeline.
func BenchmarkDistributedDiscover(b *testing.B) {
	spec := dataset.BRCA().Scaled(30)
	cohort, err := dataset.Generate(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	opt := cover.Options{Hits: 4, MaxIterations: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Discover(cluster.Summit(2), cohort.Tumor, cohort.Normal, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyAwareScheduling compares plain EA with the cost-weighted
// scheduler at paper scale (E16).
func BenchmarkLatencyAwareScheduling(b *testing.B) {
	for _, aware := range []bool{false, true} {
		name := "equi-area"
		if aware {
			name = "latency-aware"
		}
		b.Run(name, func(b *testing.B) {
			w := cluster.ACC4Hit(cover.Scheme2x2)
			w.LatencyAware = aware
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Simulate(cluster.Summit(100), w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMutationLevelExpand measures the Sec. V mutation-level expansion
// (E17).
func BenchmarkMutationLevelExpand(b *testing.B) {
	spec := dataset.LGG().Scaled(60)
	spec.ProfileAll = true
	cohort, err := dataset.Generate(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mutlevel.Expand(cohort, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMAFPipeline measures the ingestion path: export a cohort to MAF
// text and summarize it back into matrices.
func BenchmarkMAFPipeline(b *testing.B) {
	spec := dataset.LGG().Scaled(60)
	cohort, err := dataset.Generate(spec, 42)
	if err != nil {
		b.Fatal(err)
	}
	var tumorMAF, normalMAF bytes.Buffer
	if err := cohort.ExportMAF(&tumorMAF, gene.Tumor); err != nil {
		b.Fatal(err)
	}
	if err := cohort.ExportMAF(&normalMAF, gene.Normal); err != nil {
		b.Fatal(err)
	}
	tb, nb := tumorMAF.Bytes(), normalMAF.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.FromMAF("LGG", bytes.NewReader(tb), bytes.NewReader(nb)); err != nil {
			b.Fatal(err)
		}
	}
}
