package cluster

import (
	"math"
	"testing"

	"repro/internal/cover"
	"repro/internal/dataset"
)

func TestSpecValidate(t *testing.T) {
	if err := Summit(100).Validate(); err != nil {
		t.Fatalf("Summit spec invalid: %v", err)
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Nodes = 0 },
		func(s *Spec) { s.GPUsPerNode = 0 },
		func(s *Spec) { s.IterOverheadSec = -1 },
		func(s *Spec) { s.Device.SMs = 0 },
	}
	for i, mutate := range bad {
		s := Summit(10)
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("case %d: Validate accepted bad spec", i)
		}
	}
	if Summit(100).GPUs() != 600 {
		t.Fatal("100 Summit nodes must expose 600 GPUs")
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := BRCA4Hit(cover.Scheme3x1).Validate(); err != nil {
		t.Fatalf("BRCA workload invalid: %v", err)
	}
	if err := ACC4Hit(cover.Scheme2x2).Validate(); err != nil {
		t.Fatalf("ACC workload invalid: %v", err)
	}
	bad := []func(*Workload){
		func(w *Workload) { w.Genes = 2 },
		func(w *Workload) { w.TumorSamples = 0 },
		func(w *Workload) { w.Iterations = 0 },
		func(w *Workload) { w.SpliceShrink = 1.0 },
		func(w *Workload) { w.Scheme = cover.SchemeAuto },
	}
	for i, mutate := range bad {
		w := BRCA4Hit(cover.Scheme3x1)
		mutate(&w)
		if w.Validate() == nil {
			t.Errorf("case %d: Validate accepted bad workload", i)
		}
	}
}

func TestSimulateSmall(t *testing.T) {
	rep, err := Simulate(Summit(4), BRCA4Hit(cover.Scheme3x1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.RuntimeSec <= 0 {
		t.Fatal("non-positive runtime")
	}
	if len(rep.GPUMetrics) != 24 || len(rep.Utilization) != 24 {
		t.Fatalf("expected 24 GPU records, got %d", len(rep.GPUMetrics))
	}
	if len(rep.Ranks) != 4 {
		t.Fatalf("expected 4 rank reports, got %d", len(rep.Ranks))
	}
	// Exactly one GPU defines the critical path.
	sawFull := false
	for _, u := range rep.Utilization {
		if u < 0 || u > 1 {
			t.Fatalf("utilization %g out of range", u)
		}
		if u == 1 {
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("no GPU at 100% utilization")
	}
	for _, r := range rep.Ranks {
		if r.ComputeSec <= 0 {
			t.Fatalf("rank %d has no compute time", r.Rank)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(Summit(3), ACC4Hit(cover.Scheme3x1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(Summit(3), ACC4Hit(cover.Scheme3x1))
	if err != nil {
		t.Fatal(err)
	}
	if a.RuntimeSec != b.RuntimeSec {
		t.Fatalf("simulation not deterministic: %g vs %g", a.RuntimeSec, b.RuntimeSec)
	}
}

func TestStrongScalingPaperBands(t *testing.T) {
	// Fig. 4(a): BRCA 4-hit, 3x1 scheme, 100→1000 nodes. The paper reports
	// 80.96–97.96% per-point efficiency, 84.18% at 1000 nodes, and a
	// 90.14% average over 200–1000 nodes.
	pts, err := StrongScaling(BRCA4Hit(cover.Scheme3x1),
		[]int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Efficiency != 1 {
		t.Fatal("baseline efficiency must be 1")
	}
	sum := 0.0
	for i, p := range pts {
		if i == 0 {
			continue
		}
		if p.Efficiency >= pts[i-1].Efficiency {
			t.Errorf("efficiency not monotone at %d nodes", p.Nodes)
		}
		if p.Efficiency < 0.78 || p.Efficiency > 0.99 {
			t.Errorf("N=%d: efficiency %.3f outside the paper band [0.80, 0.98]",
				p.Nodes, p.Efficiency)
		}
		if p.RuntimeSec >= pts[i-1].RuntimeSec {
			t.Errorf("runtime not decreasing at %d nodes", p.Nodes)
		}
		sum += p.Efficiency
	}
	avg := sum / float64(len(pts)-1)
	if math.Abs(avg-0.9014) > 0.03 {
		t.Errorf("average efficiency %.4f; paper reports 0.9014", avg)
	}
	last := pts[len(pts)-1].Efficiency
	if math.Abs(last-0.8418) > 0.03 {
		t.Errorf("1000-node efficiency %.4f; paper reports 0.8418", last)
	}
}

func TestWeakScalingPaperBands(t *testing.T) {
	// Fig. 4(b): first-iteration weak scaling, 100→500 nodes; the paper
	// reports a 94.6% average over 200–500 nodes.
	w := BRCA4Hit(cover.Scheme3x1)
	pts, err := WeakScaling(w, []int{100, 200, 300, 400, 500})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, p := range pts {
		if i == 0 {
			if p.Efficiency != 1 {
				t.Fatal("baseline weak efficiency must be 1")
			}
			continue
		}
		if p.Efficiency > 1.0001 {
			t.Errorf("N=%d: weak efficiency %.3f > 1", p.Nodes, p.Efficiency)
		}
		sum += p.Efficiency
	}
	avg := sum / float64(len(pts)-1)
	if math.Abs(avg-0.946) > 0.04 {
		t.Errorf("average weak efficiency %.4f; paper reports 0.946", avg)
	}
}

func TestEquiAreaBeatsEquiDistanceRuntime(t *testing.T) {
	// Sec. IV-B: on the 2x2 scheme at 100 nodes the EA scheduler ran BRCA
	// in 4607 s vs 13943 s under ED — a ≈3× speedup. The model should show
	// a multiple-fold gap in the same direction.
	w := BRCA4Hit(cover.Scheme2x2)
	ea, err := Simulate(Summit(100), w)
	if err != nil {
		t.Fatal(err)
	}
	w.Scheduler = cover.EquiDistance
	ed, err := Simulate(Summit(100), w)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ed.RuntimeSec / ea.RuntimeSec
	if ratio < 2 || ratio > 10 {
		t.Errorf("ED/EA runtime ratio %.2f; paper reports ≈3", ratio)
	}
}

func TestSchemeUtilizationShapes(t *testing.T) {
	// Fig. 6 vs Fig. 7: the 2x2 scheme shows a broad utilization decline
	// across GPUs; the 3x1 scheme stays balanced.
	spread := func(scheme cover.Scheme, w Workload) float64 {
		rep, err := Simulate(Summit(100), w)
		if err != nil {
			t.Fatal(err)
		}
		min := 2.0
		for _, u := range rep.Utilization {
			if u < min {
				min = u
			}
		}
		return 1 - min // utilization range
	}
	u2x2 := spread(cover.Scheme2x2, ACC4Hit(cover.Scheme2x2))
	u3x1 := spread(cover.Scheme3x1, BRCA4Hit(cover.Scheme3x1))
	if u2x2 < 0.3 {
		t.Errorf("2x2 utilization range %.3f — expected a broad decline", u2x2)
	}
	if u3x1 > 0.35 {
		t.Errorf("3x1 utilization range %.3f — expected a balanced profile", u3x1)
	}
	if u3x1 >= u2x2 {
		t.Errorf("3x1 range %.3f not tighter than 2x2 range %.3f", u3x1, u2x2)
	}
}

func TestFig6MemoryComputeTransition(t *testing.T) {
	// Fig. 6: under the 2x2 scheme, early GPUs are memory bound and late
	// GPUs compute bound, with DRAM throughput anticorrelated with busy
	// time in between.
	rep, err := Simulate(Summit(100), ACC4Hit(cover.Scheme2x2))
	if err != nil {
		t.Fatal(err)
	}
	first := rep.GPUMetrics[0]
	last := rep.GPUMetrics[len(rep.GPUMetrics)-1]
	if !first.MemoryBound {
		t.Error("first GPU should be memory bound")
	}
	// Toward the end of the GPU range the profile transitions toward
	// compute bound: smaller effective spans, higher achieved DRAM
	// throughput, and a stall mix shifting from memory to execution
	// dependency.
	if last.Spread >= first.Spread {
		t.Error("late GPUs should have smaller inner-loop spans")
	}
	if last.DRAMThroughput <= first.DRAMThroughput {
		t.Error("late GPUs should achieve higher DRAM throughput")
	}
	if last.StallExecDependency <= first.StallExecDependency {
		t.Error("late GPUs should skew toward execution-dependency stalls")
	}
	if last.StallMemDependency+last.StallMemThrottle >=
		first.StallMemDependency+first.StallMemThrottle {
		t.Error("late GPUs should stall less on memory")
	}
}

func TestFig8CommunicationHidden(t *testing.T) {
	// Fig. 8: with per-rank 20-byte reductions, message-passing overhead
	// is hidden by compute imbalance — comm is a vanishing fraction.
	rep, err := Simulate(Summit(64), BRCA4Hit(cover.Scheme3x1))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Ranks {
		if r.CommSec > 0.05*r.ComputeSec {
			t.Fatalf("rank %d comm %.3fs vs compute %.1fs — comm should be hidden",
				r.Rank, r.CommSec, r.ComputeSec)
		}
	}
}

func TestSingleGPUSpeedup(t *testing.T) {
	// Sec. I: ≈7192× speedup on 6000 GPUs vs one GPU, and a single-GPU
	// 4-hit runtime of "over 40 days". The model should reproduce the
	// days-scale single-GPU estimate and a >3000× speedup.
	w := BRCA4Hit(cover.Scheme3x1)
	single, err := SingleGPUSeconds(Summit(1), w)
	if err != nil {
		t.Fatal(err)
	}
	days := single / 86400
	if days < 40 || days > 90 {
		t.Errorf("single-GPU 4-hit estimate %.1f days; paper says over 40", days)
	}
	pts, err := StrongScaling(w, []int{100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	speedup := single / pts[1].RuntimeSec
	if speedup < 3000 || speedup > 9000 {
		t.Errorf("6000-GPU speedup %.0f×; paper estimates 7192×", speedup)
	}
}

func TestScalingInputValidation(t *testing.T) {
	if _, err := StrongScaling(BRCA4Hit(cover.Scheme3x1), nil); err == nil {
		t.Error("StrongScaling accepted empty node list")
	}
	if _, err := WeakScaling(BRCA4Hit(cover.Scheme3x1), nil); err == nil {
		t.Error("WeakScaling accepted empty node list")
	}
	bad := BRCA4Hit(cover.Scheme3x1)
	bad.Iterations = 0
	if _, err := Simulate(Summit(2), bad); err == nil {
		t.Error("Simulate accepted bad workload")
	}
	if _, err := Simulate(Spec{}, BRCA4Hit(cover.Scheme3x1)); err == nil {
		t.Error("Simulate accepted bad spec")
	}
	if _, err := SingleGPUSeconds(Summit(1), bad); err == nil {
		t.Error("SingleGPUSeconds accepted bad workload")
	}
}

func TestDiscoverMatchesCoverRun(t *testing.T) {
	// The distributed pipeline must find the identical greedy cover as the
	// single-machine engine, for multiple hit counts and node counts.
	spec := dataset.Spec{
		Code: "TST", Name: "test", Genes: 24, TumorSamples: 80, NormalSamples: 70,
		Hits: 3, PlantedCombos: 3, DriverMutProb: 0.95,
		TumorBackground: 0.02, NormalBackground: 0.005,
	}
	spec.Hits = 3
	c, err := dataset.Generate(spec, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, hits := range []int{2, 3, 4, 5} {
		opt := cover.Options{Hits: hits, Workers: 2}
		want, err := cover.Run(c.Tumor, c.Normal, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{1, 3, 5} {
			got, err := Discover(Summit(nodes), c.Tumor, c.Normal, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Steps) != len(want.Steps) {
				t.Fatalf("hits=%d nodes=%d: %d steps, want %d",
					hits, nodes, len(got.Steps), len(want.Steps))
			}
			for i := range want.Steps {
				if got.Steps[i].Combo != want.Steps[i].Combo {
					t.Fatalf("hits=%d nodes=%d step %d: %+v != %+v",
						hits, nodes, i, got.Steps[i].Combo, want.Steps[i].Combo)
				}
				if got.Steps[i].NewlyCovered != want.Steps[i].NewlyCovered {
					t.Fatalf("hits=%d nodes=%d step %d: cover counts differ", hits, nodes, i)
				}
				// The Evaluated/Pruned split depends on the partitioning (and
				// worker timing); only the scanned total is deterministic.
				gotScan := got.Steps[i].Evaluated + got.Steps[i].Pruned
				wantScan := want.Steps[i].Evaluated + want.Steps[i].Pruned
				if gotScan != wantScan {
					t.Fatalf("hits=%d nodes=%d step %d: scanned %d, want %d",
						hits, nodes, i, gotScan, wantScan)
				}
			}
			if got.Covered != want.Covered || got.Uncoverable != want.Uncoverable {
				t.Fatalf("hits=%d nodes=%d: totals differ", hits, nodes)
			}
			if got.VirtualSeconds <= 0 {
				t.Fatal("no virtual time accounted")
			}
		}
	}
}

func TestDiscoverRejectsBadInput(t *testing.T) {
	spec := dataset.Spec{
		Code: "TST", Name: "t", Genes: 12, TumorSamples: 10, NormalSamples: 10,
		Hits: 2, PlantedCombos: 1, DriverMutProb: 0.9,
		TumorBackground: 0.05, NormalBackground: 0.01,
	}
	c, err := dataset.Generate(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Discover(Summit(2), c.Tumor, c.Normal,
		cover.Options{Hits: 2, BitSplice: true}); err == nil {
		t.Error("Discover accepted BitSplice")
	}
	if _, err := Discover(Summit(2), c.Tumor, c.Normal,
		cover.Options{Hits: 9}); err == nil {
		t.Error("Discover accepted bad hit count")
	}
	if _, err := Discover(Spec{}, c.Tumor, c.Normal,
		cover.Options{Hits: 2}); err == nil {
		t.Error("Discover accepted bad spec")
	}
}

func TestDiscoverMaxIterations(t *testing.T) {
	spec := dataset.Spec{
		Code: "TST", Name: "t", Genes: 16, TumorSamples: 40, NormalSamples: 30,
		Hits: 2, PlantedCombos: 3, DriverMutProb: 0.95,
		TumorBackground: 0.05, NormalBackground: 0.01,
	}
	c, err := dataset.Generate(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Discover(Summit(2), c.Tumor, c.Normal,
		cover.Options{Hits: 2, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Steps) != 1 {
		t.Fatalf("MaxIterations=1 but ran %d steps", len(got.Steps))
	}
}

func TestSimulateRejectedSchemes(t *testing.T) {
	// The 1x3 and 4x1 schemes are modelable: 1x3 must be catastrophically
	// slower (G threads cannot occupy 600 GPUs), 4x1 pays per-combination
	// prefetch.
	base := BRCA4Hit(cover.Scheme3x1)
	base.Iterations = 1
	base.SpliceShrink = 0
	run := func(s cover.Scheme) float64 {
		w := base
		w.Scheme = s
		rep, err := Simulate(Summit(100), w)
		if err != nil {
			t.Fatal(err)
		}
		return rep.RuntimeSec
	}
	t3x1 := run(cover.Scheme3x1)
	t1x3 := run(cover.Scheme1x3)
	t4x1 := run(cover.Scheme4x1)
	if t1x3 < 100*t3x1 {
		t.Errorf("1x3 (%.0fs) should be orders of magnitude slower than 3x1 (%.0fs)", t1x3, t3x1)
	}
	if t4x1 < 1.5*t3x1 {
		t.Errorf("4x1 (%.0fs) should pay a clear prefetch penalty over 3x1 (%.0fs)", t4x1, t3x1)
	}
}

func TestLatencyAwareImprovesBalance(t *testing.T) {
	// Sec. V strategy 4: cost-weighted partitioning must tighten the 2x2
	// utilization profile relative to plain equi-area.
	w := ACC4Hit(cover.Scheme2x2)
	plain, err := Simulate(Summit(100), w)
	if err != nil {
		t.Fatal(err)
	}
	w.LatencyAware = true
	aware, err := Simulate(Summit(100), w)
	if err != nil {
		t.Fatal(err)
	}
	rangeOf := func(u []float64) float64 {
		min := 2.0
		for _, v := range u {
			if v < min {
				min = v
			}
		}
		return 1 - min
	}
	if rangeOf(aware.Utilization) >= rangeOf(plain.Utilization) {
		t.Errorf("latency-aware range %.3f not tighter than plain %.3f",
			rangeOf(aware.Utilization), rangeOf(plain.Utilization))
	}
	if aware.RuntimeSec > plain.RuntimeSec*1.01 {
		t.Errorf("latency-aware runtime %.0f worse than plain %.0f",
			aware.RuntimeSec, plain.RuntimeSec)
	}
}

func TestSpanOfWorkInversions(t *testing.T) {
	// spanOfWork must invert each scheme's work-per-thread function.
	w := BRCA4Hit(cover.Scheme2x2)
	// 2x2: work = C(span, 2).
	for _, span := range []uint64{2, 10, 1000} {
		work := span * (span - 1) / 2
		got := w.spanOfWork(work)
		if got < float64(span)-1 || got > float64(span)+1 {
			t.Errorf("2x2 spanOfWork(C(%d,2)) = %.2f", span, got)
		}
	}
	w.Scheme = cover.Scheme1x3
	// 1x3: work = C(span, 3) ≈ span³/6.
	got := w.spanOfWork(161700) // C(100,3)
	if got < 97 || got > 103 {
		t.Errorf("1x3 spanOfWork(C(100,3)) = %.2f", got)
	}
	for _, scheme := range []cover.Scheme{cover.Scheme3x1, cover.Scheme4p1} {
		w.Scheme = scheme
		if w.spanOfWork(42) != 42 {
			t.Errorf("%s spanOfWork should be identity", scheme)
		}
	}
}

func TestWeakScalingLatencyAwarePath(t *testing.T) {
	w := ACC4Hit(cover.Scheme2x2)
	w.LatencyAware = true
	pts, err := WeakScaling(w, []int{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Efficiency != 1 {
		t.Fatalf("weak scaling malformed: %+v", pts)
	}
}

func TestSimulatePairAnd2x1Schemes(t *testing.T) {
	// The 2-hit and 3-hit workloads are also modelable.
	for _, s := range []cover.Scheme{cover.SchemePair, cover.Scheme2x1} {
		w := BRCA4Hit(s)
		w.Iterations = 2
		rep, err := Simulate(Summit(4), w)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if rep.RuntimeSec <= 0 {
			t.Fatalf("%s: non-positive runtime", s)
		}
	}
}

func TestIterationTimelineShrinksUnderSplicing(t *testing.T) {
	w := BRCA4Hit(cover.Scheme3x1)
	rep, err := Simulate(Summit(4), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iterations) != w.Iterations {
		t.Fatalf("timeline has %d entries, want %d", len(rep.Iterations), w.Iterations)
	}
	first, last := rep.Iterations[0], rep.Iterations[len(rep.Iterations)-1]
	if first.TumorRemaining != w.TumorSamples {
		t.Fatalf("first iteration sees %d tumors, want %d", first.TumorRemaining, w.TumorSamples)
	}
	if last.TumorRemaining >= first.TumorRemaining {
		t.Fatal("splicing should shrink the remaining tumor count")
	}
	if last.MaxBusySec >= first.MaxBusySec {
		t.Fatal("later iterations should be cheaper (fewer matrix words)")
	}
	if last.RowWords >= first.RowWords {
		t.Fatal("row words should shrink across iterations")
	}
}

func TestCampaignPanelStudy(t *testing.T) {
	rep, err := RunCampaign(Campaign{Nodes: 100}, dataset.FourHitCancers())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 11 {
		t.Fatalf("campaign priced %d jobs, want 11", len(rep.Jobs))
	}
	var sum float64
	var acc, brcaLike float64
	for _, j := range rep.Jobs {
		if j.RuntimeSec <= 0 || j.NodeHours <= 0 {
			t.Fatalf("%s: non-positive cost", j.Cancer)
		}
		sum += j.RuntimeSec
		if j.Cancer == "ACC" {
			acc = j.RuntimeSec
		}
		if j.Cancer == "LUAD" {
			brcaLike = j.RuntimeSec
		}
	}
	if rep.TotalSec != sum {
		t.Fatal("campaign total does not sum its jobs")
	}
	// The smallest cohort must be the cheapest job per combination pass;
	// with fewer samples AND fewer iterations ACC is strictly cheaper than
	// the large LUAD cohort.
	if acc >= brcaLike {
		t.Fatalf("ACC (%.0fs) should cost less than LUAD (%.0fs)", acc, brcaLike)
	}
}

func TestCampaignValidation(t *testing.T) {
	if _, err := RunCampaign(Campaign{Nodes: 0}, dataset.FourHitCancers()); err == nil {
		t.Error("accepted zero nodes")
	}
	if _, err := RunCampaign(Campaign{Nodes: 10}, nil); err == nil {
		t.Error("accepted empty panel")
	}
}
