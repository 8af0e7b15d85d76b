// Package cluster models a Summit-like machine — nodes of six V100-class
// GPUs driven by one MPI rank each (Fig. 1) — and runs the multi-hit
// pipeline on it in two modes:
//
//   - Simulate executes the performance model at paper scale: the real
//     schedulers cut the real workload curves into per-GPU jobs, gpusim
//     prices each job, and mpisim plays the rank-level reduction under the
//     virtual clock. This regenerates the scaling and profiling figures
//     (Fig. 4, 6, 7, 8 and the ED-vs-EA runtimes) without CUDA hardware.
//
//   - Discover executes the actual algorithm at reduced scale: cover.Greedy
//     runs the greedy loop, and each pass it scans is cut into the
//     machine's per-GPU λ partitions, scored by the real kernels and
//     reduced in rank 0's total order, so the cover is cover.Run's, as the
//     tests assert. The virtual clock prices every pass on the ranks and
//     plays its winner reduce/broadcast through mpisim.
package cluster

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/cover"
	"repro/internal/gpusim"
	"repro/internal/mpisim"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// Spec describes the machine.
type Spec struct {
	// Nodes is the node count; each node hosts one MPI rank.
	Nodes int
	// GPUsPerNode is 6 on Summit.
	GPUsPerNode int
	// Device is the per-GPU performance model.
	Device gpusim.DeviceSpec
	// Comm is the inter-node fabric cost model.
	Comm mpisim.Params
	// IterOverheadSec is the fixed per-iteration, per-rank cost: kernel
	// launches, device synchronization, schedule broadcast, host-device
	// staging.
	IterOverheadSec float64
	// StartupSec is the one-time job cost: MPI init, input distribution,
	// schedule computation.
	StartupSec float64
}

// Summit returns the machine model used throughout the reproduction.
func Summit(nodes int) Spec {
	return Spec{
		Nodes:           nodes,
		GPUsPerNode:     6,
		Device:          gpusim.V100(),
		Comm:            mpisim.Summit(),
		IterOverheadSec: 7.0,
		StartupSec:      60.0,
	}
}

// Validate reports the first problem with the spec.
func (s Spec) Validate() error {
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("cluster: Nodes must be positive, got %d", s.Nodes)
	case s.GPUsPerNode <= 0:
		return fmt.Errorf("cluster: GPUsPerNode must be positive, got %d", s.GPUsPerNode)
	case s.IterOverheadSec < 0 || s.StartupSec < 0:
		return fmt.Errorf("cluster: overheads must be non-negative")
	}
	return s.Device.Validate()
}

// GPUs returns the total device count.
func (s Spec) GPUs() int { return s.Nodes * s.GPUsPerNode }

// Workload describes one cancer-type run for the performance model.
type Workload struct {
	// Genes is G.
	Genes int
	// TumorSamples and NormalSamples size the matrix rows in words.
	TumorSamples  int
	NormalSamples int
	// Scheme is the parallelization scheme (2x2 or 3x1 for 4-hit).
	Scheme cover.Scheme
	// Scheduler selects EA (default) or ED partitioning.
	Scheduler cover.Scheduler
	// Iterations is the number of cover-loop iterations to model.
	Iterations int
	// SpliceShrink is the fraction of remaining tumor samples covered
	// (and spliced out) per iteration; 0 disables shrinking.
	SpliceShrink float64
	// LatencyAware switches the equi-area scheduler to the cost-weighted
	// variant that folds the device model's span-dependent memory penalty
	// into the partition targets — the paper's fourth future-work strategy
	// ("Incorporate memory latency into the scheduling algorithm", Sec. V).
	// Ignored when Scheduler is EquiDistance.
	LatencyAware bool
	// PruneRatio discounts each partition's combination count by the given
	// fraction before pricing, modeling the engine's bound-and-prune layer
	// (docs/PRUNING.md). The sched curve's count is an UPPER bound — it is
	// what an exhaustive scan would evaluate — and pruning only removes
	// work, so any value in [0, 1) keeps the model conservative-to-exact.
	// 0 (the default) prices the exhaustive upper bound. Measure a real
	// run's ratio with DiscoverResult.PruningRatio.
	PruneRatio float64
	// KernelGenes, when positive, is the gene count left after the
	// kernelization pass (docs/KERNELIZATION.md): the workload curve and
	// span cap are built over this reduced axis, pricing the enumeration
	// the kernelized engine actually runs. 0 means no kernelization —
	// price over Genes. Measure a real instance's shrink with
	// kernelize.Reduce, or estimate with simscale -kernelize.
	KernelGenes int
}

// BRCA4Hit returns the paper's principal scaling workload: 4-hit discovery
// on breast invasive carcinoma (G = 19411, 911 tumor / 852 normal samples).
func BRCA4Hit(scheme cover.Scheme) Workload {
	return Workload{
		Genes:         19411,
		TumorSamples:  911,
		NormalSamples: 852,
		Scheme:        scheme,
		Iterations:    12,
		SpliceShrink:  0.45,
	}
}

// ACC4Hit returns the smallest dataset's workload (Fig. 6).
func ACC4Hit(scheme cover.Scheme) Workload {
	return Workload{
		Genes:         18739,
		TumorSamples:  92,
		NormalSamples: 85,
		Scheme:        scheme,
		Iterations:    8,
		SpliceShrink:  0.45,
	}
}

// Validate reports the first problem with the workload.
func (w Workload) Validate() error {
	switch {
	case w.Genes < 4:
		return fmt.Errorf("cluster: Genes must be ≥ 4, got %d", w.Genes)
	case w.TumorSamples <= 0 || w.NormalSamples <= 0:
		return fmt.Errorf("cluster: sample counts must be positive")
	case w.Iterations <= 0:
		return fmt.Errorf("cluster: Iterations must be positive")
	case w.SpliceShrink < 0 || w.SpliceShrink >= 1:
		return fmt.Errorf("cluster: SpliceShrink must be in [0, 1)")
	case w.PruneRatio < 0 || w.PruneRatio >= 1:
		return fmt.Errorf("cluster: PruneRatio must be in [0, 1)")
	case w.KernelGenes < 0 || w.KernelGenes > w.Genes:
		return fmt.Errorf("cluster: KernelGenes must be in [0, Genes], got %d", w.KernelGenes)
	case w.KernelGenes > 0 && w.KernelGenes < 4:
		return fmt.Errorf("cluster: KernelGenes must be ≥ 4, got %d", w.KernelGenes)
	}
	switch w.Scheme {
	case cover.Scheme2x2, cover.Scheme3x1, cover.Scheme2x1, cover.SchemePair,
		cover.Scheme1x3, cover.Scheme4x1, cover.Scheme4p1:
		return nil
	}
	return fmt.Errorf("cluster: unsupported scheme %s", w.Scheme)
}

// genesEff is the gene count the enumeration actually runs over: the
// kernelized axis when KernelGenes is set, G otherwise.
func (w Workload) genesEff() int {
	if w.KernelGenes > 0 {
		return w.KernelGenes
	}
	return w.Genes
}

// curve builds the workload curve for the scheme over the enumerated
// gene axis.
func (w Workload) curve() (sched.Curve, error) {
	return cover.SchemeCurve(uint64(w.genesEff()), w.Scheme)
}

// prefetchRows returns the per-thread prefetch row count for the scheme.
func (w Workload) prefetchRows() int {
	switch w.Scheme {
	case cover.SchemePair:
		return 2
	case cover.Scheme2x1, cover.Scheme2x2:
		return 2
	case cover.Scheme3x1, cover.Scheme1x3:
		return 3
	case cover.Scheme4x1:
		// Nothing is loop-invariant: every combination folds all four
		// rows from scratch.
		return 4
	case cover.Scheme4p1:
		// 3x1 one dimension up: four rows prefetched per thread.
		return 4
	}
	return 0
}

// irregularity returns the scheme's memory-access irregularity for the
// device model: the 2x2 scheme's depth-2 inner loop scatters across rows,
// the 3x1 and 3-hit kernels stream a single sequential sweep.
func (w Workload) irregularity() float64 {
	switch w.Scheme {
	case cover.SchemePair:
		return 0
	case cover.Scheme2x1:
		return 0.6
	case cover.Scheme2x2:
		return 1.0
	case cover.Scheme3x1:
		return 0.12
	case cover.Scheme1x3, cover.Scheme4p1:
		// Same sequential single sweep in the innermost loop as 3x1.
		return 0.12
	case cover.Scheme4x1:
		return 0
	}
	return 0
}

// spanCap returns the maximum possible inner-loop span for the scheme,
// normalizing the device model's logarithmic memory penalty.
func (w Workload) spanCap() float64 {
	switch w.Scheme {
	case cover.Scheme2x1, cover.Scheme3x1, cover.Scheme1x3, cover.Scheme4p1:
		return float64(w.genesEff())
	case cover.Scheme2x2:
		g := uint64(w.genesEff())
		return float64(combinat.Tri(g - 2))
	}
	return 1
}

// spanOfWork inverts the scheme's work-per-thread function to recover the
// thread's inner-loop row span from its work (w = span for the single-loop
// kernels, C(span, 2) for 2x2, C(span, 3) for 1x3).
func (w Workload) spanOfWork(work uint64) float64 {
	v := float64(work)
	switch w.Scheme {
	case cover.Scheme2x2:
		return (1 + math.Sqrt(1+8*v)) / 2
	case cover.Scheme1x3:
		return math.Cbrt(6 * v)
	default:
		return v
	}
}

// costModel prices one thread under the device's span penalty, for the
// latency-aware scheduler.
func (w Workload) costModel(d gpusim.DeviceSpec) sched.CostModel {
	irr := w.irregularity()
	spanCap := w.spanCap()
	return func(work uint64) float64 {
		if work == 0 {
			return 0
		}
		frac := math.Log1p(w.spanOfWork(work)) / math.Log1p(spanCap) * irr
		if frac > 1 {
			frac = 1
		}
		return float64(work) * (1 + d.MemPenaltyMax*frac)
	}
}

// partitionsN cuts the curve for an arbitrary GPU count — the machine may
// be degraded below its nominal size after a rank failure (see faults.go).
func (w Workload) partitionsN(curve sched.Curve, d gpusim.DeviceSpec, gpus int) ([]sched.Partition, error) {
	switch {
	case w.Scheduler == cover.EquiDistance:
		return sched.EquiDistance(curve, gpus)
	case w.LatencyAware:
		return sched.EquiCost(curve, gpus, w.costModel(d))
	default:
		return sched.EquiArea(curve, gpus)
	}
}

// combosAfterPruning discounts an exhaustive combination count by the
// workload's modeled pruning ratio. The curve's count stays the pricing
// upper bound at the default ratio of 0.
func (w Workload) combosAfterPruning(combos uint64) uint64 {
	if w.PruneRatio <= 0 {
		return combos
	}
	return uint64(float64(combos) * (1 - w.PruneRatio))
}

// jobFor builds the device-model job for one partition. extraSlowdown is
// the fault injector's straggler inflation (0 when disabled).
func (w Workload) jobFor(curve sched.Curve, part sched.Partition, rowWords, device int, extraSlowdown float64) gpusim.Job {
	return gpusim.Job{
		Threads:       part.Size(),
		Combos:        w.combosAfterPruning(curve.PrefixWork(part.Hi) - curve.PrefixWork(part.Lo)),
		RowWords:      rowWords,
		PrefetchRows:  w.prefetchRows(),
		Irregularity:  w.irregularity(),
		SpanCap:       w.spanCap(),
		DeviceIndex:   device,
		ExtraSlowdown: extraSlowdown,
	}
}

// words returns the packed words per gene row across both matrices for the
// given remaining tumor sample count.
func (w Workload) words(tumorSamples int) int {
	return bitmat.WordsFor(tumorSamples) + bitmat.WordsFor(w.NormalSamples)
}

// RankReport is one MPI rank's virtual-time ledger (Fig. 8).
type RankReport struct {
	Rank       int
	ComputeSec float64
	// CommSec is message-passing time proper (sends plus wire time).
	CommSec float64
	// WaitSec is idle time blocked on slower peers — the imbalance that
	// "hides" the communication in Fig. 8.
	WaitSec float64
}

// IterationReport is one cover-loop iteration's modeled execution.
type IterationReport struct {
	// Iteration is the 0-based loop index.
	Iteration int
	// TumorRemaining is the uncovered tumor-sample count entering the
	// iteration (BitSplicing shrinks the matrices accordingly).
	TumorRemaining int
	// RowWords is the packed words per gene row this iteration streams.
	RowWords int
	// MaxBusySec is the slowest GPU's kernel time — the iteration's
	// critical path.
	MaxBusySec float64
	// CriticalGPU is the index of that GPU.
	CriticalGPU int
}

// Report is the outcome of one simulated run.
type Report struct {
	// Spec and Workload echo the configuration.
	Spec     Spec
	Workload Workload
	// RuntimeSec is the simulated job runtime including startup.
	RuntimeSec float64
	// GPUMetrics holds the first iteration's per-GPU model output, indexed
	// by global GPU id (Fig. 6/7 input).
	GPUMetrics []gpusim.Metrics
	// Utilization is each GPU's first-iteration busy time relative to the
	// slowest GPU.
	Utilization []float64
	// Ranks holds the per-rank compute/communication split.
	Ranks []RankReport
	// Iterations is the per-iteration timeline: BitSplicing makes later
	// iterations cheaper as covered samples leave the matrices.
	Iterations []IterationReport
	// Recovery reports the fault-injection and recovery accounting; nil for
	// fault-free runs (see SimulateFaults).
	Recovery *Recovery
	// PruningRatio echoes Workload.PruneRatio: the modeled fraction of the
	// sched curve's combination count discounted before pricing. The curve
	// is an upper bound on the engine's actual work once bound-and-prune is
	// on (docs/PRUNING.md); 0 means the exhaustive bound was priced.
	PruningRatio float64
}

// Simulate prices a full run of the workload on the machine: the real
// scheduler cuts the workload curve into one partition per GPU, gpusim
// prices each GPU's share of every iteration, and mpisim plays each
// iteration's compute block and 20-byte winner reduce/broadcast under the
// virtual clock. It is SimulateFaults under the empty plan, without the
// Recovery section.
func Simulate(spec Spec, w Workload) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	pr, err := modelPricing(spec, w)
	if err != nil {
		return nil, err
	}
	rep, err := pr.run(spec, FaultPlan{})
	if err != nil {
		return nil, err
	}
	rep.Recovery = nil
	return rep, nil
}

// combineCombo is the Better-based max for mpisim reductions.
func combineCombo(a, b any) any {
	ca, cb := a.(reduce.Combo), b.(reduce.Combo)
	if cb.Better(ca) {
		return cb
	}
	return ca
}

// ScalingPoint is one node count's outcome in a scaling study.
type ScalingPoint struct {
	Nodes      int
	RuntimeSec float64
	// Efficiency is relative to the study's baseline (first point).
	Efficiency float64
}

// StrongScaling simulates the workload at each node count and reports
// strong-scaling efficiency relative to the first count:
// eff(N) = T(N₀)·N₀ / (T(N)·N) — Fig. 4(a).
func StrongScaling(w Workload, nodeCounts []int) ([]ScalingPoint, error) {
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("cluster: no node counts")
	}
	var out []ScalingPoint
	for _, n := range nodeCounts {
		rep, err := Simulate(Summit(n), w)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingPoint{Nodes: n, RuntimeSec: rep.RuntimeSec})
	}
	base := out[0]
	for i := range out {
		out[i].Efficiency = base.RuntimeSec * float64(base.Nodes) /
			(out[i].RuntimeSec * float64(out[i].Nodes))
	}
	return out, nil
}

// WeakScaling fixes the per-GPU workload at the baseline node count's
// first-iteration share and grows the machine: every added GPU re-runs one
// of the baseline jobs, so ideal scaling would hold runtime constant —
// Fig. 4(b). Deviations come from jitter extremes over more devices and
// from the deeper reduction tree.
func WeakScaling(w Workload, nodeCounts []int) ([]ScalingPoint, error) {
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("cluster: no node counts")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	for _, n := range nodeCounts {
		if err := Summit(n).Validate(); err != nil {
			return nil, err
		}
	}
	// One iteration at full row width, no startup: every point times the
	// baseline's first iteration.
	w.Iterations = 1
	baseSpec := Summit(nodeCounts[0])
	pr, err := modelPricing(baseSpec, w)
	if err != nil {
		return nil, err
	}
	baseParts, err := pr.parts(baseSpec.Nodes)
	if err != nil {
		return nil, err
	}
	pr.parts = func(n int) ([]sched.Partition, error) {
		parts := make([]sched.Partition, n*baseSpec.GPUsPerNode)
		for g := range parts {
			parts[g] = baseParts[g%len(baseParts)]
		}
		return parts, nil
	}
	var out []ScalingPoint
	for _, n := range nodeCounts {
		spec := Summit(n)
		spec.StartupSec = 0
		rep, err := pr.run(spec, FaultPlan{})
		if err != nil {
			return nil, err
		}
		out = append(out, ScalingPoint{Nodes: n, RuntimeSec: rep.RuntimeSec})
	}
	base := out[0]
	for i := range out {
		out[i].Efficiency = base.RuntimeSec / out[i].RuntimeSec
	}
	return out, nil
}

// SingleGPUSeconds prices the whole workload on one device — the
// denominator of the paper's 7192× speedup estimate.
func SingleGPUSeconds(spec Spec, w Workload) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if err := w.Validate(); err != nil {
		return 0, err
	}
	curve, err := w.curve()
	if err != nil {
		return 0, err
	}
	total := 0.0
	tumorLeft := w.TumorSamples
	for iter := 0; iter < w.Iterations; iter++ {
		job := gpusim.Job{
			Threads:      curve.Threads(),
			Combos:       w.combosAfterPruning(curve.TotalWork()),
			RowWords:     w.words(tumorLeft),
			PrefetchRows: w.prefetchRows(),
			DeviceIndex:  0,
		}
		total += spec.Device.Simulate(job).BusySeconds + spec.IterOverheadSec
		if w.SpliceShrink > 0 {
			tumorLeft = int(float64(tumorLeft) * (1 - w.SpliceShrink))
			if tumorLeft < 1 {
				tumorLeft = 1
			}
		}
	}
	return total, nil
}

// parallelFor runs fn(0..n-1) across GOMAXPROCS goroutines.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
