package cluster

// DiscoverFaults: the real distributed greedy cover under injected rank
// deaths (docs/FAULTS.md). The discovered combinations must be — and the
// tests assert they are — bit-for-bit identical to the fault-free Discover
// run under both recovery policies:
//
//   - PolicyRestart replays iterations from the latest checkpoint; the
//     greedy is deterministic in the active mask, so the replay recomputes
//     the very same winners.
//   - PolicyDegrade finishes the in-flight iteration by re-cutting the
//     dead rank's λ-range across the survivors (sched.EquiAreaRange) and
//     reducing the same total-order winner; every subsequent iteration
//     runs the full domain on the shrunken machine.
//
// The winners themselves are computed once, by discoverGreedy: cover.Greedy
// over the full machine's rank partitions, the result every fault-free
// world converges to. The leg worlds price the virtual time of reaching
// it: each leg runs the alive machine with at most one armed failure, and
// recovery bookings stitch the legs together. Arming a single failure per
// leg keeps the run deterministic — with two armed ranks the recovered
// root cause would race in real time.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/cover"
	"repro/internal/mpisim"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// discoverBusiest prices each alive rank's per-iteration compute block:
// the busiest of its GPUs over their λ partitions. In mask mode the job is
// identical every iteration, so one pricing serves the whole leg. Device
// indices are physical so injected stragglers survive machine shrinks.
func discoverBusiest(spec Spec, w Workload, plan FaultPlan, curve sched.Curve,
	perNode [][]sched.Partition, alive []int, rowWords int, withFaults bool) []float64 {
	gpn := spec.GPUsPerNode
	busiest := make([]float64, len(alive))
	parallelFor(len(alive), func(ai int) {
		for d := 0; d < gpn; d++ {
			phys := alive[ai]*gpn + d
			extra := 0.0
			if withFaults {
				extra = plan.stragglerSlowdown(phys)
			}
			m := spec.Device.Simulate(w.jobFor(curve, perNode[ai][d], rowWords, phys, extra))
			if m.BusySeconds > busiest[ai] {
				busiest[ai] = m.BusySeconds
			}
		}
	})
	return busiest
}

// runDiscoverLeg plays iterations [progress, totalIters) of the
// distributed greedy on a world of len(busiest) ranks: each iteration is
// one rank-local compute block, then the winner's reduce/bcast and the
// work-count reduce/bcast. With armedIdx ≥ 0 the rank dies at relFail
// seconds of virtual time; the returned entered counter then reports how
// many leg iterations its Compute reached — deterministic, because the
// armed rank's own trajectory up to its death is scheduling-independent.
func runDiscoverLeg(spec Spec, plan FaultPlan, busiest []float64,
	progress, totalIters, armedIdx int, relFail float64) (*mpisim.World, int, error) {
	world := mpisim.NewWorld(len(busiest), spec.Comm)
	if armedIdx >= 0 {
		world.FailRankAt(armedIdx, relFail)
	}
	entered := 0
	sumCounts := func(a, b any) any {
		x, y := a.(cover.Counts), b.(cover.Counts)
		return cover.Counts{Evaluated: x.Evaluated + y.Evaluated, Pruned: x.Pruned + y.Pruned}
	}
	err := world.Run(func(r *mpisim.Rank) error {
		for it := progress; it < totalIters; it++ {
			if r.ID() == armedIdx {
				entered = it - progress + 1
			}
			block := busiest[r.ID()] + spec.IterOverheadSec
			if plan.CheckpointEvery > 0 && (it+1)%plan.CheckpointEvery == 0 {
				block += plan.CheckpointCostSec
			}
			r.Compute(block)
			folded := r.Reduce(reduce.None, reduce.BytesPerRecord, combineCombo)
			r.Bcast(folded, reduce.BytesPerRecord)
			// The Evaluated/Pruned tally is a 16-byte Counts pair.
			evalSum := r.Reduce(cover.Counts{}, 2*8, sumCounts)
			r.Bcast(evalSum, 2*8)
		}
		return nil
	})
	return world, entered, err
}

// DiscoverFaults runs Discover under the fault plan. The returned Steps
// are the fault-free run's, field for field, under either recovery policy;
// VirtualSeconds carries the recovery overhead and Recovery itemises it.
// An empty plan reproduces Discover's virtual time exactly, Kernelize
// included.
func DiscoverFaults(spec Spec, tumor, normal *bitmat.Matrix, opt cover.Options, plan FaultPlan) (*DiscoverResult, error) {
	return DiscoverFaultsCtx(context.Background(), spec, tumor, normal, opt, plan)
}

// DiscoverFaultsCtx is DiscoverFaults under a caller-supplied context: the
// greedy (the only real kernel work in this path) observes cancellation
// between passes and before each GPU partition.
func DiscoverFaultsCtx(ctx context.Context, spec Spec, tumor, normal *bitmat.Matrix, opt cover.Options, plan FaultPlan) (*DiscoverResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(spec.Nodes); err != nil {
		return nil, err
	}
	greedy, passes, genes, err := discoverGreedy(ctx, spec, tumor, normal, opt)
	if err != nil {
		return nil, err
	}

	w := Workload{
		Genes:         tumor.Genes(),
		TumorSamples:  tumor.Samples(),
		NormalSamples: normal.Samples(),
		Scheme:        greedy.Options.Scheme,
		Scheduler:     opt.Scheduler,
		Iterations:    1,
	}
	if opt.Kernelize {
		w.KernelGenes = genes
	}
	curve, err := w.curve()
	if err != nil {
		return nil, err
	}
	rowWords := w.words(tumor.Samples())
	gpn := spec.GPUsPerNode

	// Fault-free anchor: the pristine machine, no stragglers, no
	// checkpoint cost — Discover's own virtual time.
	fullNodes := make([]int, spec.Nodes)
	for i := range fullNodes {
		fullNodes[i] = i
	}
	fullPerNode, err := discoverPerNode(curve, opt.Scheduler, spec.Nodes, gpn)
	if err != nil {
		return nil, err
	}
	cleanBusiest := discoverBusiest(spec, w, plan, curve, fullPerNode, fullNodes, rowWords, false)
	cleanWorld, _, err := runDiscoverLeg(spec, FaultPlan{}, cleanBusiest, 0, passes, -1, 0)
	if err != nil {
		return nil, err
	}
	faultFree := spec.StartupSec + cleanWorld.MaxClock()

	rec := &Recovery{
		Policy:              plan.Policy,
		StragglersInjected:  plan.countStragglers(spec.GPUs()),
		FaultFreeRuntimeSec: faultFree,
	}
	pending := plan.plannedFailures(spec.Nodes)

	alive := fullNodes
	ledger := make([]RankReport, spec.Nodes)
	for n := range ledger {
		ledger[n].Rank = n
	}
	elapsed := 0.0
	progress := 0
	for progress < passes {
		perNode := fullPerNode
		if len(alive) != spec.Nodes {
			perNode, err = discoverPerNode(curve, opt.Scheduler, len(alive), gpn)
			if err != nil {
				return nil, err
			}
		}
		busiest := discoverBusiest(spec, w, plan, curve, perNode, alive, rowWords, true)

		armed, armedIdx, haveFailure := armFailure(pending, alive)
		rel := 0.0
		if haveFailure {
			rel = armed.AtSec - elapsed
			if rel < 0 {
				rel = 0
			}
		} else {
			armedIdx = -1
		}
		world, entered, runErr := runDiscoverLeg(spec, plan, busiest, progress, passes, armedIdx, rel)
		if runErr == nil {
			elapsed += world.MaxClock()
			for ai, phys := range alive {
				ledger[phys].ComputeSec += world.ComputeTime(ai)
				ledger[phys].CommSec += world.CommTime(ai)
				ledger[phys].WaitSec += world.WaitTime(ai)
			}
			if plan.CheckpointEvery > 0 {
				for it := progress; it < passes; it++ {
					if (it+1)%plan.CheckpointEvery == 0 {
						rec.CheckpointsTaken++
						rec.CheckpointCostSec += plan.CheckpointCostSec
					}
				}
			}
			progress = passes
			break
		}
		var fe *mpisim.FailureError
		if !errors.As(runErr, &fe) {
			return nil, runErr
		}
		inflight := progress + entered - 1
		tFail := fe.AtSec
		rec.FailuresInjected++
		rec.Failures = append(rec.Failures, RankFailure{Rank: alive[armedIdx], AtSec: elapsed + tFail})
		pending = dropFailure(pending, armed)
		if plan.CheckpointEvery > 0 {
			for it := progress; it < inflight; it++ {
				if (it+1)%plan.CheckpointEvery == 0 {
					rec.CheckpointsTaken++
					rec.CheckpointCostSec += plan.CheckpointCostSec
				}
			}
		}

		switch plan.Policy {
		case PolicyRestart:
			elapsed += tFail + spec.StartupSec
			restartFrom := 0
			if plan.CheckpointEvery > 0 {
				restartFrom = inflight / plan.CheckpointEvery * plan.CheckpointEvery
			}
			crit := 0.0
			for _, b := range busiest {
				if b > crit {
					crit = b
				}
			}
			rec.RecomputedIterations += inflight - restartFrom
			rec.RecomputedWorkSec += float64(inflight-restartFrom) * (crit + spec.IterOverheadSec)
			rec.RestartCount++
			progress = restartFrom
		case PolicyDegrade:
			survivors := make([]int, 0, len(alive)-1)
			for ai, phys := range alive {
				if ai != armedIdx {
					survivors = append(survivors, phys)
				}
			}
			if len(survivors) == 0 {
				return nil, fmt.Errorf("cluster: all ranks failed; nothing left to degrade onto")
			}
			// The in-flight iteration's partial results die with the
			// collective: survivors redo their own λ-ranges, then run a
			// makeup pass over the dead rank's range, re-cut equi-area
			// across their GPUs.
			redo := 0.0
			for ai := range alive {
				if ai == armedIdx {
					continue
				}
				if b := busiest[ai]; b > redo {
					redo = b
				}
			}
			lo := perNode[armedIdx][0].Lo
			hi := perNode[armedIdx][gpn-1].Hi
			mkParts, err := sched.EquiAreaRange(curve, lo, hi, len(survivors)*gpn)
			if err != nil {
				return nil, err
			}
			mkBusy := make([]float64, len(mkParts))
			parallelFor(len(mkParts), func(gi int) {
				phys := survivors[gi/gpn]*gpn + gi%gpn
				job := w.jobFor(curve, mkParts[gi], rowWords, phys, plan.stragglerSlowdown(phys))
				mkBusy[gi] = spec.Device.Simulate(job).BusySeconds
			})
			makeup := 0.0
			for _, b := range mkBusy {
				if b > makeup {
					makeup = b
				}
			}
			elapsed += tFail + plan.RescheduleSec + redo + makeup + spec.IterOverheadSec
			rec.MakeupPasses++
			rec.RecomputedIterations++
			rec.RecomputedWorkSec += redo + makeup
			if plan.CheckpointEvery > 0 && (inflight+1)%plan.CheckpointEvery == 0 {
				rec.CheckpointsTaken++
				rec.CheckpointCostSec += plan.CheckpointCostSec
			}
			progress = inflight + 1
			alive = survivors
		}
	}

	rec.SurvivingRanks = len(alive)
	res := &DiscoverResult{
		Steps:          greedy.Steps,
		Covered:        greedy.Covered,
		Uncoverable:    greedy.Uncoverable,
		VirtualSeconds: spec.StartupSec + elapsed,
		Ranks:          ledger,
		Recovery:       rec,
	}
	if scanned := greedy.Evaluated + greedy.Pruned; scanned > 0 {
		res.PruningRatio = float64(greedy.Pruned) / float64(scanned)
	}
	rec.OverheadSec = res.VirtualSeconds - faultFree
	return res, nil
}
