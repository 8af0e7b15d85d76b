package cluster

// The leg protocol: the one virtual-clock run loop behind Simulate,
// SimulateFaults, WeakScaling and DiscoverFaults (docs/FAULTS.md).
//
// A run is a sequence of legs. A leg plays the iterations still to do on
// the alive machine in one mpisim world: in each iteration every rank
// computes its busiest GPU's busy time plus IterOverheadSec (plus the
// checkpoint cost on cadence iterations), then closes the iteration with
// one reduce/broadcast pair per payload. At most one planned failure is
// armed per leg. When it fires, the plan's policy books the restart or the
// degrade, and the next leg starts. The callers differ only in a pricing
// value: how the λ curve is cut for a number of alive nodes, the per-
// iteration row widths, and the collective payloads.

import (
	"errors"
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/mpisim"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// A pricing is what one run of the leg protocol prices.
type pricing struct {
	// w shapes every GPU's device-model job (jobFor). Its rowWordsSchedule
	// sets the iteration count and each iteration's row width.
	w Workload
	// curve is the λ workload curve that parts cuts.
	curve sched.Curve
	// parts returns the per-GPU partitions of a machine of n alive nodes,
	// node-major: GPU d of alive node a holds partition a·GPUsPerNode + d.
	parts func(n int) ([]sched.Partition, error)
	// payloads are the byte sizes of the reduce/broadcast pairs that close
	// every iteration.
	payloads []int
}

// modelPricing is the performance model's pricing of a workload: flat
// partitions over every alive GPU under the workload's scheduler, and the
// 20-byte winner reduce/broadcast per iteration.
func modelPricing(spec Spec, w Workload) (pricing, error) {
	curve, err := w.curve()
	if err != nil {
		return pricing{}, err
	}
	return pricing{
		w:     w,
		curve: curve,
		parts: func(n int) ([]sched.Partition, error) {
			return w.partitionsN(curve, spec.Device, n*spec.GPUsPerNode)
		},
		payloads: []int{reduce.BytesPerRecord},
	}, nil
}

// rowWordsSchedule is the timeline of the workload's iterations before
// pricing: each iteration's remaining tumor samples and packed row words
// under the splice-shrink trajectory. Every leg and restart prices from it,
// so a replayed iteration costs what it cost the first time.
func (w Workload) rowWordsSchedule() []IterationReport {
	iters := make([]IterationReport, w.Iterations)
	left := w.TumorSamples
	for it := range iters {
		iters[it] = IterationReport{Iteration: it, TumorRemaining: left, RowWords: w.words(left)}
		if w.SpliceShrink > 0 {
			left = max(1, int(float64(left)*(1-w.SpliceShrink)))
		}
	}
	return iters
}

// price prices one iteration of per-GPU partitions on the alive nodes' GPUs
// at a row width. Device indices are physical, so an injected straggler
// stays a straggler after the machine shrinks around it.
func (pr pricing) price(spec Spec, plan FaultPlan, parts []sched.Partition, alive []int, rowWords int) []gpusim.Metrics {
	gpn := spec.GPUsPerNode
	out := make([]gpusim.Metrics, len(parts))
	// Devices are independent; price them on all cores. Results land in
	// index-addressed slots, so the output stays deterministic.
	parallelFor(len(parts), func(gi int) {
		phys := alive[gi/gpn]*gpn + gi%gpn
		out[gi] = spec.Device.Simulate(pr.w.jobFor(pr.curve, parts[gi], rowWords, phys, plan.stragglerSlowdown(phys)))
	})
	return out
}

// legPrice is one leg's pricing on the alive machine.
type legPrice struct {
	parts []sched.Partition
	// first is every GPU's model output in the leg's first iteration.
	first []gpusim.Metrics
	// busy[li][gi] is GPU gi's busy time in the leg's li-th iteration and
	// nodeBusy[li][ai] the busiest GPU of alive node ai.
	busy, nodeBusy [][]float64
}

// priceLeg prices iterations [from, len(iters)) on the alive nodes.
func (pr pricing) priceLeg(spec Spec, plan FaultPlan, iters []IterationReport, alive []int, from int) (*legPrice, error) {
	parts, err := pr.parts(len(alive))
	if err != nil {
		return nil, err
	}
	lp := &legPrice{parts: parts}
	for it := from; it < len(iters); it++ {
		ms := pr.price(spec, plan, parts, alive, iters[it].RowWords)
		if it == from {
			lp.first = ms
		}
		busy := make([]float64, len(ms))
		nodeBusy := make([]float64, len(alive))
		for gi, m := range ms {
			busy[gi] = m.BusySeconds
			ai := gi / spec.GPUsPerNode
			nodeBusy[ai] = max(nodeBusy[ai], m.BusySeconds)
		}
		lp.busy = append(lp.busy, busy)
		lp.nodeBusy = append(lp.nodeBusy, nodeBusy)
	}
	return lp, nil
}

// slowest returns the largest busy time and the first index holding it.
func slowest(busy []float64) (float64, int) {
	maxBusy, at := 0.0, 0
	for i, b := range busy {
		if b > maxBusy {
			maxBusy, at = b, i
		}
	}
	return maxBusy, at
}

// armFailure picks the leg's armed failure: the earliest pending failure
// whose rank is still alive. Only one rank is ever armed per leg — the
// world tears down at the first death anyway, and arming a single rank
// keeps the recovered root cause deterministic.
func armFailure(pending []RankFailure, alive []int) (RankFailure, int, bool) {
	for _, f := range pending {
		for ai, phys := range alive {
			if phys == f.Rank {
				return f, ai, true
			}
		}
	}
	return RankFailure{}, 0, false
}

// dropFailure removes the fired failure from the pending list.
func dropFailure(pending []RankFailure, fired RankFailure) []RankFailure {
	out := pending[:0]
	for _, f := range pending {
		if f != fired {
			out = append(out, f)
		}
	}
	return out
}

// run plays the leg protocol for pr on the machine under the plan. The
// Report carries the runtime, the rank ledgers of completed legs, the
// iteration timeline, the pristine machine's first-iteration GPU metrics
// and utilization, and a Recovery section without its fault-free anchor
// (see runFaults).
func (pr pricing) run(spec Spec, plan FaultPlan) (*Report, error) {
	gpn := spec.GPUsPerNode
	iters := pr.w.rowWordsSchedule()
	rec := &Recovery{
		Policy:             plan.Policy,
		StragglersInjected: plan.countStragglers(spec.GPUs()),
	}
	rep := &Report{
		Spec:         spec,
		Workload:     pr.w,
		Ranks:        make([]RankReport, spec.Nodes),
		Iterations:   iters,
		Recovery:     rec,
		PruningRatio: pr.w.PruneRatio,
	}
	alive := make([]int, spec.Nodes)
	for n := range alive {
		alive[n] = n
		rep.Ranks[n].Rank = n
	}
	pending := plan.plannedFailures(spec.Nodes)
	// done marks iterations whose timeline entry is final; complete marks
	// [from, to) done and books their cadence checkpoints.
	done := make([]bool, len(iters))
	complete := func(from, to int) {
		for it := from; it < to; it++ {
			done[it] = true
			if plan.checkpointAt(it) {
				rec.CheckpointsTaken++
				rec.CheckpointCostSec += plan.CheckpointCostSec
			}
		}
	}

	elapsed := 0.0
	for progress := 0; progress < len(iters); {
		lp, err := pr.priceLeg(spec, plan, iters, alive, progress)
		if err != nil {
			return nil, err
		}
		if rep.GPUMetrics == nil {
			// The pristine machine's first iteration: the Fig. 6/7 inputs.
			rep.GPUMetrics, rep.Utilization = lp.first, gpusim.Utilization(lp.busy[0])
		}
		for li, busy := range lp.busy {
			if it := progress + li; !done[it] {
				iters[it].MaxBusySec, iters[it].CriticalGPU = slowest(busy)
			}
		}

		armed, armedIdx, haveFailure := armFailure(pending, alive)
		world := mpisim.NewWorld(len(alive), spec.Comm)
		if haveFailure {
			// A stale failure kills the node the moment the leg starts.
			world.FailRankAt(armedIdx, max(0, armed.AtSec-elapsed))
		} else {
			armedIdx = -1
		}
		// entered counts the iterations whose Compute the armed rank
		// reached; written only by that rank's goroutine, and deterministic
		// because the rank's virtual-time trajectory up to its own death
		// does not depend on goroutine scheduling.
		entered := 0
		runErr := world.Run(func(r *mpisim.Rank) error {
			for it := progress; it < len(iters); it++ {
				if r.ID() == armedIdx {
					entered = it - progress + 1
				}
				block := lp.nodeBusy[it-progress][r.ID()] + spec.IterOverheadSec
				if plan.checkpointAt(it) {
					block += plan.CheckpointCostSec
				}
				r.Compute(block)
				for _, bytes := range pr.payloads {
					r.Bcast(r.Reduce(reduce.None, bytes, combineCombo), bytes)
				}
			}
			return nil
		})
		if runErr == nil {
			elapsed += world.MaxClock()
			for ai, phys := range alive {
				rep.Ranks[phys].ComputeSec += world.ComputeTime(ai)
				rep.Ranks[phys].CommSec += world.CommTime(ai)
				rep.Ranks[phys].WaitSec += world.WaitTime(ai)
			}
			complete(progress, len(iters))
			break
		}
		var fe *mpisim.FailureError
		if !errors.As(runErr, &fe) {
			return nil, runErr
		}
		// The armed rank died in iteration inflight's compute; iterations
		// progress..inflight-1 completed on every rank (the dead rank's
		// reduce contribution for them was sent before it died). The
		// aborted world's surviving-rank ledgers stop at scheduling-
		// dependent points and are discarded; only the dead rank's clock
		// (fe.AtSec) is deterministic, and it is what the booking uses.
		inflight := progress + entered - 1
		rec.FailuresInjected++
		rec.Failures = append(rec.Failures, RankFailure{Rank: alive[armedIdx], AtSec: elapsed + fe.AtSec})
		pending = dropFailure(pending, armed)
		complete(progress, inflight)

		switch plan.Policy {
		case PolicyRestart:
			elapsed += fe.AtSec + spec.StartupSec
			from := 0
			if plan.CheckpointEvery > 0 {
				from = inflight / plan.CheckpointEvery * plan.CheckpointEvery
			}
			rec.RecomputedIterations += inflight - from
			for it := from; it < inflight; it++ {
				rec.RecomputedWorkSec += iters[it].MaxBusySec + spec.IterOverheadSec
			}
			rec.RestartCount++
			progress = from
		case PolicyDegrade:
			// The in-flight iteration died inside its collective, so its
			// partial results are lost: the survivors redo their own
			// λ-ranges and then run a makeup pass over the dead rank's
			// range, re-cut equi-area across their GPUs at the in-flight
			// iteration's row width.
			survivors := make([]int, 0, len(alive)-1)
			redo := 0.0
			for ai, phys := range alive {
				if ai != armedIdx {
					survivors = append(survivors, phys)
					redo = max(redo, lp.nodeBusy[inflight-progress][ai])
				}
			}
			if len(survivors) == 0 {
				return nil, fmt.Errorf("cluster: all ranks failed; nothing left to degrade onto")
			}
			lo, hi := lp.parts[armedIdx*gpn].Lo, lp.parts[(armedIdx+1)*gpn-1].Hi
			mkParts, err := sched.EquiAreaRange(pr.curve, lo, hi, len(survivors)*gpn)
			if err != nil {
				return nil, err
			}
			makeup := 0.0
			for _, m := range pr.price(spec, plan, mkParts, survivors, iters[inflight].RowWords) {
				makeup = max(makeup, m.BusySeconds)
			}
			elapsed += fe.AtSec + plan.RescheduleSec + redo + makeup + spec.IterOverheadSec
			rec.MakeupPasses++
			rec.RecomputedIterations++
			rec.RecomputedWorkSec += redo + makeup
			complete(inflight, inflight+1)
			progress, alive = inflight+1, survivors
		}
	}
	rec.SurvivingRanks = len(alive)
	rep.RuntimeSec = spec.StartupSec + elapsed
	return rep, nil
}

// runFaults is run under the plan, with Recovery's fault-free anchor taken
// from the same pricing under the empty plan: the pristine machine, no
// stragglers and no checkpoint cost.
func (pr pricing) runFaults(spec Spec, plan FaultPlan) (*Report, error) {
	base, err := pr.run(spec, FaultPlan{})
	if err != nil {
		return nil, err
	}
	rep, err := pr.run(spec, plan)
	if err != nil {
		return nil, err
	}
	rep.Recovery.FaultFreeRuntimeSec = base.RuntimeSec
	rep.Recovery.OverheadSec = rep.RuntimeSec - base.RuntimeSec
	return rep, nil
}
