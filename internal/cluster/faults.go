package cluster

// Fault injection and recovery for the simulated cluster (docs/FAULTS.md).
//
// The paper's production runs occupy thousands of Summit GPUs for hours
// (Sec. IV) — a regime where node failures and stragglers are routine. This
// file models both; the leg protocol (run.go) prices two recovery policies
// against them:
//
//   - PolicyRestart aborts the job at the failure, books the wasted time
//     plus a fresh StartupSec, and resumes from the latest checkpoint
//     boundary (FaultPlan.CheckpointEvery iterations apart), recomputing
//     the iterations since.
//   - PolicyDegrade drops the dead rank, re-runs the equi-area scheduler
//     over the λ-range the dead rank owned across the surviving ranks'
//     GPUs (a "makeup pass", sched.EquiAreaRange), and continues the
//     remaining iterations on the shrunken machine.
//
// Failures are deterministic: explicit (rank, virtual time) pairs and/or
// per-rank exponential lifetimes hashed from FaultPlan.Seed. Straggler
// devices are selected by the same seeded hash and inflated through
// gpusim.Job.ExtraSlowdown. Same plan, same spec, same workload → an
// identical Report, which the tests pin.

import (
	"fmt"
	"math"
	"sort"
)

// RecoveryPolicy selects how a run reacts to a rank failure.
type RecoveryPolicy int

const (
	// PolicyRestart aborts and restarts the whole job from the latest
	// checkpoint on the full allocation.
	PolicyRestart RecoveryPolicy = iota
	// PolicyDegrade continues on the surviving ranks, re-partitioning the
	// dead rank's λ-range across them.
	PolicyDegrade
)

// String names the policy for reports and flags.
func (p RecoveryPolicy) String() string {
	switch p {
	case PolicyRestart:
		return "restart"
	case PolicyDegrade:
		return "degrade"
	}
	return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
}

// RankFailure is one injected node death: the machine rank (0-based
// physical node index) and the virtual time of death, measured from the
// end of startup.
type RankFailure struct {
	Rank  int
	AtSec float64
}

// FaultPlan configures the fault injector and the recovery policy.
type FaultPlan struct {
	// Seed drives every sampled quantity (lifetimes, straggler selection).
	Seed uint64
	// Failures are explicit deaths, in addition to any MTBF-sampled ones.
	Failures []RankFailure
	// MTBFSec, when positive, samples one exponential lifetime per rank
	// with this mean; ranks whose lifetime falls inside the run die.
	MTBFSec float64
	// StragglerFrac is the probability that a GPU is an injected straggler;
	// StragglerFactor is the busy-time multiplier applied to those devices
	// (via gpusim.Job.ExtraSlowdown). Frac 0 disables.
	StragglerFrac   float64
	StragglerFactor float64
	// Policy selects the recovery strategy.
	Policy RecoveryPolicy
	// CheckpointEvery is the checkpoint cadence in completed iterations;
	// 0 means no checkpoints (PolicyRestart then restarts from scratch).
	CheckpointEvery int
	// CheckpointCostSec is the virtual time each checkpoint adds to the
	// iteration that takes it.
	CheckpointCostSec float64
	// RescheduleSec is the fixed cost of reconfiguring after a failure
	// under PolicyDegrade (failure detection, schedule recomputation,
	// communicator rebuild).
	RescheduleSec float64
}

// Validate reports the first problem with the plan, given the machine size.
func (p FaultPlan) Validate(nodes int) error {
	switch {
	case p.MTBFSec < 0:
		return fmt.Errorf("cluster: MTBFSec must be non-negative")
	case p.StragglerFrac < 0 || p.StragglerFrac > 1:
		return fmt.Errorf("cluster: StragglerFrac must be in [0, 1]")
	case p.StragglerFrac > 0 && p.StragglerFactor < 1:
		return fmt.Errorf("cluster: StragglerFactor must be ≥ 1 when StragglerFrac > 0")
	case p.CheckpointEvery < 0:
		return fmt.Errorf("cluster: CheckpointEvery must be non-negative")
	case p.CheckpointCostSec < 0 || p.RescheduleSec < 0:
		return fmt.Errorf("cluster: recovery costs must be non-negative")
	}
	switch p.Policy {
	case PolicyRestart, PolicyDegrade:
	default:
		return fmt.Errorf("cluster: unknown recovery policy %v", p.Policy)
	}
	for i, f := range p.Failures {
		if f.Rank < 0 || f.Rank >= nodes {
			return fmt.Errorf("cluster: failure %d targets rank %d of %d", i, f.Rank, nodes)
		}
		if f.AtSec < 0 {
			return fmt.Errorf("cluster: failure %d at negative time %g", i, f.AtSec)
		}
	}
	return nil
}

// Recovery is the fault/recovery section of a Report.
type Recovery struct {
	// Policy echoes the plan.
	Policy RecoveryPolicy
	// FailuresInjected is the number of rank deaths that fired; Failures
	// lists them with absolute virtual times (from end of startup).
	FailuresInjected int
	Failures         []RankFailure
	// StragglersInjected is the number of GPUs inflated by the plan.
	StragglersInjected int
	// CheckpointsTaken counts cadence checkpoints actually completed;
	// CheckpointCostSec is their total virtual-time cost.
	CheckpointsTaken  int
	CheckpointCostSec float64
	// RecomputedIterations counts iterations whose work was redone after
	// failures; RecomputedWorkSec is the recomputed critical-path time
	// (restart replays plus degrade makeup passes).
	RecomputedIterations int
	RecomputedWorkSec    float64
	// MakeupPasses counts PolicyDegrade re-partitioning passes;
	// RestartCount counts PolicyRestart job restarts.
	MakeupPasses int
	RestartCount int
	// SurvivingRanks is the rank count still alive at the end.
	SurvivingRanks int
	// FaultFreeRuntimeSec is the same run priced with no faults;
	// OverheadSec is RuntimeSec − FaultFreeRuntimeSec.
	FaultFreeRuntimeSec float64
	OverheadSec         float64
}

// hash01f is a deterministic uniform sample in (0, 1) for a seed, an index
// and a stream — the same splitmix64 finalizer gpusim uses for its device
// noise, seeded independently so fault draws never correlate with jitter.
func hash01f(seed uint64, index, stream int) float64 {
	z := seed ^ (uint64(index)*0x9e3779b97f4a7c15 + uint64(stream)*0xd1b54a32d192ed03 + 0x2545f4914f6cdd1d)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	u := float64(z>>11) / float64(1<<53)
	if u <= 0 {
		u = 0.5 / float64(1<<53)
	}
	return u
}

// Hash streams for the fault plan's independent draws.
const (
	streamLifetime  = 1
	streamStraggler = 2
)

// plannedFailures merges the explicit failure list with MTBF-sampled
// lifetimes, keeping at most one death per rank (the earliest), sorted by
// time then rank.
func (p FaultPlan) plannedFailures(nodes int) []RankFailure {
	earliest := make(map[int]float64)
	for _, f := range p.Failures {
		if t, ok := earliest[f.Rank]; !ok || f.AtSec < t {
			earliest[f.Rank] = f.AtSec
		}
	}
	if p.MTBFSec > 0 {
		for r := 0; r < nodes; r++ {
			t := -math.Log(hash01f(p.Seed, r, streamLifetime)) * p.MTBFSec
			if cur, ok := earliest[r]; !ok || t < cur {
				earliest[r] = t
			}
		}
	}
	out := make([]RankFailure, 0, len(earliest))
	for r, t := range earliest {
		out = append(out, RankFailure{Rank: r, AtSec: t})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AtSec != out[j].AtSec {
			return out[i].AtSec < out[j].AtSec
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// stragglerSlowdown returns the ExtraSlowdown for a physical GPU: the
// plan's factor for selected devices, 0 (disabled) otherwise.
func (p FaultPlan) stragglerSlowdown(gpu int) float64 {
	if p.StragglerFrac > 0 && hash01f(p.Seed, gpu, streamStraggler) < p.StragglerFrac {
		return p.StragglerFactor
	}
	return 0
}

// countStragglers counts selected devices over the full machine.
func (p FaultPlan) countStragglers(gpus int) int {
	n := 0
	for g := 0; g < gpus; g++ {
		if p.stragglerSlowdown(g) > 0 {
			n++
		}
	}
	return n
}

// checkpointAt reports whether iteration it (0-based) ends on the plan's
// checkpoint cadence.
func (p FaultPlan) checkpointAt(it int) bool {
	return p.CheckpointEvery > 0 && (it+1)%p.CheckpointEvery == 0
}

// SimulateFaults prices a full run of the workload under the fault plan.
// It is Simulate with failures: legs of fault-free execution separated by
// rank deaths, each recovered according to plan.Policy, with the recovery
// accounting surfaced in Report.Recovery. An empty plan reproduces
// Simulate's Report exactly, plus a zeroed Recovery section.
func SimulateFaults(spec Spec, w Workload, plan FaultPlan) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(spec.Nodes); err != nil {
		return nil, err
	}
	pr, err := modelPricing(spec, w)
	if err != nil {
		return nil, err
	}
	return pr.runFaults(spec, plan)
}
