package service

// Admission control (docs/SERVICE.md §4).
//
// Concurrency is not sized by guesswork: each job is priced against the
// same analytic device model the scaling studies use (internal/gpusim,
// internal/cluster). A job's demand is the number of simulated devices
// needed to hold its λ-threads at saturation occupancy, and the daemon
// owns a fixed simulated cluster; a job is dispatched only when its
// demand fits the devices not already reserved by running jobs, so
// concurrent jobs can never oversubscribe the modeled machine. The same
// pricing yields an estimated single-device runtime, reported per job so
// clients can see what they queued.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/cover"
	"repro/internal/dataset"
	"repro/internal/gpusim"
	"repro/internal/sched"
)

// defaultCostIterations is the greedy-step estimate used to price
// unbounded jobs; the paper-scale runs settle in 8-12 iterations.
const defaultCostIterations = 8

// Cost is one job's admission price.
type Cost struct {
	// GPUs is the simulated-device demand reserved while the job runs.
	GPUs int `json:"gpus"`
	// Threads is the λ-domain size of one enumeration pass.
	Threads uint64 `json:"threads"`
	// DeviceSeconds is the modeled single-device busy time for the whole
	// job — an estimate for operators, not a scheduling input.
	DeviceSeconds float64 `json:"device_seconds"`
}

// EstimateCost prices a job's scan, cover.SchemeFor(opt.Hits), on the
// admission device model. opt must be normalized; the cohort supplies the
// matrix dimensions.
func EstimateCost(c *dataset.Cohort, opt cover.Options, device gpusim.DeviceSpec) (Cost, error) {
	scheme := cover.SchemeFor(opt.Hits)
	curve, err := cover.SchemeCurve(uint64(c.Spec.Genes), scheme)
	if err != nil {
		return Cost{}, err
	}
	if sched.Overflowed(curve) {
		return Cost{}, fmt.Errorf("service: λ-domain of C(%d, %d) overflows the cost model", c.Spec.Genes, opt.Hits)
	}
	cost := Cost{
		Threads: curve.Threads(),
		GPUs:    device.DevicesFor(curve.Threads()),
	}
	iters := opt.MaxIterations
	if iters <= 0 {
		iters = defaultCostIterations
	}
	w := cluster.Workload{
		Genes:         c.Spec.Genes,
		TumorSamples:  c.Nt(),
		NormalSamples: c.Nn(),
		Scheme:        scheme,
		Scheduler:     opt.Scheduler,
		Iterations:    iters,
	}
	sec, err := cluster.SingleGPUSeconds(cluster.Spec{Nodes: 1, GPUsPerNode: 1, Device: device}, w)
	if err != nil {
		return Cost{}, err
	}
	cost.DeviceSeconds = sec
	return cost, nil
}

// admission tracks the simulated cluster's reserved devices. Not
// self-locking: the Service's mutex guards it together with the queue so
// dispatch decisions are atomic.
type admission struct {
	capacity int // total simulated devices
	inUse    int // devices reserved by running jobs
	running  int // running job count
}

// fits reports whether the job's demand fits the idle devices.
func (a *admission) fits(c Cost) bool { return a.inUse+c.GPUs <= a.capacity }

// reserve takes the job's devices.
func (a *admission) reserve(c Cost) {
	a.inUse += c.GPUs
	a.running++
}

// release returns them.
func (a *admission) release(c Cost) {
	a.inUse -= c.GPUs
	a.running--
}
