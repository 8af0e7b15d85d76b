package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/service"
)

// workload is one traffic mix driven against multihitd. The "why" of
// each lives in BENCHMARK.json; the layer each one stresses is listed in
// LAYERS.md.
type workload struct {
	name string
	// openLoop selects scheduled arrivals at rate per second; otherwise
	// one client sends the next job only after the previous result is
	// readable.
	openLoop bool
	// rate is in jobs per second. It fixes how many jobs a segment of a
	// given length sends: for an open-loop workload it is the arrival
	// rate, for a closed-loop one the throughput the daemon reached on
	// the reference machine. The job count of a run therefore does not
	// depend on how fast the program is, and neither do the per-job
	// costs and the peak memory measured over it.
	rate float64
	// slo is the submit-to-readable limit slo_ok_frac counts against.
	slo time.Duration
	// repeatFrac is the share of open-loop arrivals that resubmit an
	// earlier spec, so result-cache reads run beside writes. A repeat
	// only names a spec first sent at least repeatAge earlier.
	repeatFrac float64
	repeatAge  time.Duration
	// layerSpecs is how many distinct specs the traced run also replays
	// through cover.Run and an in-process service.
	layerSpecs int
	// spec builds the i-th new job spec of a run.
	spec func(r *rng, i int) service.JobSpec
}

// workloadSizes are the cohort sizes of the full and the self-test
// ("tiny") variants.
type workloadSizes struct {
	brcaGenes, accGenes, serveGenes int
	// brcaSteps and accSteps cap jobs at their first greedy steps (the
	// top-k combinations): uncapped cohorts take from a few to 60+ steps,
	// and a few long jobs would decide each run's throughput.
	brcaSteps, accSteps          int
	brcaRate, accRate, serveRate float64
	serveRepeatAge               time.Duration
}

var (
	fullSizes = workloadSizes{
		brcaGenes: 100, brcaSteps: 10, brcaRate: brcaRate,
		accGenes: 100, accSteps: 8, accRate: accRate,
		serveGenes: 60, serveRate: serveRate, serveRepeatAge: time.Second,
	}
	tinySizes = workloadSizes{
		brcaGenes: 20, brcaSteps: 10, brcaRate: 10,
		accGenes: 40, accSteps: 8, accRate: 10,
		serveGenes: 24, serveRate: 20, serveRepeatAge: 100 * time.Millisecond,
	}
)

// The workloads' rates, measured on a 2-vCPU x86-64 virtual machine
// (nproc = 2). brcaRate and accRate are the median closed-loop
// throughputs of ten seeds; serveRate is 60% of the ~53 jobs per second
// the daemon sustained on the serve_mix mix before its backlog grew
// (open-loop rate sweep, nproc connections).
const (
	brcaRate  = 4.4
	accRate   = 11
	serveRate = 32
)

func workloads(sz workloadSizes) []workload {
	return []workload{
		{
			name:       "brca4_dense",
			rate:       sz.brcaRate,
			layerSpecs: 3,
			spec: func(r *rng, i int) service.JobSpec {
				return service.JobSpec{
					Tenant:  "bench",
					Cohort:  service.CohortSpec{Code: "BRCA", Genes: sz.brcaGenes, Hits: 4, Seed: r.cohortSeed(i)},
					Options: service.OptionsSpec{MaxIterations: sz.brcaSteps},
				}
			},
		},
		{
			name:       "acc4_sparse",
			rate:       sz.accRate,
			layerSpecs: 12,
			spec: func(r *rng, i int) service.JobSpec {
				return service.JobSpec{
					Tenant:  "bench",
					Cohort:  service.CohortSpec{Code: "ACC", Genes: sz.accGenes, Hits: 4, Seed: r.cohortSeed(i)},
					Options: service.OptionsSpec{Kernelize: true, MaxIterations: sz.accSteps},
				}
			},
		},
		{
			name:       "serve_mix",
			openLoop:   true,
			rate:       sz.serveRate,
			slo:        250 * time.Millisecond,
			repeatFrac: 0.3,
			repeatAge:  sz.serveRepeatAge,
			layerSpecs: 12,
			spec: func(r *rng, i int) service.JobSpec {
				return service.JobSpec{
					Cohort:  service.CohortSpec{Code: "ACC", Genes: sz.serveGenes, Hits: 3, Seed: r.cohortSeed(i)},
					Options: service.OptionsSpec{},
				}
			},
		},
	}
}

func lookupWorkload(name string, tiny bool) (workload, error) {
	sz := fullSizes
	if tiny {
		sz = tinySizes
	}
	var names []string
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// count is the number of jobs a segment of length d sends.
func (w workload) count(d time.Duration) int {
	return int(math.Round(w.rate * d.Seconds()))
}

// arrival is one planned open-loop submission.
type arrival struct {
	at   time.Duration // offset from the start of the phase
	spec service.JobSpec
}

// plan lays out an open-loop run of a warm-up then a measured window:
// Poisson arrivals at w.rate, with each segment's arrival count fixed
// by w.count (uniform arrival times given the count) so every seed
// offers the same load; 4 tenants; a 30/50/20 batch/normal/urgent
// priority mix; and repeats of earlier specs. It depends only on the
// seed.
func (w workload) plan(seed int64, warmup, d time.Duration) []arrival {
	r := newRNG(seed)
	var times []time.Duration
	for _, seg := range [][2]time.Duration{{0, warmup}, {warmup, warmup + d}} {
		ts := make([]time.Duration, w.count(seg[1]-seg[0]))
		for k := range ts {
			ts[k] = seg[0] + time.Duration(r.float()*float64(seg[1]-seg[0]))
		}
		slices.Sort(ts)
		times = append(times, ts...)
	}
	var out []arrival
	var fresh []arrival // first submissions, in arrival order
	i := 0
	for _, at := range times {
		var spec service.JobSpec
		old := 0 // fresh arrivals old enough to repeat
		for old < len(fresh) && fresh[old].at <= at-w.repeatAge {
			old++
		}
		if old > 0 && r.float() < w.repeatFrac {
			spec = fresh[r.intn(old)].spec
		} else {
			spec = w.spec(r, i)
			i++
			fresh = append(fresh, arrival{at: at, spec: spec})
		}
		spec.Tenant = fmt.Sprintf("tenant-%d", r.intn(4))
		switch p := r.float(); {
		case p < 0.3:
			spec.Priority = "batch"
		case p < 0.8:
			spec.Priority = "normal"
		default:
			spec.Priority = "urgent"
		}
		out = append(out, arrival{at: at, spec: spec})
	}
	return out
}

// rng is a splitmix64 stream: the only source of randomness for a run's
// inputs, so equal seeds give equal job specs.
type rng struct{ seed, state uint64 }

func newRNG(seed int64) *rng { return &rng{seed: uint64(seed), state: uint64(seed)} }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return splitmix64(r.state)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// cohortSeed gives the i-th new job of a run its own cohort seed, a pure
// function of (run seed, i).
func (r *rng) cohortSeed(i int) int64 {
	return int64(splitmix64(r.seed<<20^uint64(i)) >> 1)
}
