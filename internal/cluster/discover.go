package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/cover"
	"repro/internal/gpusim"
	"repro/internal/kernelize"
	"repro/internal/mpisim"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// DiscoverResult is the outcome of a distributed discovery run.
type DiscoverResult struct {
	// Steps lists the chosen combinations in greedy order with their
	// newly-covered counts.
	Steps []cover.Step
	// Covered is the total number of tumor samples covered.
	Covered int
	// Uncoverable is the count of tumor samples no combination covers.
	Uncoverable int
	// VirtualSeconds is the modeled job time under the virtual clock.
	VirtualSeconds float64
	// PruningRatio is the measured fraction of the scanned combination
	// space that bound-and-prune skipped: Pruned / (Evaluated + Pruned)
	// over the whole run, every enumeration pass included. Zero when
	// pruning is disabled (or never fired). The virtual clock does NOT
	// apply this discount — the device model prices the sched curve's
	// full combination count, an upper bound; see Workload.PruneRatio for
	// the opt-in pricing discount.
	PruningRatio float64
	// Ranks is the per-rank compute/communication ledger.
	Ranks []RankReport
	// Recovery reports fault-injection and recovery accounting; nil for
	// fault-free runs (see DiscoverFaults).
	Recovery *Recovery
}

// discoverPerNode builds the hierarchical λ-domain schedule for a machine
// of nodes ranks × gpn GPUs: ranks split the domain, then each rank splits
// its share across its GPUs (Fig. 1). Under equi-distance both levels
// split by thread count; otherwise both levels split equi-area.
func discoverPerNode(curve sched.Curve, scheduler cover.Scheduler, nodes, gpn int) ([][]sched.Partition, error) {
	if scheduler == cover.EquiDistance {
		nodeParts, err := sched.EquiDistance(curve, nodes)
		if err != nil {
			return nil, err
		}
		var perNode [][]sched.Partition
		for _, np := range nodeParts {
			sub, err := sched.EquiDistance(sched.NewFlat(np.Size()), gpn)
			if err != nil {
				return nil, err
			}
			var shifted []sched.Partition
			for _, p := range sub {
				shifted = append(shifted, sched.Partition{Lo: np.Lo + p.Lo, Hi: np.Lo + p.Hi})
			}
			perNode = append(perNode, shifted)
		}
		return perNode, nil
	}
	tl, err := sched.NewTwoLevel(curve, nodes, gpn)
	if err != nil {
		return nil, err
	}
	return tl.PerNode, nil
}

// Discover runs the full greedy cover distributed across the simulated
// cluster: each MPI rank executes the real kernels over its GPUs' λ
// partitions, per-rank winners are reduced to rank 0 and broadcast, and
// every rank updates its active-sample mask identically. The discovered
// cover is bit-for-bit the one cover.Run finds on a single machine; the
// virtual clock prices each rank's GPU work with the device model.
//
// Every rank holds the full input matrices (as on Summit, where the
// compressed inputs are small); only the 20-byte winners cross the fabric.
func Discover(spec Spec, tumor, normal *bitmat.Matrix, opt cover.Options) (*DiscoverResult, error) {
	return DiscoverCtx(context.Background(), spec, tumor, normal, opt)
}

// DiscoverCtx is Discover under a caller-supplied context. Every rank
// checks the context at each iteration and each per-GPU scan observes it
// between partitions (cover.FindBestRangeCtx), so a cancelled campaign
// stops within one partition of kernel work instead of finishing the
// multi-iteration cover.
func DiscoverCtx(ctx context.Context, spec Spec, tumor, normal *bitmat.Matrix, opt cover.Options) (*DiscoverResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if tumor.Genes() != normal.Genes() {
		return nil, fmt.Errorf("cluster: tumor has %d genes, normal has %d",
			tumor.Genes(), normal.Genes())
	}
	if tumor.Samples() == 0 {
		return nil, fmt.Errorf("cluster: no tumor samples")
	}
	if opt.BitSplice {
		return nil, fmt.Errorf("cluster: Discover uses mask-based exclusion; disable BitSplice")
	}

	// Resolve the scheme from the hit count as the engine does.
	resolved, err := opt.Normalized()
	if err != nil {
		return nil, err
	}

	// Under Kernelize the ranks scan a gene-axis reduction (dominated-gene
	// elimination only — the sample axis is untouched, so the active masks
	// and exclusion vectors keep indexing original columns and the scores
	// stay exact without weights). Every rank derives the same kernel from
	// the same matrices; winners are remapped to original gene ids before
	// the exclusion, and the dropped genes' combinations are credited to
	// Pruned so Evaluated+Pruned still tallies C(G, h) per pass.
	scanT, scanN := tumor, normal
	var kern *kernelize.Kernel
	var staticDrop uint64
	if opt.Kernelize {
		var kerr error
		kern, kerr = kernelize.ReduceGenes(tumor, normal, opt.Hits)
		if kerr != nil {
			return nil, kerr
		}
		scanT, scanN = kern.Tumor, kern.Normal
		full, ok := combinat.Binomial(uint64(tumor.Genes()), uint64(opt.Hits))
		if !ok {
			return nil, fmt.Errorf("cluster: domain C(%d, %d) overflows uint64",
				tumor.Genes(), opt.Hits)
		}
		kd, ok := combinat.Binomial(uint64(scanT.Genes()), uint64(opt.Hits))
		if !ok {
			return nil, fmt.Errorf("cluster: kernel domain C(%d, %d) overflows uint64",
				scanT.Genes(), opt.Hits)
		}
		staticDrop = full - kd
	}

	w := Workload{
		Genes:         tumor.Genes(),
		TumorSamples:  tumor.Samples(),
		NormalSamples: normal.Samples(),
		Scheme:        resolved.Scheme,
		Scheduler:     opt.Scheduler,
		Iterations:    1,
	}
	if kern != nil {
		w.KernelGenes = scanT.Genes()
	}
	curve, err := w.curve()
	if err != nil {
		return nil, err
	}
	// Hierarchical schedule, as on the real machine.
	perNode, err := discoverPerNode(curve, opt.Scheduler, spec.Nodes, spec.GPUsPerNode)
	if err != nil {
		return nil, err
	}
	rowWords := w.words(tumor.Samples())
	prefetch := w.prefetchRows()
	irr := w.irregularity()
	spanCap := w.spanCap()

	res := &DiscoverResult{}
	var mu sync.Mutex // guards res writes from rank 0
	var grand cover.Counts
	sumCounts := func(a, b any) any {
		x, y := a.(cover.Counts), b.(cover.Counts)
		return cover.Counts{Evaluated: x.Evaluated + y.Evaluated, Pruned: x.Pruned + y.Pruned}
	}

	world := mpisim.NewWorld(spec.Nodes, spec.Comm)
	err = world.Run(func(r *mpisim.Rank) error {
		active := bitmat.AllOnes(tumor.Samples())
		buf := make([]uint64, tumor.Words())
		for iter := 0; opt.MaxIterations == 0 || iter < opt.MaxIterations; iter++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if active.PopCount() == 0 {
				break
			}
			// Each of this rank's GPUs evaluates its partition.
			local := reduce.None
			var counts cover.Counts
			busiest := 0.0
			for d := 0; d < spec.GPUsPerNode; d++ {
				g := r.ID()*spec.GPUsPerNode + d
				part := perNode[r.ID()][d]
				best, n, err := cover.FindBestRangeCtx(ctx, scanT, scanN, active, opt, part.Lo, part.Hi)
				if err != nil {
					return err
				}
				if best.Better(local) {
					local = best
				}
				counts.Evaluated += n.Evaluated
				counts.Pruned += n.Pruned
				m := spec.Device.Simulate(gpusim.Job{
					Threads:      part.Size(),
					Combos:       curve.PrefixWork(part.Hi) - curve.PrefixWork(part.Lo),
					RowWords:     rowWords,
					PrefetchRows: prefetch,
					Irregularity: irr,
					SpanCap:      spanCap,
					DeviceIndex:  g,
				})
				if m.BusySeconds > busiest {
					busiest = m.BusySeconds
				}
			}
			r.Compute(busiest + spec.IterOverheadSec)

			folded := r.Reduce(local, reduce.BytesPerRecord, combineCombo)
			winner := r.Bcast(folded, reduce.BytesPerRecord).(reduce.Combo)
			// The work tally is a Counts pair now — 16 bytes on the wire
			// instead of the old 8-byte evaluated sum.
			evalSum := r.Reduce(counts, 2*8, sumCounts)
			total := r.Bcast(evalSum, 2*8).(cover.Counts)
			// The kernel's dropped genes are pruned work on every pass.
			total.Pruned += staticDrop
			if r.ID() == 0 {
				mu.Lock()
				grand.Evaluated += total.Evaluated
				grand.Pruned += total.Pruned
				mu.Unlock()
			}

			if winner == reduce.None {
				break
			}
			if kern != nil {
				// Remap to original gene ids before the exclusion — every
				// rank applies the same deterministic map, so the masks
				// stay identical across the world.
				winner = kern.RemapCombo(winner)
			}
			// Every rank applies the identical exclusion.
			tumor.ComboVec(buf, winner.GeneIDs()...)
			cov := bitmat.NewVec(tumor.Samples())
			copy(cov.Words(), buf)
			cov.And(active)
			newly := cov.PopCount()
			if newly == 0 {
				if r.ID() == 0 {
					res.Uncoverable = active.PopCount()
				}
				break
			}
			active.AndNot(cov)
			if r.ID() == 0 {
				mu.Lock()
				res.Steps = append(res.Steps, cover.Step{
					Combo:        winner,
					NewlyCovered: newly,
					ActiveAfter:  active.PopCount(),
					Evaluated:    total.Evaluated,
					Pruned:       total.Pruned,
				})
				res.Covered += newly
				mu.Unlock()
			}
		}
		if r.ID() == 0 && res.Uncoverable == 0 {
			res.Uncoverable = active.PopCount()
			if opt.MaxIterations > 0 && len(res.Steps) == opt.MaxIterations {
				res.Uncoverable = 0
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.VirtualSeconds = spec.StartupSec + world.MaxClock()
	if scanned := grand.Scanned(); scanned > 0 {
		res.PruningRatio = float64(grand.Pruned) / float64(scanned)
	}
	for n := 0; n < spec.Nodes; n++ {
		res.Ranks = append(res.Ranks, RankReport{
			Rank:       n,
			ComputeSec: world.ComputeTime(n),
			CommSec:    world.CommTime(n),
			WaitSec:    world.WaitTime(n),
		})
	}
	return res, nil
}
