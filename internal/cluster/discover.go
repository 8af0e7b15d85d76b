package cluster

import (
	"context"

	"repro/internal/bitmat"
	"repro/internal/cover"
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
	// space that the run skipped: Pruned / (Evaluated + Pruned) over the
	// whole run, every enumeration pass included, with the Pruned counts
	// of passes the support pass settles (docs/PRUNING.md §7) and of
	// kernel-dropped combinations. Zero when pruning is disabled (or
	// never fired). The virtual clock does NOT apply this discount — the
	// device model prices the sched curve's full combination count, an
	// upper bound; see Workload.PruneRatio for the opt-in pricing
	// discount.
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

// Discover runs the full greedy cover on the simulated cluster: cover.Greedy
// picks every step, and each enumeration pass it does not settle from the
// support (docs/PRUNING.md §7) is scanned partition by partition over the
// machine's two-level λ schedule (Fig. 1), one unseeded partition per GPU,
// with the winners reduced in the total order rank 0 reduces them in. The
// discovered cover is therefore cover.Run's; the virtual clock prices one
// full-domain pass per greedy pass with the device model, plus the
// per-pass reduce/broadcast of the winner and its work counts.
//
// Every rank holds the full input matrices (as on Summit, where the
// compressed inputs are small); only the 20-byte winners cross the fabric.
func Discover(spec Spec, tumor, normal *bitmat.Matrix, opt cover.Options) (*DiscoverResult, error) {
	return DiscoverCtx(context.Background(), spec, tumor, normal, opt)
}

// DiscoverCtx is Discover under a caller-supplied context. The rank
// scanner checks the context before each GPU partition, so a cancelled
// campaign stops within one partition of kernel work instead of finishing
// the multi-pass cover. It is DiscoverFaultsCtx under the empty plan,
// without the Recovery section.
func DiscoverCtx(ctx context.Context, spec Spec, tumor, normal *bitmat.Matrix, opt cover.Options) (*DiscoverResult, error) {
	res, err := DiscoverFaultsCtx(ctx, spec, tumor, normal, opt, FaultPlan{})
	if err != nil {
		return nil, err
	}
	res.Recovery = nil
	return res, nil
}

// discoverGreedy runs cover.Greedy with a rank scanner: each scanned pass
// is cut by discoverPerNode for the full machine, and every GPU partition
// is scored by an unseeded cover.ScanPartitionWeighted, since ranks share
// no incumbent. It returns the greedy result with every Step.Elapsed
// zeroed (the cluster's clock is virtual), the number of passes the
// distributed world runs (settled passes and the terminal probe
// included), and the gene count the passes scan — the kernel's under
// Kernelize.
func discoverGreedy(ctx context.Context, spec Spec, tumor, normal *bitmat.Matrix, opt cover.Options) (*cover.Result, int, int, error) {
	passes, genes := 0, tumor.Genes()
	count := func(p cover.Pass) {
		passes++
		genes = p.Tumor.Genes()
	}
	scan := func(ctx context.Context, p cover.Pass) (reduce.Combo, cover.Counts, error) {
		count(p)
		curve, err := cover.SchemeCurve(uint64(p.Tumor.Genes()), p.Opt.Scheme)
		if err != nil {
			return reduce.None, cover.Counts{}, err
		}
		perNode, err := discoverPerNode(curve, p.Opt.Scheduler, spec.Nodes, spec.GPUsPerNode)
		if err != nil {
			return reduce.None, cover.Counts{}, err
		}
		best := reduce.None
		var total cover.Counts
		for _, gpus := range perNode {
			for _, part := range gpus {
				if err := ctx.Err(); err != nil {
					return best, total, err
				}
				b, n, err := cover.ScanPartitionWeighted(p.Tumor, p.Normal, p.Active,
					p.TumorWeights, p.NormalWeights, p.Opt, part, p.Denom, reduce.None)
				total.Evaluated += n.Evaluated
				total.Pruned += n.Pruned
				if err != nil {
					return best, total, err
				}
				if b.Better(best) {
					best = b
				}
			}
		}
		return best, total, nil
	}
	res, err := cover.Greedy(ctx, tumor, normal, opt, nil, cover.Hooks{Scan: scan, Settled: count})
	if err != nil {
		return nil, 0, 0, err
	}
	for i := range res.Steps {
		res.Steps[i].Elapsed = 0
	}
	return res, passes, genes, nil
}
