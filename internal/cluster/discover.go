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

// discoverParts builds the hierarchical λ-domain schedule for a machine
// of nodes ranks × gpn GPUs, node-major: ranks split the domain, then each
// rank splits its share across its GPUs (Fig. 1). Under equi-distance both
// levels split by thread count; otherwise both levels split equi-area.
func discoverParts(curve sched.Curve, scheduler cover.Scheduler, nodes, gpn int) ([]sched.Partition, error) {
	var parts []sched.Partition
	if scheduler == cover.EquiDistance {
		nodeParts, err := sched.EquiDistance(curve, nodes)
		if err != nil {
			return nil, err
		}
		for _, np := range nodeParts {
			sub, err := sched.EquiDistance(sched.NewFlat(np.Size()), gpn)
			if err != nil {
				return nil, err
			}
			for _, p := range sub {
				parts = append(parts, sched.Partition{Lo: np.Lo + p.Lo, Hi: np.Lo + p.Hi})
			}
		}
		return parts, nil
	}
	tl, err := sched.NewTwoLevel(curve, nodes, gpn)
	if err != nil {
		return nil, err
	}
	for _, gpus := range tl.PerNode {
		parts = append(parts, gpus...)
	}
	return parts, nil
}

// Discover runs the full greedy cover on the simulated cluster: cover.Greedy
// picks every step, and each enumeration pass it does not settle from the
// support (docs/PRUNING.md §7) is scanned partition by partition over the
// machine's two-level λ schedule (Fig. 1), one unseeded partition per GPU,
// with the winners reduced in the total order rank 0 reduces them in. The
// discovered cover is therefore cover.Run's.
//
// The virtual clock prices every greedy pass as a full-domain scan with
// the device model, support-settled passes included, although a settled
// pass scans no partition; each pass then reduces and broadcasts the
// 20-byte winner and its 16-byte Evaluated/Pruned tally.
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

// DiscoverFaults runs Discover under the fault plan (docs/FAULTS.md). The
// returned Steps are the fault-free run's, field for field, under either
// recovery policy: the winners are computed once, by discoverGreedy, and
// the greedy is deterministic in the active mask, so a restart's replay
// and a degrade's makeup pass reduce the very same winners. VirtualSeconds
// carries the recovery overhead and Recovery itemises it. An empty plan
// reproduces Discover's virtual time exactly, Kernelize included.
func DiscoverFaults(spec Spec, tumor, normal *bitmat.Matrix, opt cover.Options, plan FaultPlan) (*DiscoverResult, error) {
	return DiscoverFaultsCtx(context.Background(), spec, tumor, normal, opt, plan)
}

// DiscoverFaultsCtx is DiscoverFaults under a caller-supplied context: the
// greedy (the only real kernel work in this path) observes cancellation
// between passes and before each GPU partition. The virtual clock is the
// leg protocol over one iteration per greedy pass, at the full row width,
// on discoverParts' two-level schedule.
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
		Scheme:        cover.SchemeFor(greedy.Options.Hits),
		Iterations:    passes,
	}
	if opt.Kernelize {
		w.KernelGenes = genes
	}
	curve, err := w.curve()
	if err != nil {
		return nil, err
	}
	pr := pricing{
		w:     w,
		curve: curve,
		parts: func(n int) ([]sched.Partition, error) {
			return discoverParts(curve, opt.Scheduler, n, spec.GPUsPerNode)
		},
		payloads: []int{reduce.BytesPerRecord, countsBytes},
	}
	rep, err := pr.runFaults(spec, plan)
	if err != nil {
		return nil, err
	}
	res := &DiscoverResult{
		Steps:          greedy.Steps,
		Covered:        greedy.Covered,
		Uncoverable:    greedy.Uncoverable,
		VirtualSeconds: rep.RuntimeSec,
		Ranks:          rep.Ranks,
		Recovery:       rep.Recovery,
	}
	if scanned := greedy.Evaluated + greedy.Pruned; scanned > 0 {
		res.PruningRatio = float64(greedy.Pruned) / float64(scanned)
	}
	return res, nil
}

// countsBytes is the wire size of a pass's Evaluated/Pruned tally: a pair
// of 8-byte counts.
const countsBytes = 2 * 8

// discoverGreedy runs cover.Greedy with a rank scanner: each scanned pass
// is cut by discoverParts for the full machine and run through an
// unseeded cover.ScanPass, since ranks share no incumbent; the host's
// worker pool plays the GPUs. It returns the greedy result with every
// Step.Elapsed zeroed (the cluster's clock is virtual), the number of
// passes the distributed world runs (settled passes and the terminal probe
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
		curve, err := cover.SchemeCurve(uint64(p.Tumor.Genes()), cover.SchemeFor(p.Opt.Hits))
		if err != nil {
			return reduce.None, cover.Counts{}, err
		}
		parts, err := discoverParts(curve, p.Opt.Scheduler, spec.Nodes, spec.GPUsPerNode)
		if err != nil {
			return reduce.None, cover.Counts{}, err
		}
		return cover.ScanPass(ctx, p, parts, false, nil)
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
