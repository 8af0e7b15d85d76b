// Package cover implements the paper's primary contribution: the
// approximate weighted-set-cover (WSC) algorithm that discovers multi-hit
// combinations of genes differentiating tumor from normal samples, restructured
// for massively parallel execution.
//
// One iteration of the algorithm (Sec. II-B):
//
//  1. enumerate every h-gene combination and score it with
//     F = (α·TP + TN) / (Nt + Nn), α = 0.1;
//  2. take the combination with maximum F;
//  3. exclude ("cover") the tumor samples containing it;
//
// repeating until every tumor sample is covered. TP is the number of
// still-active tumor samples mutated in all h genes; TN is the number of
// normal samples NOT mutated in all h genes.
//
// The parallel engine reproduces the paper's execution structure on CPU
// cores standing in for GPUs: the combination space is flattened to a
// linear thread id λ through the triangular/tetrahedral maps (package
// combinat), λ-ranges are assigned to workers by the equi-area or
// equi-distance scheduler (package sched), each worker folds its threads'
// scores through per-block single-stage reduction followed by a tree
// reduction (package reduce), and the winners are reduced across workers —
// the same maxF → parallelReduceMax → rank-0 topology as the CUDA/MPI
// implementation. All reductions share one deterministic total order, so
// every scheme, scheduler and worker count returns the identical cover.
package cover

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitmat"
	"repro/internal/combinat"
	"repro/internal/failpoint"
	"repro/internal/reduce"
	"repro/internal/sched"
)

// DefaultAlpha is the paper's true-positive penalty term α.
const DefaultAlpha = 0.1

// MaxHits is the largest combination size the engine serves.
const MaxHits = reduce.MaxHits

// DefaultBlockSize is the paper's CUDA thread-block size, used for the
// in-block reduction stage.
const DefaultBlockSize = 512

// Scheme selects the loop-flattening parallelization scheme (Sec. III-A).
type Scheme int

const (
	// SchemeAuto picks the paper's production scheme for the hit count:
	// flat pairs for h=2, 2x1 for h=3, 3x1 for h=4, and 4+1 for the
	// paper's next step, h=5.
	SchemeAuto Scheme = iota
	// SchemePair is the 2-hit kernel: C(G,2) threads, one combination each.
	SchemePair
	// Scheme2x1 is the 3-hit kernel of Algorithm 1: C(G,2) threads, each
	// running one inner loop over k.
	Scheme2x1
	// Scheme2x2 is the 4-hit kernel of Algorithm 2: C(G,2) threads, each
	// running a depth-2 nested loop over (k, l).
	Scheme2x2
	// Scheme3x1 is the 4-hit kernel of Algorithm 3: C(G,3) threads, each
	// running one inner loop over l.
	Scheme3x1
	// Scheme1x3 is the 4-hit scheme the paper defines but rejects for its
	// limited parallelism: G threads, each running a depth-3 nested loop.
	Scheme1x3
	// Scheme4x1 is the fully flattened 4-hit scheme the paper defines but
	// rejects: C(G,4) threads, one combination each.
	Scheme4x1
	// Scheme4p1 is the 5-hit kernel, 3x1 one dimension up (Sec. V):
	// C(G,4) threads, each running one inner loop over the fifth gene.
	Scheme4p1
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case SchemeAuto:
		return "auto"
	case SchemePair:
		return "pair"
	case Scheme2x1:
		return "2x1"
	case Scheme2x2:
		return "2x2"
	case Scheme3x1:
		return "3x1"
	case Scheme1x3:
		return "1x3"
	case Scheme4x1:
		return "4x1"
	case Scheme4p1:
		return "4+1"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// hits returns the hit count a scheme serves.
func (s Scheme) hits() int {
	switch s {
	case SchemePair:
		return 2
	case Scheme2x1:
		return 3
	case Scheme2x2, Scheme3x1, Scheme1x3, Scheme4x1:
		return 4
	case Scheme4p1:
		return 5
	}
	return 0
}

// prunable reports whether the scheme's kernel has an inner loop a prefix
// bound can skip. The fully flattened pair and 4x1 kernels score exactly
// one combination per thread: nothing is loop-invariant, so there is
// nothing to prune.
func (s Scheme) prunable() bool {
	switch s {
	case Scheme2x1, Scheme2x2, Scheme3x1, Scheme1x3, Scheme4p1:
		return true
	}
	return false
}

// Scheduler selects the λ-range partitioner.
type Scheduler int

const (
	// EquiArea is the paper's scheduler: equal work per worker.
	EquiArea Scheduler = iota
	// EquiDistance is the naive baseline: equal thread count per worker.
	EquiDistance
)

// String returns "EA" or "ED".
func (s Scheduler) String() string {
	if s == EquiDistance {
		return "ED"
	}
	return "EA"
}

// Options configures a discovery run.
type Options struct {
	// Hits is the combination size h, 2 to MaxHits.
	Hits int
	// Alpha is the true-positive penalty; 0 means DefaultAlpha.
	Alpha float64
	// Scheme selects the parallelization scheme; SchemeAuto matches Hits.
	Scheme Scheme
	// Workers is the number of parallel workers (virtual GPUs); 0 means
	// GOMAXPROCS.
	Workers int
	// BlockSize is the in-block reduction width; 0 means DefaultBlockSize.
	BlockSize int
	// Scheduler selects EA (default) or ED partitioning.
	Scheduler Scheduler
	// MemOpt1 hoists the row for gene i out of the 3-hit inner loop;
	// MemOpt2 additionally hoists (and pre-folds) the row for gene j.
	// They reproduce the Fig. 5 ablation and apply to the 3-hit kernel;
	// the 2x2/3x1 4-hit kernels always run fully prefetched, as in the
	// paper's production configuration.
	MemOpt1, MemOpt2 bool
	// Kernelize shrinks the instance once before enumeration
	// (internal/kernelize, docs/KERNELIZATION.md): duplicate sample
	// columns merge into weighted columns and dominated genes leave G.
	// The kernel is static for the whole run, as in internal/harness.
	// Both reductions preserve the tie-broken winner bit-identically;
	// dropped combinations count as Pruned, so Scanned stays C(G, h) per
	// pass.
	Kernelize bool
	// Engine selects the scan representation (docs/SPARSE.md):
	// EngineAuto (zero value) measures the instance's density after
	// kernelization and picks per scheme, EngineDense forces the packed
	// bit-matrix kernels, EngineSparse forces the sorted-index merge
	// kernels. Purely an execution knob: winners, Counts, and checkpoints
	// are bit-identical across engines, so checkpoints do not record it
	// and the service result cache canonicalizes it away. Sparse requires
	// a prunable scheme (2x1/2x2/3x1/1x3).
	Engine Engine
	// NoPrune disables the bound-and-prune layer (docs/PRUNING.md): the
	// seed probe and the per-partition incumbents, the kernels' prefix
	// upper-bound checks, and the greedy loop's support pass.
	// Pruning never changes which combinations are returned — only how
	// many are scored — so NoPrune exists for differential testing and for
	// measuring the pruning ratio against an exhaustive scan.
	NoPrune bool
	// MaxIterations bounds the number of combinations reported; 0 means
	// run until every coverable tumor sample is covered.
	MaxIterations int
}

// withDefaults resolves zero values and validates.
func (o Options) withDefaults() (Options, error) {
	if o.Hits == 0 && o.Scheme != SchemeAuto {
		o.Hits = o.Scheme.hits()
	}
	if o.Hits < 2 || o.Hits > MaxHits {
		return o, fmt.Errorf("cover: Hits must be 2 to %d, got %d", MaxHits, o.Hits)
	}
	if o.Scheme == SchemeAuto {
		switch o.Hits {
		case 2:
			o.Scheme = SchemePair
		case 3:
			o.Scheme = Scheme2x1
		case 4:
			o.Scheme = Scheme3x1
		case 5:
			o.Scheme = Scheme4p1
		}
	}
	if o.Scheme.hits() != o.Hits {
		return o, fmt.Errorf("cover: scheme %s serves %d hits, Options.Hits is %d",
			o.Scheme, o.Scheme.hits(), o.Hits)
	}
	if o.Alpha == 0 {
		o.Alpha = DefaultAlpha
	}
	if o.Alpha < 0 {
		return o, fmt.Errorf("cover: Alpha must be non-negative, got %g", o.Alpha)
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("cover: Workers must be non-negative, got %d", o.Workers)
	}
	if o.BlockSize == 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.BlockSize < 0 {
		return o, fmt.Errorf("cover: BlockSize must be non-negative, got %d", o.BlockSize)
	}
	if o.Engine < EngineAuto || o.Engine > EngineSparse {
		return o, fmt.Errorf("cover: unknown engine %d", o.Engine)
	}
	if o.Engine == EngineSparse && !o.Scheme.sparseCapable() {
		return o, fmt.Errorf("cover: scheme %s has no sparse kernel (only 2x1, 2x2, 3x1 and 1x3 do)", o.Scheme)
	}
	return o, nil
}

// Step records one iteration of the cover loop.
type Step struct {
	// Combo is the winning combination of the iteration.
	Combo reduce.Combo
	// NewlyCovered is the number of previously-active tumor samples the
	// combination covers.
	NewlyCovered int
	// ActiveAfter is the number of tumor samples still uncovered after
	// this iteration.
	ActiveAfter int
	// Evaluated is the number of combinations actually scored this
	// iteration.
	Evaluated uint64
	// Pruned is the number of combinations skipped by bound-and-prune this
	// iteration, including the combinations a Kernelize kernel removes and, when
	// the support pass decided the iteration (docs/PRUNING.md §7), every
	// combination outside the active samples' h-subsets. The sum
	// Evaluated + Pruned equals the enumeration size of the pass(es). The
	// split between the two depends on the inputs, the options and the
	// worker count (which sets the partition plan of a scanned pass),
	// never on timing.
	Pruned uint64
	// Elapsed is the wall-clock time of the iteration.
	Elapsed time.Duration
}

// Result is a full discovery run.
type Result struct {
	// Steps lists the chosen combinations in greedy order.
	Steps []Step
	// Covered is the total number of tumor samples covered.
	Covered int
	// Uncoverable is the number of tumor samples still active when the
	// best-F combination covers none of them, which ends the loop. Some
	// have fewer than h mutated genes; others have h or more, but every
	// combination covering them hits too many normal samples to win.
	// It is 0 when MaxIterations stopped the run.
	Uncoverable int
	// Evaluated is the total number of combinations actually scored.
	Evaluated uint64
	// Pruned is the total number of combinations skipped by
	// bound-and-prune. Evaluated + Pruned is the work an exhaustive run
	// would have done.
	Pruned uint64
	// Elapsed is the total wall-clock time.
	Elapsed time.Duration
	// KernelFingerprint identifies the reduction a Kernelize run scanned
	// under (kernelize.Kernel.Fingerprint); zero when Kernelize is off.
	// Checkpoints carry it so resume can verify it rebuilt the same kernel.
	KernelFingerprint uint64
	// Options echoes the resolved configuration.
	Options Options
}

// Combos returns the chosen combinations in order.
func (r *Result) Combos() []reduce.Combo {
	out := make([]reduce.Combo, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = s.Combo
	}
	return out
}

// Run executes the full greedy cover loop on the given tumor/normal
// matrices. The matrices must share the gene dimension. Run never modifies
// its inputs.
func Run(tumor, normal *bitmat.Matrix, opt Options) (*Result, error) {
	return RunCtx(context.Background(), tumor, normal, opt)
}

// RunCtx is Run with cancellation: the context is threaded down to the
// enumeration workers, which check it before claiming each λ-partition, so
// cancellation latency is one partition rather than a full enumeration
// pass (for 4-hit runs the difference between seconds and days). On
// cancellation the partial result accumulated so far — including the
// combinations evaluated before the cutoff — is returned together with
// the context's error; the caller can checkpoint completed iterations
// (see Checkpoint) and resume later.
func RunCtx(ctx context.Context, tumor, normal *bitmat.Matrix, opt Options) (*Result, error) {
	return Greedy(ctx, tumor, normal, opt, nil, Hooks{})
}

// vecFromWords wraps packed words into a Vec of length n.
func vecFromWords(n int, words []uint64) *bitmat.Vec {
	v := bitmat.NewVec(n)
	copy(v.Words(), words)
	return v
}

// domainSize returns C(genes, hits) — the enumeration size of one full
// pass — with an overflow flag.
func domainSize(genes, hits int) (uint64, bool) {
	return combinat.Binomial(uint64(genes), uint64(hits))
}

// domainSizeChecked is domainSize for callers with an error path: a wrapped
// domain must never be scanned or accounted, so overflow is an error, not a
// silently dropped tally.
func domainSizeChecked(genes, hits int) (uint64, error) {
	d, ok := domainSize(genes, hits)
	if !ok {
		return 0, fmt.Errorf("cover: domain C(%d, %d) overflows uint64", genes, hits)
	}
	return d, nil
}

// Counts tallies the work of an enumeration pass. The total Scanned is
// the domain size — every combination is either scored or provably
// dominated. The Evaluated/Pruned split is deterministic too: every
// partition prunes against its own incumbent, seeded from the pass's
// inputs, so the split depends on the partition plan (the worker count)
// but not on timing. A pass the support pass decides (docs/PRUNING.md §7)
// has no partitions; its split depends on its inputs alone.
type Counts struct {
	// Evaluated is the number of combinations actually scored.
	Evaluated uint64
	// Pruned is the number of combinations skipped because their prefix's
	// upper bound fell strictly below the partition's incumbent, or, in a
	// pass the support pass decides, because no active tumor sample
	// carries them and a scored combination already beats them.
	Pruned uint64
}

// Scanned returns the combinations accounted for: Evaluated + Pruned,
// which equals the enumeration size of the scanned λ-domain.
func (c Counts) Scanned() uint64 { return c.Evaluated + c.Pruned }

// add accumulates another scan's counts.
func (c *Counts) add(o Counts) {
	c.Evaluated += o.Evaluated
	c.Pruned += o.Pruned
}

// FindBest runs a single enumeration pass (one iteration's step 1–2) and
// returns the best combination and the scan's work counts. The active
// vector selects which tumor samples still count toward TP; pass nil for
// all. Exported for benchmarks and the simulator's per-iteration
// accounting.
func FindBest(tumor, normal *bitmat.Matrix, active *bitmat.Vec, opt Options) (reduce.Combo, Counts, error) {
	return FindBestCtx(context.Background(), tumor, normal, active, opt)
}

// FindBestCtx is FindBest under a caller-supplied context. Workers observe
// cancellation between partitions, so a cancelled pass returns within one
// partition of work with the partial counts and the context's error.
func FindBestCtx(ctx context.Context, tumor, normal *bitmat.Matrix, active *bitmat.Vec, opt Options) (reduce.Combo, Counts, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return reduce.None, Counts{}, err
	}
	if tumor.Genes() != normal.Genes() {
		return reduce.None, Counts{}, fmt.Errorf("cover: tumor has %d genes, normal has %d",
			tumor.Genes(), normal.Genes())
	}
	if active == nil {
		active = bitmat.AllOnes(tumor.Samples())
	}
	return findBest(ctx, Pass{Tumor: tumor, Normal: normal, Active: active,
		Denom: float64(tumor.Samples() + normal.Samples()), Opt: opt})
}

// findBest is Greedy's default pass scanner: ScanPass over the pass's
// PartitionPlan, PartitionsPerWorker partitions per worker, every
// partition pruning from the pass's seed.
func findBest(ctx context.Context, p Pass) (reduce.Combo, Counts, error) {
	if err := failpoint.Check("cover/scan"); err != nil {
		return reduce.None, Counts{}, err
	}
	parts, err := PartitionPlan(p.Tumor.Genes(), p.Opt, max(p.Opt.Workers, 1)*PartitionsPerWorker)
	if err != nil {
		return reduce.None, Counts{}, err
	}
	return ScanPass(ctx, p, parts, true, nil)
}

// ScanPass scans one enumeration pass over a partition plan of its
// λ-domain and reduces the partitions' winners: the one partitioned scan
// behind the in-process engine, the supervised runner (internal/harness)
// and the simulated cluster (internal/cluster). p.Opt must be resolved, as
// Greedy hands it to a Scanner. p.Opt.Workers workers claim the partitions
// through an atomic counter, checking the context before each claim, so
// cancellation latency is one partition; on cancellation the winner and
// counts of the partitions already scanned come back with the context's
// error. The reduction is the total order of reduce.Combo.Better, so the
// winner does not depend on the plan or on worker timing.
//
// Unless NoPrune is set, each partition prunes against its own incumbent
// (reduce.SharedBest), which rises as the kernels find better
// combinations. With seeded it starts at the pass's seed (seedIncumbent,
// docs/PRUNING.md §3), computed once per pass, and the seed joins the
// final reduction; otherwise it starts empty, as on cluster ranks, which
// share no incumbent. The winner is unaffected either way: the incumbent's
// F is always some scored combination's F, pruning is strict, and the
// partition holding the true winner therefore never skips it. Because no
// incumbent crosses partitions, the Evaluated/Pruned split depends only
// on the inputs, seeded and the plan. The sparse engine's CSR views are
// built once per pass, and each worker owns one kernelScratch for its
// whole lifetime, so a pass allocates O(workers) buffers, not
// O(partitions).
//
// try, when non-nil, supervises every partition, empty ones included. It
// is called on a worker goroutine with the partition's index and a scan
// that scores the partition from a fresh incumbent, so a scan retried
// after a panic counts exactly what a first attempt would. try returns
// false to drop the partition from the reduction and the counts. Dropping
// the seed's own partition still leaves the winner the best of the seed
// and the surviving partitions. A nil try scans every partition once.
func ScanPass(ctx context.Context, p Pass, parts []sched.Partition, seeded bool, try func(i int, scan func()) bool) (reduce.Combo, Counts, error) {
	opt := p.Opt
	env := newKernelEnv(p.Tumor, p.Normal, p.Active, p.TumorWeights, p.NormalWeights, opt.Alpha, p.Denom)
	if resolveEngine(&opt, p.Tumor, p.Normal) == EngineSparse {
		env.sparse = newSparseEnv(p.Tumor, p.Normal, p.Active, p.TumorWeights, p.NormalWeights)
	}
	seed := reduce.None
	if seeded {
		seed = seedIncumbent(env, opt)
	}

	bests := make([]reduce.Combo, len(parts))
	counts := make([]Counts, len(parts))
	kept := make([]bool, len(parts))
	incs := make([]reduce.SharedBest, len(parts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < max(opt.Workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scratch per worker for its whole lifetime; the kernels
			// themselves allocate nothing per partition. The env copy
			// carries the worker's current partition incumbent.
			s := newKernelScratch(p.Tumor.Words(), p.Normal.Words())
			if env.sparse != nil {
				s.ensureSparse(env.sparse)
			}
			wenv := *env
			var i int
			scan := func() {
				if parts[i].Size() > 0 {
					wenv.shared = incumbent(&incs[i], opt, seed)
					bests[i], counts[i] = runKernel(ctx, &wenv, opt, parts[i], s)
				}
			}
			for {
				if ctx.Err() != nil {
					return
				}
				if i = int(next.Add(1)) - 1; i >= len(parts) {
					return
				}
				bests[i] = reduce.None
				if try == nil {
					scan()
					kept[i] = true
				} else {
					kept[i] = try(i, scan)
				}
			}
		}()
	}
	wg.Wait()

	// Rank-0 reduction across partitions. On cancellation the reduction
	// over the completed partitions is still returned alongside the error
	// so callers can account the partial work.
	best := seed
	var total Counts
	for i := range parts {
		if !kept[i] {
			continue
		}
		if bests[i].Better(best) {
			best = bests[i]
		}
		total.add(counts[i])
	}
	return best, total, ctx.Err()
}

// kernelEnv bundles the per-iteration read-only state shared by workers,
// plus the one mutable field: the scan's pruning incumbent (nil when
// pruning is off or the scheme has no inner loop to skip). When the
// instance is kernelized, tw/nw carry the merged sample columns'
// multiplicities and every popcount the kernels take routes through the
// weighted helpers below; with nil weights the helpers compile down to
// the plain word sweeps, so the unkernelized hot path is unchanged.
type kernelEnv struct {
	tumor  *bitmat.Matrix
	normal *bitmat.Matrix
	active *bitmat.Vec
	tw     *bitmat.Weights
	nw     *bitmat.Weights
	alpha  float64
	denom  float64
	nn     int
	shared *reduce.SharedBest
	// sparse, when non-nil, carries the CSR views and routes the prunable
	// schemes through the sparse merge kernels (docs/SPARSE.md).
	sparse *sparseEnv
}

// newKernelEnv builds the worker environment. With normal-side weights the
// TN base is the weighted column total — the ORIGINAL normal sample count —
// so F values match the unkernelized run bit for bit.
func newKernelEnv(tumor, normal *bitmat.Matrix, active *bitmat.Vec, tw, nw *bitmat.Weights, alpha, denom float64) *kernelEnv {
	nn := normal.Samples()
	if nw != nil {
		nn = nw.Total()
	}
	return &kernelEnv{
		tumor:  tumor,
		normal: normal,
		active: active,
		tw:     tw,
		nw:     nw,
		alpha:  alpha,
		denom:  denom,
		nn:     nn,
	}
}

// incumbent resets inc to a partition-local pruning incumbent holding
// seed and returns it, or returns nil when pruning is off or the scheme
// has no inner loop to skip. The reset is in place, so retrying a
// partition or growing a plan allocates no incumbent. A zero SharedBest
// prunes nothing, like one holding reduce.None, and since no F is
// negative every prune decision after Offer(seed) is the one
// reduce.NewSharedBestFrom(seed) would take.
func incumbent(inc *reduce.SharedBest, opt Options, seed reduce.Combo) *reduce.SharedBest {
	if opt.NoPrune || !opt.Scheme.prunable() {
		return nil
	}
	*inc = reduce.SharedBest{}
	inc.Offer(seed)
	return inc
}

// score computes F from a TP and a normal-side AND count.
func (e *kernelEnv) score(tp, normalHits int) float64 {
	tn := e.nn - normalHits
	return (e.alpha*float64(tp) + float64(tn)) / e.denom
}

// tpop2..tpop5 return the (weighted) tumor-side popcount of the AND of the
// given packed rows; npop2..npop5 the normal-side equivalents.
func (e *kernelEnv) tpop2(a, b []uint64) int {
	if e.tw == nil {
		return bitmat.PopAnd2(a, b)
	}
	return e.tw.PopAnd2(a, b)
}

func (e *kernelEnv) tpop3(a, b, c []uint64) int {
	if e.tw == nil {
		return bitmat.PopAnd3(a, b, c)
	}
	return e.tw.PopAnd3(a, b, c)
}

func (e *kernelEnv) tpop4(a, b, c, d []uint64) int {
	if e.tw == nil {
		return bitmat.PopAnd4(a, b, c, d)
	}
	return e.tw.PopAnd4(a, b, c, d)
}

func (e *kernelEnv) tpop5(a, b, c, d, f []uint64) int {
	if e.tw == nil {
		return bitmat.PopAnd5(a, b, c, d, f)
	}
	return e.tw.PopAnd5(a, b, c, d, f)
}

func (e *kernelEnv) npop2(a, b []uint64) int {
	if e.nw == nil {
		return bitmat.PopAnd2(a, b)
	}
	return e.nw.PopAnd2(a, b)
}

func (e *kernelEnv) npop3(a, b, c []uint64) int {
	if e.nw == nil {
		return bitmat.PopAnd3(a, b, c)
	}
	return e.nw.PopAnd3(a, b, c)
}

func (e *kernelEnv) npop4(a, b, c, d []uint64) int {
	if e.nw == nil {
		return bitmat.PopAnd4(a, b, c, d)
	}
	return e.nw.PopAnd4(a, b, c, d)
}

func (e *kernelEnv) npop5(a, b, c, d, f []uint64) int {
	if e.nw == nil {
		return bitmat.PopAnd5(a, b, c, d, f)
	}
	return e.nw.PopAnd5(a, b, c, d, f)
}

// tfold stores a ∧ b into dst and returns its (weighted) tumor popcount —
// the weighted counterpart of bitmat.AndWordsPop for hoisted prefixes.
func (e *kernelEnv) tfold(dst, a, b []uint64) int {
	if e.tw == nil {
		return bitmat.AndWordsPop(dst, a, b)
	}
	bitmat.AndWords(dst, a, b)
	return e.tw.PopVec(dst)
}

// nfold is tfold on the normal side.
func (e *kernelEnv) nfold(dst, a, b []uint64) int {
	if e.nw == nil {
		return bitmat.AndWordsPop(dst, a, b)
	}
	bitmat.AndWords(dst, a, b)
	return e.nw.PopVec(dst)
}

// offer raises the incumbent with a thread-best improvement so the rest
// of the scan can prune against it.
func (e *kernelEnv) offer(c reduce.Combo) {
	if e.shared != nil {
		e.shared.Offer(c)
	}
}

// prune reports whether a prefix with the given tumor popcount is strictly
// dominated by the incumbent. The prefix's upper bound is the score its
// suffix would reach by losing no tumor sample and hitting no normal —
// score(tpPrefix, 0) — valid because F is monotone under AND and score
// itself is monotone in tp, so float rounding cannot invert the bound.
func (e *kernelEnv) prune(tpPrefix int) bool {
	return e.shared != nil && e.shared.ShouldPrune(e.score(tpPrefix, 0))
}

// prune3 is prune for the unfolded 3-hit paths, which have no prefix
// buffer to harvest a popcount from: it pays one extra three-way popcount
// sweep over the prefix rows.
func (e *kernelEnv) prune3(a, b, c []uint64) bool {
	return e.shared != nil && e.shared.ShouldPrune(e.score(e.tpop3(a, b, c), 0))
}

// runKernel dispatches the scheme kernel over one λ-partition, folding
// per-thread results through block reduction and a tree reduction, exactly
// mirroring the maxF / parallelReduceMax kernel pair. A canceled context
// skips the partition entirely (one partition is the cancellation
// granularity; the kernels themselves never block). The scratch provides
// the kernel's fold buffers and the block-reduction output slice, both
// reused across the calling worker's partitions.
func runKernel(ctx context.Context, env *kernelEnv, opt Options, part sched.Partition, s *kernelScratch) (reduce.Combo, Counts) {
	if ctx.Err() != nil {
		return reduce.None, Counts{}
	}
	// Chaos hook into the real scan path: an armed "cover/kernel"
	// failpoint panics or stalls inside the partition, exactly where an
	// OOM kill or a wedged device would strike (docs/ROBUSTNESS.md).
	failpoint.Hit("cover/kernel")
	blockBests := s.blockBests[:0]
	blockBest := reduce.None
	inBlock := 0
	flush := func() {
		if inBlock > 0 {
			blockBests = append(blockBests, blockBest)
			blockBest = reduce.None
			inBlock = 0
		}
	}
	observe := func(c reduce.Combo) {
		if c.Better(blockBest) {
			blockBest = c
		}
		inBlock++
		if inBlock == opt.BlockSize {
			flush()
		}
	}
	// skip stands for n consecutive reduce.None observations — threads a
	// kernel skipped wholesale — in one step per block boundary: None
	// never beats the block best, so only the block cadence moves.
	skip := func(n uint64) {
		for n > 0 {
			room := uint64(opt.BlockSize - inBlock)
			if n < room {
				inBlock += combinat.ToInt(n)
				return
			}
			n -= room
			inBlock = opt.BlockSize
			flush()
		}
	}

	var n Counts
	switch opt.Scheme {
	case SchemePair:
		n.Evaluated = kernelPair(env, part, observe)
	case Scheme2x1:
		if env.sparse != nil {
			n = sparse2x1(env, part, s, observe)
		} else {
			n = kernel2x1(env, opt, part, s, observe)
		}
	case Scheme2x2:
		if env.sparse != nil {
			n = sparse2x2(env, part, s, observe)
		} else {
			n = kernel2x2(env, part, s, observe)
		}
	case Scheme3x1:
		if env.sparse != nil {
			n = sparse3x1(env, part, s, observe, skip)
		} else {
			n = kernel3x1(env, part, s, observe, skip)
		}
	case Scheme1x3:
		if env.sparse != nil {
			n = sparse1x3(env, part, s, observe)
		} else {
			n = kernel1x3(env, part, s, observe)
		}
	case Scheme4x1:
		n.Evaluated = kernel4x1(env, part, observe)
	case Scheme4p1:
		n = kernel4p1(env, part, s, observe, skip)
	}
	flush()
	s.blockBests = blockBests
	return reduce.TreeReduceInPlace(blockBests), n
}
