// Package sched implements the workload schedulers that balance the
// multi-hit search across GPUs (Sec. III-A–III-C of the paper).
//
// Under every parallelization scheme, thread λ performs an amount of inner-
// loop work that is a non-increasing step function of λ with at most G
// distinct "workload levels" (Fig. 2): in the 3x1 scheme thread (i, j, k)
// runs G−1−k inner iterations, in the 2x2 scheme thread (i, j) runs
// C(G−1−j, 2). A Curve captures that structure.
//
// Two partitioners split the λ-domain across P processors:
//
//   - EquiDistance (ED) gives every processor the same number of threads —
//     the naive split, which under the decaying curve hands the first GPU
//     orders of magnitude more combinations than the last (Fig. 3a).
//   - EquiArea (EA) gives every processor the same area under the workload
//     curve — the paper's scheduler, computed level-by-level in O(G + P)
//     instead of the naive per-thread accumulation over C(G, 3) threads
//     ("tens of hours" → "less than a minute", Sec. III-C).
package sched

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/combinat"
)

// Curve describes a non-increasing per-thread workload over a flat thread
// domain, organized as contiguous levels of equal work.
type Curve interface {
	// Threads returns the λ-domain size.
	Threads() uint64
	// WorkAt returns the inner-loop work (combinations processed) for
	// thread λ.
	WorkAt(lambda uint64) uint64
	// TotalWork returns the sum of WorkAt over all threads.
	TotalWork() uint64
	// PrefixWork returns the total work of threads [0, λ).
	PrefixWork(lambda uint64) uint64
	// Name identifies the curve for reports.
	Name() string
}

// levels is the shared level-table implementation behind every curve: level
// L spans threads [start[L], start[L+1]) each doing work[L] combinations.
type levels struct {
	name  string
	start []uint64 // len nLevels+1; start[nLevels] = Threads()
	work  []uint64 // len nLevels; non-increasing
	cum   []uint64 // len nLevels+1; cum[L] = total work before level L
	// overflow records that the cumulative work table wrapped uint64 —
	// e.g. the 5-hit quad curve at paper G, where C(19411, 5) ≈ 2.3·10¹⁹
	// exceeds 2⁶⁴−1. A wrapped table would silently misplace every
	// equi-area boundary, so the partitioners refuse such curves.
	overflow bool
}

func newLevels(name string, start, work []uint64) *levels {
	if len(start) != len(work)+1 {
		//lint:allow panicfree internal invariant: the curve constructors below are the only callers
		panic("sched: levels start/work length mismatch")
	}
	cum := make([]uint64, len(work)+1)
	overflow := false
	for l, w := range work {
		// Both the per-level product and the running sum can individually
		// wrap (C(l, 3)·w alone exceeds uint64 at large G), so detect with
		// full-width arithmetic rather than after-the-fact monotonicity.
		hi, lo := bits.Mul64(start[l+1]-start[l], w)
		sum, carry := bits.Add64(cum[l], lo, 0)
		if hi != 0 || carry != 0 {
			overflow = true
		}
		cum[l+1] = sum
	}
	return &levels{name: name, start: start, work: work, cum: cum, overflow: overflow}
}

// Overflowed reports whether the curve's cumulative work table wrapped
// uint64. Such a curve still answers Threads/WorkAt correctly, but its
// TotalWork/PrefixWork values are meaningless and every partitioner in
// this package refuses it.
func Overflowed(c Curve) bool {
	lv, ok := c.(*levels)
	return ok && lv.overflow
}

func checkOverflow(c Curve) error {
	if Overflowed(c) {
		return fmt.Errorf("sched: curve %s has a total work exceeding uint64; cannot partition a wrapped domain", c.Name())
	}
	return nil
}

func (lv *levels) Name() string    { return lv.name }
func (lv *levels) Threads() uint64 { return lv.start[len(lv.start)-1] }
func (lv *levels) TotalWork() uint64 {
	return lv.cum[len(lv.cum)-1]
}

// levelOf returns the level containing thread λ by binary search.
func (lv *levels) levelOf(lambda uint64) int {
	lo, hi := 0, len(lv.work)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if lv.start[mid+1] <= lambda {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (lv *levels) WorkAt(lambda uint64) uint64 {
	if lambda >= lv.Threads() {
		//lint:allow panicfree API contract like a slice bounds check; λ comes from a validated partition
		panic(fmt.Sprintf("sched: thread %d out of domain %d", lambda, lv.Threads()))
	}
	return lv.work[lv.levelOf(lambda)]
}

func (lv *levels) PrefixWork(lambda uint64) uint64 {
	if lambda == 0 {
		return 0
	}
	if lambda >= lv.Threads() {
		return lv.TotalWork()
	}
	l := lv.levelOf(lambda)
	return lv.cum[l] + (lambda-lv.start[l])*lv.work[l]
}

// findPrefix returns the smallest λ with PrefixWork(λ) ≥ target, in
// O(log G) via the level table.
func (lv *levels) findPrefix(target uint64) uint64 {
	if target == 0 {
		return 0
	}
	total := lv.TotalWork()
	if target >= total {
		return lv.Threads()
	}
	// Binary search the level whose cumulative range contains target.
	lo, hi := 0, len(lv.work)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if lv.cum[mid+1] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w := lv.work[lo]
	if w == 0 {
		return lv.start[lo+1]
	}
	need := target - lv.cum[lo]
	return lv.start[lo] + (need+w-1)/w
}

// NewTetra3x1 returns the workload curve of the 4-hit 3x1 scheme over g
// genes: C(g, 3) threads, thread (i, j, k) doing g−1−k combinations. Level
// index runs over k = 2 … g−2 (k = g−1 threads do zero work and are folded
// into the last level).
func NewTetra3x1(g uint64) Curve {
	if g < 4 {
		//lint:allow panicfree startup assertion: gene counts are validated by the dataset loader before curves are built
		panic(fmt.Sprintf("sched: 3x1 curve needs g ≥ 4, got %d", g))
	}
	var start, work []uint64
	for k := uint64(2); k < g; k++ {
		start = append(start, combinat.Tet(k))
		work = append(work, g-1-k)
	}
	start = append(start, combinat.Tet(g))
	return newLevels(fmt.Sprintf("3x1(G=%d)", g), start, work)
}

// NewTri2x2 returns the workload curve of the 4-hit 2x2 scheme over g
// genes: C(g, 2) threads, thread (i, j) doing C(g−1−j, 2) combinations.
func NewTri2x2(g uint64) Curve {
	if g < 4 {
		//lint:allow panicfree startup assertion: gene counts are validated by the dataset loader before curves are built
		panic(fmt.Sprintf("sched: 2x2 curve needs g ≥ 4, got %d", g))
	}
	var start, work []uint64
	for j := uint64(1); j < g; j++ {
		start = append(start, combinat.Tri(j))
		work = append(work, combinat.Tri(g-1-j))
	}
	start = append(start, combinat.Tri(g))
	return newLevels(fmt.Sprintf("2x2(G=%d)", g), start, work)
}

// NewTri2x1 returns the workload curve of the 3-hit scheme of Algorithm 1:
// C(g, 2) threads, thread (i, j) doing g−1−j inner iterations.
func NewTri2x1(g uint64) Curve {
	if g < 3 {
		//lint:allow panicfree startup assertion: gene counts are validated by the dataset loader before curves are built
		panic(fmt.Sprintf("sched: 2x1 curve needs g ≥ 3, got %d", g))
	}
	var start, work []uint64
	for j := uint64(1); j < g; j++ {
		start = append(start, combinat.Tri(j))
		work = append(work, g-1-j)
	}
	start = append(start, combinat.Tri(g))
	return newLevels(fmt.Sprintf("2x1(G=%d)", g), start, work)
}

// NewFlat returns a uniform curve: n threads of unit work (the 2-hit kernel
// — where each thread evaluates exactly one pair — and the 4x1 scheme over
// C(g, 4) threads).
func NewFlat(n uint64) Curve {
	return newLevels(fmt.Sprintf("flat(N=%d)", n), []uint64{0, n}, []uint64{1})
}

// NewLin1x3 returns the workload curve of the 4-hit 1x3 scheme over g
// genes: only g threads, thread i running a depth-3 nested loop of
// C(g−1−i, 3) combinations. The paper rejects this scheme for its "small
// number of threads (limited parallelization)"; the curve exists so the
// ablation can show exactly how badly it partitions.
func NewLin1x3(g uint64) Curve {
	if g < 4 {
		//lint:allow panicfree startup assertion: gene counts are validated by the dataset loader before curves are built
		panic(fmt.Sprintf("sched: 1x3 curve needs g ≥ 4, got %d", g))
	}
	start := make([]uint64, g+1)
	work := make([]uint64, g)
	for i := uint64(0); i < g; i++ {
		start[i] = i
		work[i] = combinat.Tet(g - 1 - i)
	}
	start[g] = g
	return newLevels(fmt.Sprintf("1x3(G=%d)", g), start, work)
}

// NewQuad4x1 returns the workload curve of the 5-hit extension over g
// genes: C(g, 4) threads, thread (i, j, k, l) doing g−1−l inner
// iterations — the 3x1 structure one dimension up (cover.Scheme4p1).
func NewQuad4x1(g uint64) Curve {
	if g < 5 {
		//lint:allow panicfree startup assertion: gene counts are validated by the dataset loader before curves are built
		panic(fmt.Sprintf("sched: 4x1 five-hit curve needs g ≥ 5, got %d", g))
	}
	var start, work []uint64
	for l := uint64(3); l < g; l++ {
		start = append(start, combinat.Quad(l))
		work = append(work, g-1-l)
	}
	start = append(start, combinat.Quad(g))
	return newLevels(fmt.Sprintf("4x1five(G=%d)", g), start, work)
}

// Partition is a half-open thread range [Lo, Hi) assigned to one processor.
type Partition struct {
	Lo, Hi uint64
}

// Size returns the number of threads in the partition.
func (p Partition) Size() uint64 { return p.Hi - p.Lo }

// EquiDistance splits the curve's thread domain into p ranges of (nearly)
// equal thread count — the naive scheduler of Fig. 3(a). The partition count
// is untrusted (it arrives from CLI flags and job specs), so an invalid
// count is an error, not a panic.
func EquiDistance(c Curve, p int) ([]Partition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: partition count must be positive, got %d", p)
	}
	// ED itself only counts threads, but every consumer of its partitions
	// prices them with PrefixWork — refuse wrapped curves here too so a
	// scheduler choice cannot smuggle a wrapped domain past the check.
	if err := checkOverflow(c); err != nil {
		return nil, err
	}
	n := c.Threads()
	parts := make([]Partition, p)
	var lo uint64
	for i := 0; i < p; i++ {
		hi := n * uint64(i+1) / uint64(p)
		parts[i] = Partition{Lo: lo, Hi: hi}
		lo = hi
	}
	return parts, nil
}

// EquiArea splits the curve's thread domain into p ranges of (nearly) equal
// total work — the paper's scheduler of Fig. 3(b). Boundaries are located
// with the level table in O(p log G); no per-thread scan occurs.
func EquiArea(c Curve, p int) ([]Partition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: partition count must be positive, got %d", p)
	}
	if err := checkOverflow(c); err != nil {
		return nil, err
	}
	lv, ok := c.(*levels)
	if !ok {
		return naiveEquiArea(c, p)
	}
	total := lv.TotalWork()
	parts := make([]Partition, p)
	var lo uint64
	for i := 0; i < p; i++ {
		var hi uint64
		if i == p-1 {
			hi = lv.Threads()
		} else {
			// Round the cumulative target to the nearest thread whose
			// prefix reaches i+1 shares of the work.
			target := total / uint64(p) * uint64(i+1)
			if r := total % uint64(p); r > 0 {
				target += r * uint64(i+1) / uint64(p)
			}
			hi = lv.findPrefix(target)
			if hi < lo {
				hi = lo
			}
		}
		parts[i] = Partition{Lo: lo, Hi: hi}
		lo = hi
	}
	return parts, nil
}

// EquiAreaRange splits one λ sub-range [lo, hi) of the curve's domain into
// p partitions of (nearly) equal work — the recovery scheduler: when a rank
// dies mid-iteration, the λ-range it owned is re-partitioned across the
// surviving processors with the same level-table machinery EquiArea uses
// for the full domain (O(p log G); no per-thread scan). The returned
// partitions tile [lo, hi) exactly.
func EquiAreaRange(c Curve, lo, hi uint64, p int) ([]Partition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: partition count must be positive, got %d", p)
	}
	if hi < lo {
		return nil, fmt.Errorf("sched: inverted range [%d, %d)", lo, hi)
	}
	if hi > c.Threads() {
		return nil, fmt.Errorf("sched: range [%d, %d) exceeds domain of %d threads", lo, hi, c.Threads())
	}
	if err := checkOverflow(c); err != nil {
		return nil, err
	}
	lv, ok := c.(*levels)
	if !ok {
		return naiveEquiAreaRange(c, lo, hi, p)
	}
	base := lv.PrefixWork(lo)
	total := lv.PrefixWork(hi) - base
	parts := make([]Partition, p)
	cur := lo
	for i := 0; i < p; i++ {
		var bound uint64
		if i == p-1 {
			bound = hi
		} else {
			target := total / uint64(p) * uint64(i+1)
			if r := total % uint64(p); r > 0 {
				target += r * uint64(i+1) / uint64(p)
			}
			bound = lv.findPrefix(base + target)
			if bound < cur {
				bound = cur
			}
			if bound > hi {
				bound = hi
			}
		}
		parts[i] = Partition{Lo: cur, Hi: bound}
		cur = bound
	}
	return parts, nil
}

// naiveEquiAreaRange is the per-thread fallback for curves without a level
// table; O(hi − lo).
func naiveEquiAreaRange(c Curve, lo, hi uint64, p int) ([]Partition, error) {
	var total uint64
	for lambda := lo; lambda < hi; lambda++ {
		total += c.WorkAt(lambda)
	}
	parts := make([]Partition, 0, p)
	curLo := lo
	var acc uint64
	part := 1
	for lambda := lo; lambda < hi && part < p; lambda++ {
		acc += c.WorkAt(lambda)
		target := total / uint64(p) * uint64(part)
		if r := total % uint64(p); r > 0 {
			target += r * uint64(part) / uint64(p)
		}
		if acc >= target {
			parts = append(parts, Partition{Lo: curLo, Hi: lambda + 1})
			curLo = lambda + 1
			part++
		}
	}
	for len(parts) < p-1 {
		parts = append(parts, Partition{Lo: curLo, Hi: curLo})
	}
	parts = append(parts, Partition{Lo: curLo, Hi: hi})
	return parts, nil
}

// NaiveEquiArea computes the equi-area split by scanning every thread and
// accumulating its work until the per-processor average is reached — the
// approach the paper rejects ("takes tens of hours ... using a single
// node"). It exists as the E14 baseline and for differential testing; it is
// O(Threads) and only usable at small G.
func NaiveEquiArea(c Curve, p int) ([]Partition, error) {
	return naiveEquiArea(c, p)
}

func naiveEquiArea(c Curve, p int) ([]Partition, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: partition count must be positive, got %d", p)
	}
	if err := checkOverflow(c); err != nil {
		return nil, err
	}
	total := c.TotalWork()
	parts := make([]Partition, 0, p)
	var lo uint64
	var acc uint64
	n := c.Threads()
	part := 1
	for lambda := uint64(0); lambda < n && part < p; lambda++ {
		acc += c.WorkAt(lambda)
		target := total / uint64(p) * uint64(part)
		if r := total % uint64(p); r > 0 {
			target += r * uint64(part) / uint64(p)
		}
		if acc >= target {
			parts = append(parts, Partition{Lo: lo, Hi: lambda + 1})
			lo = lambda + 1
			part++
		}
	}
	for len(parts) < p-1 {
		parts = append(parts, Partition{Lo: lo, Hi: lo})
	}
	parts = append(parts, Partition{Lo: lo, Hi: n})
	return parts, nil
}

// Stats summarizes the work balance of a partitioning.
type Stats struct {
	// PerPart is the total work assigned to each partition.
	PerPart []uint64
	// Max, Min and Mean are over PerPart.
	Max, Min uint64
	Mean     float64
	// Imbalance is Max/Mean − 1: 0 for a perfect split.
	Imbalance float64
}

// Analyze computes balance statistics for a partitioning of the curve.
func Analyze(c Curve, parts []Partition) Stats {
	s := Stats{Min: math.MaxUint64}
	var total uint64
	for _, p := range parts {
		w := c.PrefixWork(p.Hi) - c.PrefixWork(p.Lo)
		s.PerPart = append(s.PerPart, w)
		total += w
		if w > s.Max {
			s.Max = w
		}
		if w < s.Min {
			s.Min = w
		}
	}
	if len(parts) > 0 {
		s.Mean = float64(total) / float64(len(parts))
	}
	if s.Mean > 0 {
		s.Imbalance = float64(s.Max)/s.Mean - 1
	}
	return s
}

// Validate checks that a partitioning tiles [0, c.Threads()) exactly:
// contiguous, non-overlapping, complete. Returns nil when well-formed.
func Validate(c Curve, parts []Partition) error {
	if len(parts) == 0 {
		return fmt.Errorf("sched: empty partitioning")
	}
	var expect uint64
	for i, p := range parts {
		if p.Lo != expect {
			return fmt.Errorf("sched: partition %d starts at %d, want %d", i, p.Lo, expect)
		}
		if p.Hi < p.Lo {
			return fmt.Errorf("sched: partition %d is inverted [%d, %d)", i, p.Lo, p.Hi)
		}
		expect = p.Hi
	}
	if expect != c.Threads() {
		return fmt.Errorf("sched: partitions end at %d, domain has %d threads", expect, c.Threads())
	}
	return nil
}
