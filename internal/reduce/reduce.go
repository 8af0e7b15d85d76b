// Package reduce implements the multi-stage, multi-kernel max-F reduction
// of Sec. III-E.
//
// A naive 4-hit implementation would materialize one {gene₀…gene₃, F}
// record per combination — 20 bytes × C(G, 4) ≈ 24 terabytes for BRCA.
// The paper instead reduces in stages: the maxF kernel keeps one record per
// 512-thread block (24 TB → 47.5 GB), the parallelReduceMax kernel folds a
// GPU's blocks to a single record, each MPI rank returns one 20-byte record
// to rank 0, and rank 0 folds the per-rank records. Every stage is a max
// under the same total order, so the result is exactly the global argmax.
//
// Ties on F break toward the lexicographically smallest gene tuple, making
// every reduction topology — sequential scan, block-then-tree, tournament —
// return the identical record. That determinism is what lets the test suite
// assert parallel == sequential.
package reduce

import (
	"fmt"

	"repro/internal/failpoint"
)

// MaxHits is the largest combination size h a Combo records.
const MaxHits = 5

// Combo is one candidate multi-hit combination and its weight: up to
// MaxHits gene ids plus F. The paper's CUDA record is four int32 gene ids
// and a float32 F, 20 bytes (BytesPerRecord), and the Sec. III-E memory
// arithmetic uses that size; the in-memory struct here is wider, with a
// fifth gene slot and a float64 F. Unused gene slots (for h < MaxHits)
// hold -1.
type Combo struct {
	// Genes holds the gene ids in strictly increasing order; trailing
	// unused slots are -1.
	Genes [MaxHits]int32
	// F is the weighted-set-cover score of the combination.
	F float64
}

// None is the identity element of the max reduction: no combination,
// F below every real score.
var None = Combo{Genes: [MaxHits]int32{-1, -1, -1, -1, -1}, F: -1}

// NewCombo builds a Combo from 1–MaxHits gene ids (already sorted
// ascending).
func NewCombo(f float64, genes ...int) Combo {
	if len(genes) == 0 || len(genes) > MaxHits {
		panic(fmt.Sprintf("reduce: NewCombo takes 1-%d genes, got %d", MaxHits, len(genes)))
	}
	c := Combo{Genes: None.Genes, F: f}
	for i, g := range genes {
		if i > 0 && genes[i-1] >= g {
			panic(fmt.Sprintf("reduce: genes not strictly increasing: %v", genes))
		}
		c.Genes[i] = int32(g)
	}
	return c
}

// The fixed-arity constructors below are what the enumeration kernels
// call once per scored combination. Unlike the variadic NewCombo they are
// allocation-free: a variadic call site materializes a []int that escapes
// through NewCombo's diagnostic panic path, which would put one heap
// allocation on the innermost loop of every kernel.

// NewCombo2 builds a 2-hit Combo from genes a < b.
func NewCombo2(f float64, a, b int) Combo {
	if a >= b {
		panic("reduce: genes not strictly increasing")
	}
	return Combo{Genes: [MaxHits]int32{int32(a), int32(b), -1, -1, -1}, F: f}
}

// NewCombo3 builds a 3-hit Combo from genes a < b < c.
func NewCombo3(f float64, a, b, c int) Combo {
	if a >= b || b >= c {
		panic("reduce: genes not strictly increasing")
	}
	return Combo{Genes: [MaxHits]int32{int32(a), int32(b), int32(c), -1, -1}, F: f}
}

// NewCombo4 builds a 4-hit Combo from genes a < b < c < d.
func NewCombo4(f float64, a, b, c, d int) Combo {
	if a >= b || b >= c || c >= d {
		panic("reduce: genes not strictly increasing")
	}
	return Combo{Genes: [MaxHits]int32{int32(a), int32(b), int32(c), int32(d), -1}, F: f}
}

// NewCombo5 builds a 5-hit Combo from genes a < b < c < d < e.
func NewCombo5(f float64, a, b, c, d, e int) Combo {
	if a >= b || b >= c || c >= d || d >= e {
		panic("reduce: genes not strictly increasing")
	}
	return Combo{Genes: [MaxHits]int32{int32(a), int32(b), int32(c), int32(d), int32(e)}, F: f}
}

// String renders the combination as "[3 7 12 19] F=0.8342".
func (c Combo) String() string {
	return fmt.Sprintf("%v F=%.4f", c.GeneIDs(), c.F)
}

// Hits returns the number of genes in the combination.
func (c Combo) Hits() int {
	n := 0
	for _, g := range c.Genes {
		if g >= 0 {
			n++
		}
	}
	return n
}

// GeneIDs returns the used gene ids as a slice.
func (c Combo) GeneIDs() []int {
	ids := make([]int, 0, MaxHits)
	for _, g := range c.Genes {
		if g >= 0 {
			ids = append(ids, int(g))
		}
	}
	return ids
}

// Better reports whether c should win the reduction against o: higher F, or
// equal F and lexicographically smaller gene tuple. None loses to every real
// combination.
func (c Combo) Better(o Combo) bool {
	if c.F != o.F {
		return c.F > o.F
	}
	for i := range c.Genes {
		a, b := c.Genes[i], o.Genes[i]
		if a == b {
			continue
		}
		// A real gene id beats the -1 filler; otherwise smaller id wins.
		if a == -1 {
			return false
		}
		if b == -1 {
			return true
		}
		return a < b
	}
	return false
}

// StrictlyAbove reports whether c's F strictly exceeds the given score.
// It exists so bound-and-prune callers outside this package can compare an
// F against an upper bound without writing a direct float comparison (the
// floatcompare analyzer reserves those for the canonical comparators
// here). Strictness matters: a combination that merely ties a bound could
// still lose the lexicographic tie-break to something under the bound.
func (c Combo) StrictlyAbove(score float64) bool {
	return c.F > score
}

// Max reduces a slice with a sequential scan — the ground-truth topology.
func Max(combos []Combo) Combo {
	best := None
	for _, c := range combos {
		if c.Better(best) {
			best = c
		}
	}
	return best
}

// BlockReduce performs the maxF kernel's single-stage in-block reduction:
// it folds each consecutive blockSize-sized block of records to one winner,
// returning ceil(len/blockSize) records. With blockSize = 512 this is the
// paper's 512× list compression.
func BlockReduce(combos []Combo, blockSize int) []Combo {
	if blockSize <= 0 {
		panic("reduce: block size must be positive")
	}
	if len(combos) == 0 {
		return nil
	}
	out := make([]Combo, 0, (len(combos)+blockSize-1)/blockSize)
	for lo := 0; lo < len(combos); lo += blockSize {
		hi := lo + blockSize
		if hi > len(combos) {
			hi = len(combos)
		}
		out = append(out, Max(combos[lo:hi]))
	}
	return out
}

// TreeReduce performs the parallelReduceMax kernel's multi-stage reduction:
// repeated pairwise halving, the topology a GPU executes across its block
// results. The result equals Max for any input order.
func TreeReduce(combos []Combo) Combo {
	if len(combos) == 0 {
		return None
	}
	buf := make([]Combo, len(combos))
	copy(buf, combos)
	return TreeReduceInPlace(buf)
}

// TreeReduceInPlace is TreeReduce without the defensive copy: the slice is
// folded in place. Callers that own the slice — the cover workers' reusable
// per-partition scratch — avoid one allocation per reduction.
func TreeReduceInPlace(buf []Combo) Combo {
	// Chaos hook into the real reduction path: an armed "reduce/tree"
	// failpoint panics or stalls here, where a crashed reduction rank
	// would (docs/ROBUSTNESS.md).
	failpoint.Hit("reduce/tree")
	if len(buf) == 0 {
		return None
	}
	for n := len(buf); n > 1; {
		half := (n + 1) / 2
		for i := 0; i < n/2; i++ {
			if buf[n-1-i].Better(buf[i]) {
				buf[i] = buf[n-1-i]
			}
		}
		n = half
	}
	return buf[0]
}

// Stages describes a full multi-stage reduction for reporting: the record
// counts surviving each stage.
type Stages struct {
	// Combinations is the number of candidate records before any reduction
	// (one per thread in the 3x1 scheme: each thread already folds its own
	// inner loop, so the pre-block list has C(G, 3) entries — the paper's
	// 1.22e12-entry, 24.34 TB BRCA list).
	Combinations uint64
	// AfterBlock is the per-block survivor count (one per block).
	AfterBlock uint64
	// AfterDevice is the per-GPU survivor count (one per device).
	AfterDevice uint64
	// AfterRank is the per-MPI-rank survivor count (one per rank).
	AfterRank uint64
}

// PlanStages computes the survivor counts for a problem with the given
// pre-reduction record count, block size, devices and ranks — the
// arithmetic behind the paper's 24.3 TB → 47.5 GB → 20 bytes/rank
// narrative.
func PlanStages(records uint64, blockSize, devices, ranks int) Stages {
	if blockSize <= 0 || devices <= 0 || ranks <= 0 {
		panic("reduce: PlanStages arguments must be positive")
	}
	blocks := (records + uint64(blockSize) - 1) / uint64(blockSize)
	return Stages{
		Combinations: records,
		AfterBlock:   blocks,
		AfterDevice:  uint64(devices),
		AfterRank:    uint64(ranks),
	}
}

// BytesPerRecord is the size of one record as laid out by the paper's CUDA
// struct (4 × int32 + float32); the Sec. III-E arithmetic sizes the
// reduction stages with it, not with the wider in-memory Combo.
const BytesPerRecord = 20

// Bytes returns the storage the given record count occupies at the paper's
// 20-byte record size.
func Bytes(records uint64) uint64 { return records * BytesPerRecord }
