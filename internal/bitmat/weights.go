package bitmat

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Weights carries per-column integer multiplicities for a matrix whose
// duplicate sample columns have been merged (DedupColumns). A weighted
// popcount over the deduped matrix equals the plain popcount over the
// original: column j stands for Weight(j) identical original columns.
//
// The weights are stored as bit planes — plane k holds bit j iff bit k of
// column j's multiplicity is set — so a weighted popcount of a mask m is
// Σₖ 2ᵏ·popcount(m ∧ planeₖ): one AND+popcount sweep per plane instead of
// a per-column scalar loop. Cohort duplicates are few, so the plane count
// ⌈log₂(maxMult+1)⌉ is small (1 plane when every weight is 1).
type Weights struct {
	n      int
	total  int
	planes [][]uint64
}

// NewWeights builds the bit-plane representation of the given per-column
// multiplicities, all of which must be ≥ 1.
func NewWeights(mult []int) *Weights {
	w := &Weights{n: len(mult)}
	maxM := 0
	for j, m := range mult {
		if m < 1 {
			panic(fmt.Sprintf("bitmat: weight %d of column %d must be ≥ 1", m, j))
		}
		w.total += m
		if m > maxM {
			maxM = m
		}
	}
	words := WordsFor(len(mult))
	for k := 0; k < bits.Len(uint(maxM)); k++ {
		plane := make([]uint64, words)
		for j, m := range mult {
			if m>>k&1 == 1 {
				plane[j/WordBits] |= 1 << (uint(j) % WordBits)
			}
		}
		w.planes = append(w.planes, plane)
	}
	return w
}

// Len returns the number of (deduped) columns the weights span.
func (w *Weights) Len() int { return w.n }

// Total returns the sum of all weights — the original column count.
func (w *Weights) Total() int { return w.total }

// Weight returns column j's multiplicity.
func (w *Weights) Weight(j int) int {
	if j < 0 || j >= w.n {
		panic(fmt.Sprintf("bitmat: weight index %d out of range %d", j, w.n))
	}
	m := 0
	for k, plane := range w.planes {
		m |= int(plane[j/WordBits]>>(uint(j)%WordBits)&1) << k
	}
	return m
}

// PopVec returns the weighted popcount of a packed mask: the number of
// ORIGINAL columns the mask's set bits stand for.
func (w *Weights) PopVec(a []uint64) int {
	n := 0
	for k, plane := range w.planes {
		s := 0
		for i := range a {
			s += bits.OnesCount64(a[i] & plane[i])
		}
		n += s << k
	}
	return n
}

// PopAnd2 returns the weighted popcount of a ∧ b.
func (w *Weights) PopAnd2(a, b []uint64) int {
	n := 0
	for k, plane := range w.planes {
		s := 0
		for i := range a {
			s += bits.OnesCount64(a[i] & b[i] & plane[i])
		}
		n += s << k
	}
	return n
}

// PopAnd3 returns the weighted popcount of a ∧ b ∧ c.
func (w *Weights) PopAnd3(a, b, c []uint64) int {
	n := 0
	for k, plane := range w.planes {
		s := 0
		for i := range a {
			s += bits.OnesCount64(a[i] & b[i] & c[i] & plane[i])
		}
		n += s << k
	}
	return n
}

// PopAnd4 returns the weighted popcount of a ∧ b ∧ c ∧ d.
func (w *Weights) PopAnd4(a, b, c, d []uint64) int {
	n := 0
	for k, plane := range w.planes {
		s := 0
		for i := range a {
			s += bits.OnesCount64(a[i] & b[i] & c[i] & d[i] & plane[i])
		}
		n += s << k
	}
	return n
}

// PopAnd5 returns the weighted popcount of a ∧ b ∧ c ∧ d ∧ e.
func (w *Weights) PopAnd5(a, b, c, d, e []uint64) int {
	n := 0
	for k, plane := range w.planes {
		s := 0
		for i := range a {
			s += bits.OnesCount64(a[i] & b[i] & c[i] & d[i] & e[i] & plane[i])
		}
		n += s << k
	}
	return n
}

// PopAnd5 returns the plain popcount of a ∧ b ∧ c ∧ d ∧ e over five
// equal-length word slices — the unweighted counterpart the 4x1 kernel
// uses for its five-row fold.
func PopAnd5(a, b, c, d, e []uint64) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w] & c[w] & d[w] & e[w])
	}
	return n
}

// DedupColumns merges duplicate sample columns: two columns are duplicates
// when they carry identical bits across EVERY gene row, in which case no
// gene combination can ever distinguish them and they contribute to every
// count in lockstep. It returns the deduped matrix (first occurrences, in
// original order), the original column index of each surviving column, and
// each surviving column's multiplicity. When no column repeats it returns
// (m, nil, nil) without copying — the caller treats nil as "identity".
//
// Columns are compared on their sparse row lists from one Columns
// transpose, so the cost is O(genes × words + nnz) rather than a bit probe
// per gene and sample.
func DedupColumns(m *Matrix) (*Matrix, []int, []int) {
	s := m.Samples()
	all := make([]uint64, m.words)
	for w := range all {
		all[w] = ^uint64(0)
	}
	if len(all) > 0 {
		all[len(all)-1] = m.tailMask()
	}
	start, rows := m.Columns(all)
	// A column's key is its ascending row list, four little-endian bytes a
	// row; every key is a substring of one string, so the map holds no
	// per-column copy.
	buf := make([]byte, 4*len(rows))
	for i, r := range rows {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(r))
	}
	keys := string(buf)
	slots := make(map[string]int, s)
	var keep []int
	var mult []int
	remove := NewVec(s)
	for j := 0; j < s; j++ {
		key := keys[4*start[j] : 4*start[j+1]]
		if idx, ok := slots[key]; ok {
			mult[idx]++
			remove.Set(j)
			continue
		}
		slots[key] = len(keep)
		keep = append(keep, j)
		mult = append(mult, 1)
	}
	if len(keep) == s {
		return m, nil, nil
	}
	return m.Splice(remove), keep, mult
}
