// Package bitmat implements the compressed binary gene×sample matrices that
// feed the multi-hit weighted-set-cover engine.
//
// Each matrix row is one gene; each column is one patient sample; bit (g, s)
// is 1 when sample s carries at least one somatic mutation in gene g. Columns
// are packed 64 per machine word ("64 samples ... grouped into a single
// unsigned long long int", Sec. II-C), giving the paper's 32× memory
// reduction over a byte-per-cell layout and letting a single AND+popcount
// evaluate 64 samples of a gene combination at once.
package bitmat

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// WordBits is the number of samples packed into one matrix word.
const WordBits = 64

// WordsFor returns the packed word count covering n samples,
// ceil(n/WordBits). Code outside this package must use it (or WordBits)
// instead of hardcoding 64-bit word arithmetic — the wordwidth analyzer
// enforces that.
func WordsFor(n int) int {
	return (n + WordBits - 1) / WordBits
}

// Matrix is a bit-packed genes×samples binary matrix, row-major with
// ceil(samples/64) words per row. The zero value is not usable; construct
// with New or FromBools.
type Matrix struct {
	genes   int
	samples int
	words   int // words per row
	bits    []uint64
}

// New returns an all-zero matrix with the given dimensions.
func New(genes, samples int) *Matrix {
	if genes < 0 || samples < 0 {
		panic(fmt.Sprintf("bitmat: negative dimensions (%d, %d)", genes, samples))
	}
	w := WordsFor(samples)
	return &Matrix{
		genes:   genes,
		samples: samples,
		words:   w,
		bits:    make([]uint64, genes*w),
	}
}

// FromBools builds a matrix from a dense boolean grid, rows[g][s].
func FromBools(rows [][]bool) *Matrix {
	genes := len(rows)
	samples := 0
	if genes > 0 {
		samples = len(rows[0])
	}
	m := New(genes, samples)
	for g, row := range rows {
		if len(row) != samples {
			panic("bitmat: ragged boolean grid")
		}
		for s, v := range row {
			if v {
				m.Set(g, s)
			}
		}
	}
	return m
}

// Genes returns the number of rows (genes).
func (m *Matrix) Genes() int { return m.genes }

// Samples returns the number of logical columns (samples).
func (m *Matrix) Samples() int { return m.samples }

// Words returns the number of 64-bit words per row.
func (m *Matrix) Words() int { return m.words }

// Set sets bit (g, s) to 1.
func (m *Matrix) Set(g, s int) {
	m.check(g, s)
	m.bits[g*m.words+s/WordBits] |= 1 << (uint(s) % WordBits)
}

// Clear sets bit (g, s) to 0.
func (m *Matrix) Clear(g, s int) {
	m.check(g, s)
	m.bits[g*m.words+s/WordBits] &^= 1 << (uint(s) % WordBits)
}

// Get reports whether bit (g, s) is set.
func (m *Matrix) Get(g, s int) bool {
	m.check(g, s)
	return m.bits[g*m.words+s/WordBits]>>(uint(s)%WordBits)&1 == 1
}

func (m *Matrix) check(g, s int) {
	if g < 0 || g >= m.genes || s < 0 || s >= m.samples {
		panic(fmt.Sprintf("bitmat: index (%d, %d) out of range %d×%d", g, s, m.genes, m.samples))
	}
}

// Row returns the packed words of gene g's row. The slice aliases the
// matrix; callers treat it as read-only. The cover kernels take the rows
// of a candidate's fixed genes once and keep them out of their inner
// loops.
func (m *Matrix) Row(g int) []uint64 {
	if uint(g) >= uint(m.genes) {
		panic(rowRangeError{g, m.genes})
	}
	lo := g * m.words
	return m.bits[lo : lo+m.words : lo+m.words]
}

// Column returns where sample s's bits are: bit (g, s) is bit in
// words[g*stride]. words aliases the matrix from s's word of row 0 on;
// a caller may set bits of column s through it and must not touch other
// bits. The generator fills a sample's column this way in one sweep.
func (m *Matrix) Column(s int) (words []uint64, stride int, bit uint64) {
	if s < 0 || s >= m.samples {
		panic(fmt.Sprintf("bitmat: column %d out of range %d", s, m.samples))
	}
	return m.bits[min(s/WordBits, len(m.bits)):], m.words, 1 << (uint(s) % WordBits)
}

// rowRangeError is Row's panic value. It formats its message only when
// printed, which keeps Row cheap enough for the compiler to inline into
// the kernels that call it per candidate.
type rowRangeError struct{ g, genes int }

func (e rowRangeError) Error() string {
	return fmt.Sprintf("bitmat: row %d out of range %d", e.g, e.genes)
}

// RowPopCount returns the number of set bits in gene g's row — the number of
// samples mutated in g.
func (m *Matrix) RowPopCount(g int) int {
	n := 0
	for _, w := range m.Row(g) {
		n += bits.OnesCount64(w)
	}
	return n
}

// Columns returns the matrix's transpose restricted to the set bits of
// active, in compressed sparse column form: the rows set in active column
// s, ascending, are rows[start[s]:start[s+1]], and every inactive column
// is empty. active must have the matrix's word count. One sweep counts
// each column's rows and a second fills them, O(genes × words + nnz).
func (m *Matrix) Columns(active []uint64) (start []int, rows []int32) {
	return m.ColumnsInto(active, nil, nil)
}

// ColumnsInto is Columns writing into start and rows, whose capacity it
// reuses when it suffices.
func (m *Matrix) ColumnsInto(active []uint64, start []int, rows []int32) ([]int, []int32) {
	if len(active) != m.words {
		panic(fmt.Sprintf("bitmat: active mask has %d words, matrix rows have %d", len(active), m.words))
	}
	start = slices.Grow(start[:0], m.samples+1)[:m.samples+1]
	clear(start)
	for g := 0; g < m.genes; g++ {
		for w, x := range m.Row(g) {
			for x &= active[w]; x != 0; x &= x - 1 {
				start[w*WordBits+bits.TrailingZeros64(x)+1]++
			}
		}
	}
	for s := 1; s <= m.samples; s++ {
		start[s] += start[s-1]
	}
	rows = slices.Grow(rows[:0], start[m.samples])[:start[m.samples]]
	// start[s] is column s's fill cursor, which ends at start[s+1]; the
	// offsets are shifted back once every row is placed.
	for g := 0; g < m.genes; g++ {
		for w, x := range m.Row(g) {
			for x &= active[w]; x != 0; x &= x - 1 {
				s := w*WordBits + bits.TrailingZeros64(x)
				rows[start[s]] = int32(g)
				start[s]++
			}
		}
	}
	copy(start[1:], start[:m.samples])
	start[0] = 0
	return start, rows
}

// tailMask returns the mask of valid bits in the final word of a row, or an
// all-ones mask when the sample count is a multiple of 64.
func (m *Matrix) tailMask() uint64 {
	r := uint(m.samples % WordBits)
	if r == 0 {
		return ^uint64(0)
	}
	return 1<<r - 1
}

// ComboVec writes the AND of the rows for the given genes into dst and
// returns its popcount. It accepts 1–5 genes.
func (m *Matrix) ComboVec(dst []uint64, genes ...int) int {
	if len(genes) == 0 || len(genes) > 5 {
		panic("bitmat: ComboVec supports 1-5 genes")
	}
	copy(dst, m.Row(genes[0]))
	for _, g := range genes[1:] {
		r := m.Row(g)
		for w := range dst {
			dst[w] &= r[w]
		}
	}
	n := 0
	for _, w := range dst {
		n += bits.OnesCount64(w)
	}
	return n
}

// ComboPopCount returns the number of samples mutated in every one of the
// given genes (1–5 genes): the tests' oracle for the kernels' counts.
func (m *Matrix) ComboPopCount(genes ...int) int {
	if len(genes) == 0 || len(genes) > 5 {
		panic("bitmat: ComboPopCount supports 1-5 genes")
	}
	var rows [5][]uint64
	for i, g := range genes {
		rows[i] = m.Row(g)
	}
	n := 0
	for w := range m.words {
		x := ^uint64(0)
		for _, r := range rows[:len(genes)] {
			x &= r[w]
		}
		n += bits.OnesCount64(x)
	}
	return n
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{genes: m.genes, samples: m.samples, words: m.words}
	c.bits = make([]uint64, len(m.bits))
	copy(c.bits, m.bits)
	return c
}

// Equal reports whether two matrices have identical dimensions and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.genes != o.genes || m.samples != o.samples {
		return false
	}
	for i := range m.bits {
		if m.bits[i] != o.bits[i] {
			return false
		}
	}
	return true
}

// PopCount returns the total number of set bits across the matrix.
func (m *Matrix) PopCount() int {
	n := 0
	for g := 0; g < m.genes; g++ {
		n += m.RowPopCount(g)
	}
	return n
}

// Density returns the fraction of set bits — the statistic the sparse
// engine's Auto heuristic keys on.
func (m *Matrix) Density() float64 {
	if m.genes == 0 || m.samples == 0 {
		return 0
	}
	return float64(m.PopCount()) / (float64(m.genes) * float64(m.samples))
}

// Splice returns a new matrix with every column whose bit is set in remove
// spliced out, preserving the relative order of the remaining columns (the
// paper's BitSplicing primitive, Sec. III-D; here it drops duplicate
// columns in DedupColumns and filtered samples in the dataset loader). The
// remove vector must span this matrix's samples.
func (m *Matrix) Splice(remove *Vec) *Matrix {
	if remove.n != m.samples {
		panic(fmt.Sprintf("bitmat: Splice vector spans %d samples, matrix has %d", remove.n, m.samples))
	}
	kept := m.samples - remove.PopCount()
	out := New(m.genes, kept)
	// Precompute, per source word, the compaction of surviving bits using
	// parallel bit extract emulation; per row we then merge the compacted
	// fragments into the destination stream.
	keepMasks := make([]uint64, m.words)
	keepCounts := make([]int, m.words)
	for w := 0; w < m.words; w++ {
		keep := ^remove.bits[w]
		if w == m.words-1 {
			keep &= m.tailMask()
		}
		keepMasks[w] = keep
		keepCounts[w] = bits.OnesCount64(keep)
	}
	for g := 0; g < m.genes; g++ {
		src := m.Row(g)
		dst := out.Row(g)
		bitPos := 0 // next free bit in dst stream
		for w := 0; w < m.words; w++ {
			frag := extractBits(src[w], keepMasks[w])
			nb := keepCounts[w]
			if nb == 0 {
				continue
			}
			word := bitPos / WordBits
			off := uint(bitPos % WordBits)
			dst[word] |= frag << off
			if int(off)+nb > WordBits {
				dst[word+1] |= frag >> (WordBits - off)
			}
			bitPos += nb
		}
	}
	return out
}

// SelectRows returns a new matrix holding the given rows in order — the
// gene-axis counterpart of Splice, which kernelization uses to drop
// dominated genes from both matrices with one index list. The indices
// must be valid rows; they are copied in the order given, so an ascending
// keep list preserves the strictly increasing gene order the reduction
// relies on.
func (m *Matrix) SelectRows(keep []int) *Matrix {
	out := New(len(keep), m.samples)
	for i, g := range keep {
		copy(out.Row(i), m.Row(g))
	}
	return out
}

// extractBits compacts the bits of v selected by mask toward the low end
// (a software PEXT).
func extractBits(v, mask uint64) uint64 {
	var out uint64
	var outBit uint
	for mask != 0 {
		low := mask & (^mask + 1) // lowest set bit
		if v&low != 0 {
			out |= 1 << outBit
		}
		outBit++
		mask &^= low
	}
	return out
}

// PopAnd2 returns the popcount of a ∧ b over two equal-length word slices.
// The cover kernels call these free functions on rows they took once with
// Row, or folded once with AndWordsPop, outside their inner loops.
func PopAnd2(a, b []uint64) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w])
	}
	return n
}

// PopAnd3 returns the popcount of a ∧ b ∧ c.
func PopAnd3(a, b, c []uint64) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w] & c[w])
	}
	return n
}

// PopAnd4 returns the popcount of a ∧ b ∧ c ∧ d.
func PopAnd4(a, b, c, d []uint64) int {
	n := 0
	for w := range a {
		n += bits.OnesCount64(a[w] & b[w] & c[w] & d[w])
	}
	return n
}

// FirstSet returns the index of the lowest set bit of a, or -1 when a
// is all zero.
func FirstSet(a []uint64) int {
	for w, x := range a {
		if x != 0 {
			return w*WordBits + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// AndWords writes a ∧ b into dst (all equal length).
func AndWords(dst, a, b []uint64) {
	for w := range dst {
		dst[w] = a[w] & b[w]
	}
}

// AndWordsPop writes a ∧ b into dst and returns the popcount of the
// result. The cover kernels fold their loop-invariant prefix rows with
// this instead of AndWords so the prefix tumor count — the input to the
// bound-and-prune upper bound — comes out of the fold for free.
// The loop is unrolled by 4 (scalar tail) so the fold issues four
// independent AND+POPCNT chains per iteration instead of serializing on
// one accumulator — this is the hot instruction of the dense scan, and
// BenchmarkAndWordsPop guards the unroll.
func AndWordsPop(dst, a, b []uint64) int {
	a = a[:len(dst)]
	b = b[:len(dst)]
	n0, n1, n2, n3 := 0, 0, 0, 0
	w := 0
	for ; w+4 <= len(dst); w += 4 {
		v0 := a[w] & b[w]
		v1 := a[w+1] & b[w+1]
		v2 := a[w+2] & b[w+2]
		v3 := a[w+3] & b[w+3]
		dst[w] = v0
		dst[w+1] = v1
		dst[w+2] = v2
		dst[w+3] = v3
		n0 += bits.OnesCount64(v0)
		n1 += bits.OnesCount64(v1)
		n2 += bits.OnesCount64(v2)
		n3 += bits.OnesCount64(v3)
	}
	for ; w < len(dst); w++ {
		v := a[w] & b[w]
		dst[w] = v
		n0 += bits.OnesCount64(v)
	}
	return n0 + n1 + n2 + n3
}

// Vec is a bit-packed vector over samples, used for the active-tumor mask
// and for cover sets.
type Vec struct {
	n    int
	bits []uint64
}

// NewVec returns an all-zero vector spanning n samples.
func NewVec(n int) *Vec {
	if n < 0 {
		panic("bitmat: negative vector length")
	}
	return &Vec{n: n, bits: make([]uint64, WordsFor(n))}
}

// AllOnes returns a vector with every one of its n bits set.
func AllOnes(n int) *Vec {
	v := NewVec(n)
	for i := range v.bits {
		v.bits[i] = ^uint64(0)
	}
	r := uint(n % WordBits)
	if r != 0 && len(v.bits) > 0 {
		v.bits[len(v.bits)-1] = 1<<r - 1
	}
	return v
}

// Len returns the number of samples the vector spans.
func (v *Vec) Len() int { return v.n }

// Words exposes the packed words; callers treat the slice as read-only.
func (v *Vec) Words() []uint64 { return v.bits }

// Set sets bit s.
func (v *Vec) Set(s int) {
	v.check(s)
	v.bits[s/WordBits] |= 1 << (uint(s) % WordBits)
}

// Clear clears bit s.
func (v *Vec) Clear(s int) {
	v.check(s)
	v.bits[s/WordBits] &^= 1 << (uint(s) % WordBits)
}

// Get reports whether bit s is set.
func (v *Vec) Get(s int) bool {
	v.check(s)
	return v.bits[s/WordBits]>>(uint(s)%WordBits)&1 == 1
}

func (v *Vec) check(s int) {
	if s < 0 || s >= v.n {
		panic(fmt.Sprintf("bitmat: vec index %d out of range %d", s, v.n))
	}
}

// PopCount returns the number of set bits.
func (v *Vec) PopCount() int {
	n := 0
	for _, w := range v.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndNot clears in v every bit set in o (v &^= o).
func (v *Vec) AndNot(o *Vec) {
	if v.n != o.n {
		panic("bitmat: AndNot length mismatch")
	}
	for i := range v.bits {
		v.bits[i] &^= o.bits[i]
	}
}

// Or sets in v every bit set in o.
func (v *Vec) Or(o *Vec) {
	if v.n != o.n {
		panic("bitmat: Or length mismatch")
	}
	for i := range v.bits {
		v.bits[i] |= o.bits[i]
	}
}

// And keeps in v only bits also set in o.
func (v *Vec) And(o *Vec) {
	if v.n != o.n {
		panic("bitmat: And length mismatch")
	}
	for i := range v.bits {
		v.bits[i] &= o.bits[i]
	}
}

// AndPopCount returns |v ∧ words| without modifying v; words must have the
// same packed length.
func (v *Vec) AndPopCount(words []uint64) int {
	if len(words) != len(v.bits) {
		panic("bitmat: AndPopCount word length mismatch")
	}
	n := 0
	for i := range v.bits {
		n += bits.OnesCount64(v.bits[i] & words[i])
	}
	return n
}

// Clone returns a deep copy.
func (v *Vec) Clone() *Vec {
	c := &Vec{n: v.n, bits: make([]uint64, len(v.bits))}
	copy(c.bits, v.bits)
	return c
}

// Fingerprint returns an FNV-1a hash over the matrix dimensions and
// contents, used to bind checkpoints to the exact input they were taken
// from.
func (m *Matrix) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(uint64(m.genes))
	mix(uint64(m.samples))
	for _, w := range m.bits {
		mix(w)
	}
	return h
}

const matrixMagic = "BMAT1\n"

// WriteTo serializes the matrix in a stable little-endian binary format.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := io.WriteString(w, matrixMagic)
	total += int64(n)
	if err != nil {
		return total, err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr[0:], uint64(m.genes))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(m.samples))
	n, err = w.Write(hdr)
	total += int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 8*len(m.bits))
	for i, word := range m.bits {
		binary.LittleEndian.PutUint64(buf[8*i:], word)
	}
	n, err = w.Write(buf)
	total += int64(n)
	return total, err
}

// ReadMatrix deserializes a matrix written by WriteTo.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	magic := make([]byte, len(matrixMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("bitmat: reading magic: %w", err)
	}
	if string(magic) != matrixMagic {
		return nil, errors.New("bitmat: bad magic")
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("bitmat: reading header: %w", err)
	}
	genes := int(binary.LittleEndian.Uint64(hdr[0:]))
	samples := int(binary.LittleEndian.Uint64(hdr[8:]))
	const maxDim = 1 << 26
	if genes < 0 || samples < 0 || genes > maxDim || samples > maxDim {
		return nil, fmt.Errorf("bitmat: implausible dimensions %d×%d", genes, samples)
	}
	m := New(genes, samples)
	buf := make([]byte, 8*len(m.bits))
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("bitmat: reading payload: %w", err)
	}
	for i := range m.bits {
		m.bits[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	return m, nil
}
