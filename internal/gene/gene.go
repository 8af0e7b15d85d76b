// Package gene holds gene and sample metadata plus MAF-like per-mutation
// records.
//
// The multi-hit engine itself only needs bit-packed gene×sample matrices;
// this package carries the richer annotations used by two parts of the
// reproduction: sample barcodes for train/test bookkeeping, and per-mutation
// amino-acid positions for the driver-vs-passenger analysis of Fig. 10
// (IDH1's R132 hotspot vs MUC6's uniform passenger scatter in LGG).
package gene

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Gene is one row of the gene×sample matrices.
type Gene struct {
	// ID is the row index in the matrices.
	ID int
	// Symbol is the HUGO-style gene symbol.
	Symbol string
	// Codons is the length of the protein product in amino acids; mutation
	// positions fall in [1, Codons].
	Codons int
}

// SampleClass distinguishes tumor from normal samples.
type SampleClass int

const (
	// Tumor marks a tumor sample.
	Tumor SampleClass = iota
	// Normal marks a blood-derived or tissue normal sample.
	Normal
)

// String returns "tumor" or "normal".
func (c SampleClass) String() string {
	if c == Tumor {
		return "tumor"
	}
	return "normal"
}

// Sample is one column of a gene×sample matrix.
type Sample struct {
	// ID is the column index within its class's matrix.
	ID int
	// Barcode is a TCGA-style sample barcode.
	Barcode string
	// Class is tumor or normal.
	Class SampleClass
}

// Mutation is a MAF-like record: one somatic mutation call in one sample.
type Mutation struct {
	// GeneSymbol is the mutated gene.
	GeneSymbol string
	// SampleBarcode identifies the sample carrying the mutation.
	SampleBarcode string
	// Class is the sample's tumor/normal class.
	Class SampleClass
	// Position is the amino-acid position of the protein change.
	Position int
}

// Barcode formats a TCGA-style barcode for the given cancer code, class and
// index, e.g. "TCGA-LGG-T0041".
func Barcode(cancer string, class SampleClass, idx int) string {
	if idx < 0 {
		return fmt.Sprintf("TCGA-%s-%c%04d", cancer, class.tag(), idx)
	}
	var b strings.Builder
	b.Grow(barcodeLen(cancer, idx))
	writeBarcode(&b, cancer, class, idx)
	return b.String()
}

// Barcodes returns the barcodes of samples 0 to n-1 of a class, as
// Barcode formats them, cut from one string: Generate labels every sample
// of every cohort it builds, and a cohort keeps all of its labels.
func Barcodes(cancer string, class SampleClass, n int) []string {
	size := 0
	for idx := range n {
		size += barcodeLen(cancer, idx)
	}
	var b strings.Builder
	b.Grow(size)
	for idx := range n {
		writeBarcode(&b, cancer, class, idx)
	}
	all, out := b.String(), make([]string, n)
	for idx := range out {
		l := barcodeLen(cancer, idx)
		out[idx], all = all[:l], all[l:]
	}
	return out
}

// tag is the class letter of a barcode.
func (c SampleClass) tag() byte {
	if c == Normal {
		return 'N'
	}
	return 'T'
}

// barcodeLen is the length of a barcode of a non-negative index: the
// index takes at least four digits.
func barcodeLen(cancer string, idx int) int {
	digits := 4
	for x := idx / 10000; x > 0; x /= 10 {
		digits++
	}
	return len("TCGA--T") + len(cancer) + digits
}

// writeBarcode is the fmt form "TCGA-%s-%c%04d" of a non-negative index,
// without fmt's per-call formatting cost.
func writeBarcode(b *strings.Builder, cancer string, class SampleClass, idx int) {
	var digits [20]byte
	num := strconv.AppendInt(digits[:0], int64(idx), 10)
	b.WriteString("TCGA-")
	b.WriteString(cancer)
	b.WriteByte('-')
	b.WriteByte(class.tag())
	for range 4 - len(num) {
		b.WriteByte('0')
	}
	b.Write(num)
}

// PositionHistogram bins mutation positions for one gene and sample class
// into per-position percentages of total mutations, the quantity plotted in
// Fig. 10.
type PositionHistogram struct {
	// GeneSymbol is the gene the histogram describes.
	GeneSymbol string
	// Class is the sample class the mutations came from.
	Class SampleClass
	// Total is the number of mutations binned.
	Total int
	// Percent maps amino-acid position → percentage of Total.
	Percent map[int]float64
}

// HistogramPositions builds a PositionHistogram for one gene and class from
// a mutation list.
func HistogramPositions(muts []Mutation, symbol string, class SampleClass) PositionHistogram {
	counts := map[int]int{}
	total := 0
	for _, m := range muts {
		if m.GeneSymbol == symbol && m.Class == class {
			counts[m.Position]++
			total++
		}
	}
	h := PositionHistogram{GeneSymbol: symbol, Class: class, Total: total, Percent: map[int]float64{}}
	for pos, c := range counts {
		h.Percent[pos] = 100 * float64(c) / float64(total)
	}
	return h
}

// PeakPosition returns the position with the highest percentage and that
// percentage. A hotspot gene (IDH1) shows one dominant peak; a passenger
// gene (MUC6) shows a flat profile. Returns (0, 0) for an empty histogram.
func (h PositionHistogram) PeakPosition() (int, float64) {
	best, bestPct := 0, 0.0
	// Iterate positions in sorted order so ties break deterministically.
	positions := make([]int, 0, len(h.Percent))
	for p := range h.Percent {
		positions = append(positions, p)
	}
	sort.Ints(positions)
	for _, p := range positions {
		if h.Percent[p] > bestPct {
			best, bestPct = p, h.Percent[p]
		}
	}
	return best, bestPct
}
