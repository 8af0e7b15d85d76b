package gene

import (
	"fmt"
	"testing"
)

func TestSampleClassString(t *testing.T) {
	if Tumor.String() != "tumor" || Normal.String() != "normal" {
		t.Fatal("SampleClass.String mismatch")
	}
}

func TestBarcode(t *testing.T) {
	if got := Barcode("LGG", Tumor, 41); got != "TCGA-LGG-T0041" {
		t.Errorf("tumor barcode = %q", got)
	}
	if got := Barcode("ACC", Normal, 7); got != "TCGA-ACC-N0007" {
		t.Errorf("normal barcode = %q", got)
	}
	// Barcode builds the "TCGA-%s-%s%04d" form by hand; it must agree
	// with fmt at every width, past four digits and below zero included.
	for _, idx := range []int{-12345, -1, 0, 5, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456} {
		for _, class := range []SampleClass{Tumor, Normal} {
			tag := "T"
			if class == Normal {
				tag = "N"
			}
			want := fmt.Sprintf("TCGA-%s-%s%04d", "BRCA", tag, idx)
			if got := Barcode("BRCA", class, idx); got != want {
				t.Errorf("Barcode(BRCA, %v, %d) = %q, want %q", class, idx, got, want)
			}
		}
	}
}

// TestBarcodes requires Barcodes to equal Barcode at every index, across
// the four- and five-digit widths.
func TestBarcodes(t *testing.T) {
	for _, class := range []SampleClass{Tumor, Normal} {
		got := Barcodes("LUAD", class, 10003)
		if len(got) != 10003 {
			t.Fatalf("%d barcodes, want 10003", len(got))
		}
		for idx, b := range got {
			if want := Barcode("LUAD", class, idx); b != want {
				t.Fatalf("Barcodes(LUAD, %v)[%d] = %q, want %q", class, idx, b, want)
			}
		}
	}
	if got := Barcodes("ACC", Tumor, 0); len(got) != 0 {
		t.Fatalf("Barcodes(ACC, Tumor, 0) = %q", got)
	}
}

func TestHistogramPositions(t *testing.T) {
	muts := []Mutation{
		{GeneSymbol: "IDH1", Class: Tumor, Position: 132},
		{GeneSymbol: "IDH1", Class: Tumor, Position: 132},
		{GeneSymbol: "IDH1", Class: Tumor, Position: 132},
		{GeneSymbol: "IDH1", Class: Tumor, Position: 49},
		{GeneSymbol: "IDH1", Class: Normal, Position: 200},
		{GeneSymbol: "MUC6", Class: Tumor, Position: 5},
	}
	h := HistogramPositions(muts, "IDH1", Tumor)
	if h.Total != 4 {
		t.Fatalf("Total = %d, want 4", h.Total)
	}
	if h.Percent[132] != 75 {
		t.Errorf("Percent[132] = %g, want 75", h.Percent[132])
	}
	if h.Percent[49] != 25 {
		t.Errorf("Percent[49] = %g, want 25", h.Percent[49])
	}
	pos, pct := h.PeakPosition()
	if pos != 132 || pct != 75 {
		t.Errorf("PeakPosition = (%d, %g), want (132, 75)", pos, pct)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := HistogramPositions(nil, "IDH1", Tumor)
	if h.Total != 0 {
		t.Fatal("empty histogram should have Total 0")
	}
	if pos, pct := h.PeakPosition(); pos != 0 || pct != 0 {
		t.Errorf("PeakPosition on empty = (%d, %g)", pos, pct)
	}
}

func TestPeakPositionTieBreaksLow(t *testing.T) {
	muts := []Mutation{
		{GeneSymbol: "X", Class: Tumor, Position: 10},
		{GeneSymbol: "X", Class: Tumor, Position: 3},
	}
	h := HistogramPositions(muts, "X", Tumor)
	if pos, _ := h.PeakPosition(); pos != 3 {
		t.Errorf("tie should break to lowest position, got %d", pos)
	}
}
