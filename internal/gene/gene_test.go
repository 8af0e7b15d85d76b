package gene

import (
	"fmt"
	"sync"
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

// TestBarcodesShared requires every call for one code and class to be
// cut from one table, capped so that an append copies, and the tables
// to stay within their bound while calls past it still get every label.
func TestBarcodesShared(t *testing.T) {
	a, b := Barcodes("SHR", Tumor, 40), Barcodes("SHR", Tumor, 25)
	if &a[0] != &b[0] || cap(a) != 40 || cap(b) != 25 {
		t.Fatalf("Barcodes(SHR, Tumor) not cut from one capped table: caps %d, %d", cap(a), cap(b))
	}
	if c := append(b, "x"); &c[0] == &a[0] || a[25] != Barcode("SHR", Tumor, 25) {
		t.Fatal("an append to a shared barcode slice wrote into the table")
	}
	if n := Barcodes("SHR", Normal, 1); n[0] != "TCGA-SHR-N0000" {
		t.Fatalf("normal label %q", n[0])
	}
	for k := range 2 * maxSharedBarcodes / 5000 {
		code := fmt.Sprintf("B%d", k)
		got := Barcodes(code, Normal, 5000)
		if len(got) != 5000 || got[4999] != Barcode(code, Normal, 4999) {
			t.Fatalf("Barcodes(%s, Normal, 5000) ends %q", code, got[len(got)-1])
		}
	}
	sharedBarcodes.Lock()
	defer sharedBarcodes.Unlock()
	if sharedBarcodes.size > maxSharedBarcodes {
		t.Fatalf("shared barcode tables hold %d labels, bound %d", sharedBarcodes.size, maxSharedBarcodes)
	}
}

// TestBarcodesConcurrent asks for growing tables of a few codes from
// several goroutines at once; each must get every label (run it under
// -race).
func TestBarcodesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; n <= 300; n += 7 {
				code := fmt.Sprintf("C%d", (w+n)%3)
				got := Barcodes(code, Tumor, n)
				if len(got) != n || got[n-1] != Barcode(code, Tumor, n-1) {
					t.Errorf("Barcodes(%s, Tumor, %d) gave %d labels, the last %q", code, n, len(got), got[len(got)-1:])
					return
				}
			}
		}()
	}
	wg.Wait()
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
