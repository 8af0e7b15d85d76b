package dataset

import (
	"bytes"
	"testing"

	"repro/internal/gene"
)

func TestExportMAFAndFromMAFRoundTrip(t *testing.T) {
	// Generate a cohort, export both classes as MAF, re-ingest, and check
	// the mutation structure is preserved (the gene axis is re-sorted and
	// all-zero genes drop out, so compare via symbols).
	lgg := LGG().Scaled(50)
	orig, err := Generate(lgg, 23)
	if err != nil {
		t.Fatal(err)
	}
	var tumorMAF, normalMAF bytes.Buffer
	if err := orig.ExportMAF(&tumorMAF, gene.Tumor); err != nil {
		t.Fatal(err)
	}
	if err := orig.ExportMAF(&normalMAF, gene.Normal); err != nil {
		t.Fatal(err)
	}

	got, err := FromMAF("LGG", &tumorMAF, &normalMAF)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nt() != orig.Nt() {
		t.Fatalf("tumor samples %d, want %d", got.Nt(), orig.Nt())
	}
	// Every original bit must survive, addressed by symbol and barcode.
	newCol := map[string]int{}
	for s, b := range got.TumorBarcodes {
		newCol[b] = s
	}
	for g := 0; g < orig.Tumor.Genes(); g++ {
		symbol := orig.GeneSymbols[g]
		ng := got.GeneID(symbol)
		for s := 0; s < orig.Tumor.Samples(); s++ {
			if !orig.Tumor.Get(g, s) {
				continue
			}
			if ng < 0 {
				t.Fatalf("gene %s lost in round trip", symbol)
			}
			ns, ok := newCol[orig.TumorBarcodes[s]]
			if !ok || !got.Tumor.Get(ng, ns) {
				t.Fatalf("bit (%s, %s) lost in round trip", symbol, orig.TumorBarcodes[s])
			}
		}
	}
	// Total bit counts equal (no spurious extra bits).
	origBits, gotBits := 0, 0
	for g := 0; g < orig.Tumor.Genes(); g++ {
		origBits += orig.Tumor.RowPopCount(g)
	}
	for g := 0; g < got.Tumor.Genes(); g++ {
		gotBits += got.Tumor.RowPopCount(g)
	}
	if origBits != gotBits {
		t.Fatalf("tumor bits %d → %d after round trip", origBits, gotBits)
	}
	// Positional records for IDH1 survive re-ingestion.
	th := gene.HistogramPositions(got.Mutations, "IDH1", gene.Tumor)
	if pos, pct := th.PeakPosition(); pos != 132 || pct < 50 {
		t.Fatalf("IDH1 hotspot lost: peak %.1f%% at %d", pct, pos)
	}
}

func TestFromMAFRejectsGarbage(t *testing.T) {
	good := bytes.NewBufferString("Hugo_Symbol\tTumor_Sample_Barcode\nA\tT1\n")
	bad := bytes.NewBufferString("not a maf")
	if _, err := FromMAF("X", bad, good); err == nil {
		t.Fatal("FromMAF accepted garbage tumor stream")
	}
	good2 := bytes.NewBufferString("Hugo_Symbol\tTumor_Sample_Barcode\nA\tT1\n")
	bad2 := bytes.NewBufferString("")
	if _, err := FromMAF("X", good2, bad2); err == nil {
		t.Fatal("FromMAF accepted empty normal stream")
	}
}

func TestFromMAFDiscoveryEndToEnd(t *testing.T) {
	// A tiny hand-built MAF pair where the 2-hit combination {A, B} covers
	// both tumors and no normals.
	tumor := bytes.NewBufferString(
		"Hugo_Symbol\tTumor_Sample_Barcode\n" +
			"A\tT1\nB\tT1\nA\tT2\nB\tT2\nC\tT2\n")
	normal := bytes.NewBufferString(
		"Hugo_Symbol\tTumor_Sample_Barcode\n" +
			"A\tN1\nC\tN2\n")
	c, err := FromMAF("TOY", tumor, normal)
	if err != nil {
		t.Fatal(err)
	}
	if c.Spec.Genes != 3 || c.Nt() != 2 || c.Nn() != 2 {
		t.Fatalf("cohort shape %d genes, %d/%d samples", c.Spec.Genes, c.Nt(), c.Nn())
	}
	a, b := c.GeneID("A"), c.GeneID("B")
	if c.Tumor.ComboPopCount(a, b) != 2 {
		t.Fatal("combination {A,B} should cover both tumors")
	}
	if c.Normal.ComboPopCount(a, b) != 0 {
		t.Fatal("combination {A,B} should cover no normals")
	}
}
