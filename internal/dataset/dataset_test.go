package dataset

import (
	"bytes"
	"testing"

	"repro/internal/gene"
)

// small returns a fast-to-generate spec for unit tests.
func small() Spec {
	s := defaultRates()
	s.Code, s.Name = "TST", "test cohort"
	s.Genes, s.TumorSamples, s.NormalSamples = 60, 120, 100
	s.PlantedCombos = 3
	return s
}

func TestGenerateShapes(t *testing.T) {
	c, err := Generate(small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Tumor.Genes() != 60 || c.Tumor.Samples() != 120 {
		t.Fatalf("tumor matrix %d×%d", c.Tumor.Genes(), c.Tumor.Samples())
	}
	if c.Normal.Genes() != 60 || c.Normal.Samples() != 100 {
		t.Fatalf("normal matrix %d×%d", c.Normal.Genes(), c.Normal.Samples())
	}
	if len(c.TumorBarcodes) != 120 || len(c.NormalBarcodes) != 100 {
		t.Fatal("barcode counts wrong")
	}
	if len(c.GeneSymbols) != 60 {
		t.Fatal("gene symbol count wrong")
	}
	if len(c.Planted) != 3 {
		t.Fatalf("planted %d combos, want 3", len(c.Planted))
	}
	for _, combo := range c.Planted {
		if len(combo) != 4 {
			t.Fatalf("planted combo size %d, want 4", len(combo))
		}
		for i := 1; i < len(combo); i++ {
			if combo[i] <= combo[i-1] {
				t.Fatal("planted combo not strictly sorted")
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(small(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(small(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Tumor.Equal(b.Tumor) || !a.Normal.Equal(b.Normal) {
		t.Fatal("same seed produced different matrices")
	}
	c, err := Generate(small(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if a.Tumor.Equal(c.Tumor) {
		t.Fatal("different seeds produced identical tumor matrices")
	}
}

func TestPlantedCombosDisjoint(t *testing.T) {
	c, err := Generate(small(), 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, combo := range c.Planted {
		for _, g := range combo {
			if seen[g] {
				t.Fatalf("gene %d appears in two planted combos", g)
			}
			seen[g] = true
		}
	}
}

func TestPlantedSignalDominatesBackground(t *testing.T) {
	// Tumor samples assigned to the first (most popular) combo should make
	// that combo's full-AND count far exceed any random 4-gene set's.
	c, err := Generate(small(), 7)
	if err != nil {
		t.Fatal(err)
	}
	first := c.Planted[0]
	planted := c.Tumor.ComboPopCount(first...)
	if planted < c.Nt()/4 {
		t.Fatalf("first planted combo covers only %d of %d tumors", planted, c.Nt())
	}
	// Normal samples should rarely carry the full combo.
	inNormal := c.Normal.ComboPopCount(first...)
	if inNormal > c.Nn()/3 {
		t.Fatalf("planted combo present in %d of %d normals — too noisy", inNormal, c.Nn())
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Genes = 0 },
		func(s *Spec) { s.TumorSamples = 0 },
		func(s *Spec) { s.NormalSamples = -1 },
		func(s *Spec) { s.Hits = 1 },
		func(s *Spec) { s.Hits = 6 },
		func(s *Spec) { s.PlantedCombos = 0 },
		func(s *Spec) { s.Genes = 8; s.PlantedCombos = 3 }, // 3*4 > 8
		func(s *Spec) { s.DriverMutProb = 0 },
		func(s *Spec) { s.DriverMutProb = 1.5 },
	}
	for i, mutate := range bad {
		s := small()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted a bad spec", i)
		}
		if _, err := Generate(s, 1); err == nil {
			t.Errorf("case %d: Generate accepted a bad spec", i)
		}
	}
}

func TestScaled(t *testing.T) {
	s := BRCA()
	r := s.Scaled(100)
	if r.Genes != 100 {
		t.Fatal("Scaled did not resize genes")
	}
	if r.TumorSamples != s.TumorSamples {
		t.Fatal("Scaled changed sample counts")
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("scaled spec invalid: %v", err)
	}
	// Scaling below the planted-combo footprint shrinks the combo count.
	tiny := s.Scaled(10)
	if tiny.PlantedCombos*tiny.Hits > 10 && tiny.PlantedCombos > 1 {
		t.Fatal("Scaled left an infeasible combo count")
	}
}

func TestRegistry(t *testing.T) {
	specs := FourHitCancers()
	if len(specs) != 11 {
		t.Fatalf("registry has %d four-hit cancers, want 11", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Code, err)
		}
		if s.Hits != 4 {
			t.Errorf("%s: Hits = %d, want 4", s.Code, s.Hits)
		}
	}
	brca := BRCA()
	if brca.Genes != 19411 || brca.TumorSamples != 911 {
		t.Error("BRCA must match the paper: G=19411, 911 tumor samples")
	}
	lgg := LGG()
	if lgg.TumorSamples != 532 || lgg.NormalSamples != 329 {
		t.Error("LGG must match the paper: 532 tumor / 329 normal samples")
	}
	if len(lgg.Profiled) != 4 {
		t.Error("LGG should profile the four genes of its top combination")
	}
	acc := ACC()
	for _, s := range specs {
		if s.Code != "ACC" && s.TumorSamples < acc.TumorSamples {
			t.Errorf("%s smaller than ACC — ACC must be the smallest dataset", s.Code)
		}
	}
}

func TestByCode(t *testing.T) {
	if s, err := ByCode("BRCA"); err != nil || s.Code != "BRCA" {
		t.Fatalf("ByCode(BRCA) = %v, %v", s.Code, err)
	}
	if s, err := ByCode("LGG"); err != nil || s.Code != "LGG" {
		t.Fatalf("ByCode(LGG) = %v, %v", s.Code, err)
	}
	if _, err := ByCode("NOPE"); err == nil {
		t.Fatal("ByCode accepted an unknown code")
	}
}

// TestByCodeSpecIsOwnCopy mutates the specs ByCode, LGG and
// FourHitCancers return, and requires the next lookups to see the
// registry's values.
func TestByCodeSpecIsOwnCopy(t *testing.T) {
	a, err := ByCode("LGG")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Profiled) == 0 {
		t.Fatal("LGG has no profiled genes")
	}
	sym, codons := a.Profiled[0].Symbol, a.Profiled[0].Codons
	a.Profiled[0].Symbol, a.Profiled[0].Codons = "MUTATED", -1
	a.Profiled = append(a.Profiled[:1], ProfiledGene{Symbol: "EXTRA"})
	a.Genes = 7
	LGG().Profiled[0].Symbol = "MUTATED"
	for _, s := range FourHitCancers() {
		if s.Code == "LGG" {
			s.Profiled[0].Codons = -2
		}
	}
	b, err := ByCode("LGG")
	if err != nil {
		t.Fatal(err)
	}
	if b.Genes == 7 || len(b.Profiled) != 4 || b.Profiled[0].Symbol != sym || b.Profiled[0].Codons != codons ||
		b.Profiled[1].Symbol == "EXTRA" {
		t.Fatalf("a mutated copy leaked into the registry: LGG is now %+v", b)
	}
}

func TestSplitSizes(t *testing.T) {
	c, err := Generate(small(), 11)
	if err != nil {
		t.Fatal(err)
	}
	train, test := c.Split(0.75, 42)
	if train.Nt()+test.Nt() != c.Nt() {
		t.Fatal("tumor samples lost in split")
	}
	if train.Nn()+test.Nn() != c.Nn() {
		t.Fatal("normal samples lost in split")
	}
	if train.Nt() != 90 { // 120 * 0.75
		t.Fatalf("train tumors = %d, want 90", train.Nt())
	}
	if train.Nn() != 75 { // 100 * 0.75
		t.Fatalf("train normals = %d, want 75", train.Nn())
	}
	// Barcodes must partition without overlap.
	seen := map[string]bool{}
	for _, b := range append(append([]string{}, train.TumorBarcodes...), test.TumorBarcodes...) {
		if seen[b] {
			t.Fatalf("barcode %s in both splits", b)
		}
		seen[b] = true
	}
}

func TestSplitPreservesColumns(t *testing.T) {
	c, err := Generate(small(), 13)
	if err != nil {
		t.Fatal(err)
	}
	train, test := c.Split(0.75, 1)
	// Reconstruct each original tumor column from whichever split holds it.
	colOf := map[string]int{}
	for s, b := range c.TumorBarcodes {
		colOf[b] = s
	}
	checkSplit := func(part *Cohort) {
		for s, b := range part.TumorBarcodes {
			orig := colOf[b]
			for g := 0; g < c.Tumor.Genes(); g++ {
				if part.Tumor.Get(g, s) != c.Tumor.Get(g, orig) {
					t.Fatalf("split corrupted column %s at gene %d", b, g)
				}
			}
		}
	}
	checkSplit(train)
	checkSplit(test)
}

func TestSplitPanicsOnBadFrac(t *testing.T) {
	c, err := Generate(small(), 17)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Split(1.0) did not panic")
		}
	}()
	c.Split(1.0, 1)
}

func TestProfiledGenesLGG(t *testing.T) {
	lgg := LGG().Scaled(80)
	c, err := Generate(lgg, 3)
	if err != nil {
		t.Fatal(err)
	}
	idh1 := c.GeneID("IDH1")
	muc6 := c.GeneID("MUC6")
	if idh1 < 0 || muc6 < 0 {
		t.Fatal("profiled genes missing from cohort")
	}
	// Both must ride the first planted combination.
	inFirst := func(id int) bool {
		for _, g := range c.Planted[0] {
			if g == id {
				return true
			}
		}
		return false
	}
	if !inFirst(idh1) || !inFirst(muc6) {
		t.Fatal("IDH1/MUC6 not planted in the first combination")
	}
	// IDH1 tumor mutations concentrate at R132; normals carry almost none.
	th := gene.HistogramPositions(c.Mutations, "IDH1", gene.Tumor)
	pos, pct := th.PeakPosition()
	if pos != 132 || pct < 50 {
		t.Fatalf("IDH1 tumor peak = (%d, %.1f%%), want a dominant peak at 132", pos, pct)
	}
	// Normals carry far fewer IDH1 mutations and show no positional
	// hotspot — the Fig. 10 driver signature.
	nh := gene.HistogramPositions(c.Mutations, "IDH1", gene.Normal)
	if nh.Total > th.Total/2 {
		t.Fatalf("IDH1 normal mutations %d vs tumor %d — should be rarer", nh.Total, th.Total)
	}
	if _, npct := nh.PeakPosition(); npct > 30 {
		t.Fatalf("IDH1 normal peak %.1f%% — normals should be flat", npct)
	}
	// MUC6 scatters: no dominant hotspot, and mutations appear in normals.
	mh := gene.HistogramPositions(c.Mutations, "MUC6", gene.Tumor)
	if _, mpct := mh.PeakPosition(); mpct > 25 {
		t.Fatalf("MUC6 tumor peak %.1f%% — passenger gene should be flat", mpct)
	}
	mn := gene.HistogramPositions(c.Mutations, "MUC6", gene.Normal)
	if mn.Total == 0 {
		t.Fatal("MUC6 should mutate in normal samples too")
	}
}

func TestGeneIDUnknown(t *testing.T) {
	c, err := Generate(small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.GeneID("NOSUCHGENE") != -1 {
		t.Fatal("GeneID should return -1 for unknown symbols")
	}
}

func TestMutationsFollowSplit(t *testing.T) {
	lgg := LGG().Scaled(80)
	c, err := Generate(lgg, 19)
	if err != nil {
		t.Fatal(err)
	}
	train, test := c.Split(0.75, 2)
	if len(train.Mutations)+len(test.Mutations) != len(c.Mutations) {
		t.Fatalf("mutations lost: %d + %d != %d",
			len(train.Mutations), len(test.Mutations), len(c.Mutations))
	}
	inTrain := map[string]bool{}
	for _, b := range train.TumorBarcodes {
		inTrain[b] = true
	}
	for _, b := range train.NormalBarcodes {
		inTrain[b] = true
	}
	for _, m := range train.Mutations {
		if !inTrain[m.SampleBarcode] {
			t.Fatalf("train mutation references foreign sample %s", m.SampleBarcode)
		}
	}
}

func TestCohortSaveLoadRoundTrip(t *testing.T) {
	lgg := LGG().Scaled(60)
	lgg.ProfileAll = true
	orig, err := Generate(lgg, 31)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Tumor.Equal(orig.Tumor) || !got.Normal.Equal(orig.Normal) {
		t.Fatal("matrices changed in round trip")
	}
	if len(got.GeneSymbols) != len(orig.GeneSymbols) ||
		got.GeneSymbols[0] != orig.GeneSymbols[0] {
		t.Fatal("gene symbols changed")
	}
	if len(got.Planted) != len(orig.Planted) {
		t.Fatal("planted truth changed")
	}
	if len(got.Mutations) != len(orig.Mutations) {
		t.Fatal("mutation records changed")
	}
	if got.Spec.Code != "LGG" || got.Spec.DriverMutProb != orig.Spec.DriverMutProb {
		t.Fatal("spec changed")
	}
	if got.TumorBarcodes[5] != orig.TumorBarcodes[5] {
		t.Fatal("barcodes changed")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	c, err := Generate(small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cases := map[string][]byte{
		"garbage":        []byte("not a cohort at all"),
		"truncated":      raw[:len(raw)/2],
		"bad magic":      append([]byte("COHORTX"), raw[7:]...),
		"version tamper": bytes.Replace(raw, []byte(`"version":1`), []byte(`"version":9`), 1),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Load accepted corrupt input", name)
		}
	}
}
