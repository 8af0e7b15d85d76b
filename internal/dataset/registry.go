package dataset

import (
	"fmt"
	"slices"
)

// The registry mirrors the paper's study population. The paper names four
// cohorts and their roles explicitly — BRCA (largest, 911 tumor samples,
// G = 19411, used for all scaling studies), ACC (smallest, used for the
// Fig. 6 utilization profile), ESCA (the 2x2 scheme's worst scaling case)
// and LGG (532 tumor / 329 normal samples, whose top 4-hit combination
// IDH1+MUC6+PABPC3+TAS2R46 anchors the Fig. 10 driver-vs-passenger
// analysis) — and states that 11 cancer types previously estimated to
// require four or more hits were studied. The remaining codes and all
// unstated sample counts are plausible TCGA-scale stand-ins.

// defaultRates returns a Spec pre-filled with the generator's baseline
// noise model; callers override cohort-specific fields.
func defaultRates() Spec {
	return Spec{
		Hits:             4,
		PlantedCombos:    6,
		DriverMutProb:    0.84,
		TumorBackground:  0.010,
		NormalBackground: 0.002,
		NoisyNormalFrac:  0.35,
		NoisyNormalRate:  0.35,
	}
}

// fourHit is the registry's table of the 11 four-hit specs, built once.
// Callers get copies of its entries (Spec.clone), never the entries.
var fourHit = fourHitSpecs()

// FourHitCancers returns the 11 cancer-type specs used for the 4-hit study
// (Fig. 9), in a stable order. The specs are the caller's own.
func FourHitCancers() []Spec {
	out := make([]Spec, len(fourHit))
	for i, s := range fourHit {
		out[i] = s.clone()
	}
	return out
}

// clone returns a copy of s that shares no slice with it.
func (s Spec) clone() Spec {
	s.Profiled = slices.Clone(s.Profiled)
	return s
}

func fourHitSpecs() []Spec {
	mk := func(code, name string, genes, nt, nn int, driverProb float64, combos int) Spec {
		s := defaultRates()
		s.Code, s.Name = code, name
		s.Genes, s.TumorSamples, s.NormalSamples = genes, nt, nn
		s.DriverMutProb = driverProb
		s.PlantedCombos = combos
		return s
	}
	lgg := mk("LGG", "brain lower grade glioma", 19133, 532, 329, 0.86, 5)
	lgg.FirstComboWeight = 2.0
	lgg.Profiled = []ProfiledGene{
		{Symbol: "IDH1", Codons: 414, HotspotPos: 132, HotspotFrac: 0.75, InFirstCombo: true},
		{Symbol: "MUC6", Codons: 2439, InFirstCombo: true, ExtraBackground: 0.06},
		{Symbol: "PABPC3", Codons: 631, InFirstCombo: true},
		{Symbol: "TAS2R46", Codons: 309, InFirstCombo: true},
	}
	return []Spec{
		mk("ACC", "adrenocortical carcinoma", 18739, 92, 85, 0.82, 3),
		mk("BLCA", "bladder urothelial carcinoma", 19548, 412, 300, 0.84, 7),
		mk("COAD", "colon adenocarcinoma", 19804, 406, 350, 0.88, 6),
		mk("ESCA", "esophageal carcinoma", 19212, 184, 150, 0.82, 4),
		mk("GBM", "glioblastoma multiforme", 19361, 390, 300, 0.85, 6),
		mk("HNSC", "head and neck squamous cell carcinoma", 19686, 509, 400, 0.84, 6),
		mk("KIRC", "kidney renal clear cell carcinoma", 19098, 370, 320, 0.90, 5),
		lgg,
		mk("LIHC", "liver hepatocellular carcinoma", 19257, 374, 300, 0.79, 6),
		mk("LUAD", "lung adenocarcinoma", 19873, 566, 480, 0.83, 8),
		mk("STAD", "stomach adenocarcinoma", 19655, 439, 350, 0.82, 7),
	}
}

// BRCA returns the breast invasive carcinoma spec: the paper's largest
// dataset (911 tumor samples, G = 19411), used for every scaling study even
// though BRCA itself was estimated to need only two–three hits.
func BRCA() Spec {
	s := defaultRates()
	s.Code, s.Name = "BRCA", "breast invasive carcinoma"
	s.Genes, s.TumorSamples, s.NormalSamples = 19411, 911, 852
	s.PlantedCombos = 8
	return s
}

// ACC returns the adrenocortical carcinoma spec, the smallest dataset, used
// for the Fig. 6 per-GPU utilization profile.
func ACC() Spec {
	return mustCode("ACC")
}

// LGG returns the brain lower grade glioma spec with its profiled genes.
func LGG() Spec {
	return mustCode("LGG")
}

func mustCode(code string) Spec {
	s, err := ByCode(code)
	if err != nil {
		panic(err)
	}
	return s
}

// ByCode returns the spec with the given TCGA study code (including BRCA),
// or an error listing the known codes. The spec is the caller's own.
func ByCode(code string) (Spec, error) {
	if code == "BRCA" {
		return BRCA(), nil
	}
	known := ""
	for _, s := range fourHit {
		if s.Code == code {
			return s.clone(), nil
		}
		known += " " + s.Code
	}
	return Spec{}, fmt.Errorf("dataset: unknown cancer code %q (known: BRCA%s)", code, known)
}
