// Package dataset generates and manipulates synthetic TCGA-like cohorts for
// the multi-hit reproduction.
//
// The paper consumes somatic mutation calls (Mutect2 MAF files) for 31 TCGA
// cancer types, 11 of which were previously estimated to require four or
// more hits. That data is access-controlled, so this package substitutes a
// parameterized generator that preserves the structure the algorithm and its
// evaluation depend on:
//
//   - tumor samples carry a planted h-hit driver combination (each gene of
//     the assigned combination mutated with high probability) plus sparse
//     passenger background;
//   - normal samples carry background only, except for a "noisy" fraction
//     with elevated mutation burden that produces the false positives behind
//     the paper's ~90% (not 100%) specificity;
//   - designated profiled genes emit MAF-like per-mutation amino-acid
//     positions, with hotspot genes (IDH1 R132) concentrating tumor
//     mutations at one codon while passenger genes (MUC6) scatter uniformly.
//
// Cohort sample counts for the named cancer types follow the numbers the
// paper states (BRCA: 911 tumors; LGG: 532 tumors / 329 normals; ACC is the
// smallest); counts the paper does not state are plausible TCGA-scale
// values.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/bitmat"
	"repro/internal/gene"
)

// ProfiledGene describes a gene for which the generator emits MAF-like
// mutation records with amino-acid positions.
type ProfiledGene struct {
	// Symbol is the gene symbol, e.g. "IDH1".
	Symbol string
	// Codons is the protein length in amino acids.
	Codons int
	// HotspotPos, when non-zero, is the codon at which tumor mutations
	// concentrate.
	HotspotPos int
	// HotspotFrac is the fraction of tumor mutations landing on HotspotPos.
	HotspotFrac float64
	// InFirstCombo forces the gene into the first planted combination, so
	// the discovery pipeline surfaces it (IDH1 appears in LGG's top 4-hit
	// combination in the paper).
	InFirstCombo bool
	// ExtraBackground is an additional per-sample mutation rate applied to
	// this gene in both classes, on top of the cohort background. Large
	// passenger genes like MUC6 mutate frequently in tumor and normal
	// tissue alike; this is what makes their Fig. 10 profiles flat and
	// class-symmetric.
	ExtraBackground float64
}

// Spec parameterizes one synthetic cancer-type cohort.
type Spec struct {
	// Code is the TCGA study abbreviation, e.g. "BRCA".
	Code string
	// Name is the long cancer-type name.
	Name string
	// Genes is the number of genes G (matrix rows).
	Genes int
	// TumorSamples and NormalSamples are the cohort sizes Nt and Nn.
	TumorSamples  int
	NormalSamples int
	// Hits is the estimated number of hits h for this cancer type.
	Hits int
	// PlantedCombos is the number of driver combinations planted.
	PlantedCombos int
	// DriverMutProb is the probability that a tumor sample carries its
	// assigned driver combination in full; otherwise it carries only two
	// of the combination's genes (a partial carrier, usually uncoverable
	// at h = 4). This is the knob that sets classifier sensitivity.
	DriverMutProb float64
	// TumorBackground and NormalBackground are per-gene passenger mutation
	// rates.
	TumorBackground  float64
	NormalBackground float64
	// NoisyNormalFrac is the fraction of normal samples with elevated
	// mutation burden; NoisyNormalRate is their per-driver-gene rate.
	NoisyNormalFrac float64
	NoisyNormalRate float64
	// FirstComboWeight scales the first planted combination's popularity
	// relative to the default decay (0 means 1.0). Cohorts whose top
	// combination is a named anchor (LGG's IDH1 combination) use it to
	// make the anchor decisively the greedy's first pick.
	FirstComboWeight float64
	// Profiled lists genes that emit positional mutation records.
	Profiled []ProfiledGene
	// ProfileAll emits positional records for every gene, not just the
	// Profiled list: driver-path mutations land on a per-gene hotspot
	// codon, passenger/background mutations scatter uniformly. This feeds
	// the mutation-level analysis of Sec. V (searching combinations of
	// specific mutations instead of genes with mutations).
	ProfileAll bool
}

// Validate reports the first structural problem with the spec, or nil.
func (s Spec) Validate() error {
	switch {
	case s.Genes <= 0:
		return fmt.Errorf("dataset %s: Genes must be positive, got %d", s.Code, s.Genes)
	case s.TumorSamples <= 0:
		return fmt.Errorf("dataset %s: TumorSamples must be positive, got %d", s.Code, s.TumorSamples)
	case s.NormalSamples <= 0:
		return fmt.Errorf("dataset %s: NormalSamples must be positive, got %d", s.Code, s.NormalSamples)
	case s.Hits < 2 || s.Hits > 5:
		return fmt.Errorf("dataset %s: Hits must be in [2,5], got %d", s.Code, s.Hits)
	case s.PlantedCombos <= 0:
		return fmt.Errorf("dataset %s: PlantedCombos must be positive, got %d", s.Code, s.PlantedCombos)
	case s.PlantedCombos*s.Hits > s.Genes:
		return fmt.Errorf("dataset %s: %d disjoint %d-hit combos need %d genes, have %d",
			s.Code, s.PlantedCombos, s.Hits, s.PlantedCombos*s.Hits, s.Genes)
	case s.DriverMutProb <= 0 || s.DriverMutProb > 1:
		return fmt.Errorf("dataset %s: DriverMutProb out of (0,1]: %g", s.Code, s.DriverMutProb)
	}
	return nil
}

// Scaled returns a copy of the spec with the gene universe resized to g,
// keeping cohort sizes and rates. Experiments that actually enumerate
// C(G, h) combinations on a CPU use scaled-down universes; experiments that
// only need workload arithmetic (scheduling, the cluster model) use the
// paper-scale G.
func (s Spec) Scaled(g int) Spec {
	out := s
	out.Genes = g
	for out.PlantedCombos*out.Hits > g && out.PlantedCombos > 1 {
		out.PlantedCombos--
	}
	return out
}

// Cohort is one generated cancer-type dataset.
type Cohort struct {
	// Spec records the generation parameters.
	Spec Spec
	// GeneSymbols maps gene id → symbol.
	GeneSymbols []string
	// Tumor and Normal are the bit-packed gene×sample matrices.
	Tumor  *bitmat.Matrix
	Normal *bitmat.Matrix
	// TumorBarcodes and NormalBarcodes label the matrix columns.
	TumorBarcodes  []string
	NormalBarcodes []string
	// Planted holds the ground-truth driver combinations (sorted gene ids).
	Planted [][]int
	// Mutations holds MAF-like records for the spec's profiled genes.
	Mutations []gene.Mutation
}

// Nt returns the number of tumor samples.
func (c *Cohort) Nt() int { return c.Tumor.Samples() }

// Nn returns the number of normal samples.
func (c *Cohort) Nn() int { return c.Normal.Samples() }

// Generate builds a cohort from the spec with a deterministic seed.
func Generate(spec Spec, seed int64) (*Cohort, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// src replays rand.NewSource(seed)'s stream and rng draws from it.
	// The background mutations, one rng.Float64() < rate per gene and
	// sample, are drawn a sample at a time into draws and compared as
	// integers against below(rate).
	src := newLagSource(seed)
	rng := rand.New(src)
	draws := make([]uint64, spec.Genes)
	tumorBackground := below(spec.TumorBackground)
	normalBackground, noisyNormalRate := below(spec.NormalBackground), below(spec.NoisyNormalRate)
	c := &Cohort{
		Spec:        spec,
		GeneSymbols: make([]string, spec.Genes),
		Tumor:       bitmat.New(spec.Genes, spec.TumorSamples),
		Normal:      bitmat.New(spec.Genes, spec.NormalSamples),

		TumorBarcodes:  gene.Barcodes(spec.Code, gene.Tumor, spec.TumorSamples),
		NormalBarcodes: gene.Barcodes(spec.Code, gene.Normal, spec.NormalSamples),
	}
	placeholderSymbols(c.GeneSymbols)

	// Assign profiled genes to fixed ids (after the shuffle-free naming so
	// ids stay deterministic): profiled genes take the highest ids, except
	// those forced into the first planted combination.
	profiledID := map[string]int{}
	nextHigh := spec.Genes - 1
	for _, p := range spec.Profiled {
		if p.InFirstCombo {
			continue
		}
		profiledID[p.Symbol] = nextHigh
		c.GeneSymbols[nextHigh] = p.Symbol
		nextHigh--
	}

	// Plant disjoint driver combinations over a shuffled driver pool drawn
	// from the low ids (excluding the high ids just reserved).
	pool := rng.Perm(nextHigh + 1)
	idx := 0
	for n := 0; n < spec.PlantedCombos; n++ {
		combo := make([]int, spec.Hits)
		copy(combo, pool[idx:idx+spec.Hits])
		idx += spec.Hits
		sort.Ints(combo)
		c.Planted = append(c.Planted, combo)
	}
	// Force-in profiled genes that must ride the first combination.
	slot := 0
	for _, p := range spec.Profiled {
		if !p.InFirstCombo {
			continue
		}
		if slot >= spec.Hits {
			return nil, fmt.Errorf("dataset %s: more InFirstCombo genes than hits", spec.Code)
		}
		id := c.Planted[0][slot]
		profiledID[p.Symbol] = id
		c.GeneSymbols[id] = p.Symbol
		slot++
	}

	// Combination popularity: mildly decaying weights so the greedy cover
	// peels combinations in a realistic big-to-small order while every
	// combination keeps enough carriers for its F score to beat clean
	// zero-TP noise combinations (0.1·TP must exceed the training FP the
	// noisy normals induce — see the α discussion in Sec. II-B).
	weights := make([]float64, spec.PlantedCombos)
	totalW := 0.0
	for i := range weights {
		weights[i] = 1 / (1 + 0.15*float64(i))
		if i == 0 && spec.FirstComboWeight > 0 {
			weights[i] *= spec.FirstComboWeight
		}
		totalW += weights[i]
	}
	pickCombo := func() int {
		r := rng.Float64() * totalW
		for i, w := range weights {
			if r < w {
				return i
			}
			r -= w
		}
		return spec.PlantedCombos - 1
	}

	// Tumor samples: assigned driver combination (full or partial) plus
	// passenger background. Bits set through the driver path are recorded
	// so ProfileAll can place them on hotspot codons.
	var driverBit map[int]bool
	if spec.ProfileAll {
		driverBit = map[int]bool{}
	}
	markDriver := func(g, s int) {
		c.Tumor.Set(g, s)
		if driverBit != nil {
			driverBit[g*spec.TumorSamples+s] = true
		}
	}
	for s := 0; s < spec.TumorSamples; s++ {
		combo := c.Planted[pickCombo()]
		if rng.Float64() < spec.DriverMutProb {
			for _, g := range combo {
				markDriver(g, s)
			}
		} else {
			perm := rng.Perm(len(combo))
			for _, idx := range perm[:2] {
				markDriver(combo[idx], s)
			}
		}
		src.draws(draws)
		for g, x := range draws {
			if x < tumorBackground {
				c.Tumor.Set(g, s)
			}
		}
	}

	// Normal samples: background, with a noisy subpopulation whose driver-
	// pool genes mutate at an elevated rate.
	driverPool := make([]bool, spec.Genes)
	for _, combo := range c.Planted {
		for _, g := range combo {
			driverPool[g] = true
		}
	}
	for s := 0; s < spec.NormalSamples; s++ {
		noisy := rng.Float64() < spec.NoisyNormalFrac
		src.draws(draws)
		for g, x := range draws {
			rate := normalBackground
			if noisy && driverPool[g] {
				rate = noisyNormalRate
			}
			if x < rate {
				c.Normal.Set(g, s)
			}
		}
	}

	// Positional mutation records for profiled genes, after applying any
	// per-gene extra background so the records reflect the final matrices.
	for _, p := range spec.Profiled {
		id, ok := profiledID[p.Symbol]
		if !ok {
			continue
		}
		if p.ExtraBackground > 0 {
			for s := 0; s < spec.TumorSamples; s++ {
				if rng.Float64() < p.ExtraBackground {
					c.Tumor.Set(id, s)
				}
			}
			for s := 0; s < spec.NormalSamples; s++ {
				if rng.Float64() < p.ExtraBackground {
					c.Normal.Set(id, s)
				}
			}
		}
		emit := func(m *bitmat.Matrix, barcodes []string, class gene.SampleClass) {
			for s := 0; s < m.Samples(); s++ {
				if !m.Get(id, s) {
					continue
				}
				pos := 1 + rng.Intn(p.Codons)
				if class == gene.Tumor && p.HotspotPos > 0 && rng.Float64() < p.HotspotFrac {
					pos = p.HotspotPos
				}
				c.Mutations = append(c.Mutations, gene.Mutation{
					GeneSymbol:    p.Symbol,
					SampleBarcode: barcodes[s],
					Class:         class,
					Position:      pos,
				})
			}
		}
		emit(c.Tumor, c.TumorBarcodes, gene.Tumor)
		emit(c.Normal, c.NormalBarcodes, gene.Normal)
	}

	// ProfileAll: positional records for every remaining gene. Driver-path
	// bits concentrate on a per-gene hotspot codon (drivers recur at the
	// same site); background and normal mutations scatter uniformly.
	if spec.ProfileAll {
		explicit := map[string]bool{}
		for _, p := range spec.Profiled {
			explicit[p.Symbol] = true
		}
		const hotspotFrac = 0.85
		for g := 0; g < spec.Genes; g++ {
			symbol := c.GeneSymbols[g]
			if explicit[symbol] {
				continue
			}
			codons := 200 + rng.Intn(1800)
			hotspot := 1 + rng.Intn(codons)
			for s := 0; s < spec.TumorSamples; s++ {
				if !c.Tumor.Get(g, s) {
					continue
				}
				pos := 1 + rng.Intn(codons)
				if driverBit[g*spec.TumorSamples+s] && rng.Float64() < hotspotFrac {
					pos = hotspot
				}
				c.Mutations = append(c.Mutations, gene.Mutation{
					GeneSymbol:    symbol,
					SampleBarcode: c.TumorBarcodes[s],
					Class:         gene.Tumor,
					Position:      pos,
				})
			}
			for s := 0; s < spec.NormalSamples; s++ {
				if !c.Normal.Get(g, s) {
					continue
				}
				c.Mutations = append(c.Mutations, gene.Mutation{
					GeneSymbol:    symbol,
					SampleBarcode: c.NormalBarcodes[s],
					Class:         gene.Normal,
					Position:      1 + rng.Intn(codons),
				})
			}
		}
	}
	return c, nil
}

// GeneID returns the id for a gene symbol, or -1 if absent.
func (c *Cohort) GeneID(symbol string) int {
	for id, s := range c.GeneSymbols {
		if s == symbol {
			return id
		}
	}
	return -1
}

// Split partitions the cohort's samples into a training cohort with
// approximately trainFrac of each class and a test cohort with the rest,
// using a deterministic shuffle. Mutation records follow their samples.
func (c *Cohort) Split(trainFrac float64, seed int64) (train, test *Cohort) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("dataset: trainFrac must be in (0,1), got %g", trainFrac))
	}
	rng := rand.New(rand.NewSource(seed))
	tumorTrain := pickSet(rng, c.Nt(), trainFrac)
	normalTrain := pickSet(rng, c.Nn(), trainFrac)

	train = c.subset(tumorTrain, normalTrain, true)
	test = c.subset(tumorTrain, normalTrain, false)
	return train, test
}

// placeholderSymbols names gene g "G%05d" in syms[g], every name cut from
// one string.
func placeholderSymbols(syms []string) {
	var buf []byte
	for g := range syms {
		buf = append(buf, 'G')
		for x := max(g, 1); x < 10000; x *= 10 {
			buf = append(buf, '0')
		}
		buf = strconv.AppendInt(buf, int64(g), 10)
	}
	all := string(buf)
	for g := range syms {
		l := len("G00000")
		for x := g / 100000; x > 0; x /= 10 {
			l++
		}
		syms[g], all = all[:l], all[l:]
	}
}

// pickSet returns a membership mask selecting round(n·frac) indices.
func pickSet(rng *rand.Rand, n int, frac float64) []bool {
	k := int(float64(n)*frac + 0.5)
	perm := rng.Perm(n)
	mask := make([]bool, n)
	for _, i := range perm[:k] {
		mask[i] = true
	}
	return mask
}

// subset extracts the samples where mask membership equals keep.
func (c *Cohort) subset(tumorMask, normalMask []bool, keep bool) *Cohort {
	out := &Cohort{
		Spec:        c.Spec,
		GeneSymbols: c.GeneSymbols,
		Planted:     c.Planted,
	}
	selectCols := func(m *bitmat.Matrix, barcodes []string, mask []bool) (*bitmat.Matrix, []string) {
		remove := bitmat.NewVec(m.Samples())
		var kept []string
		for s := 0; s < m.Samples(); s++ {
			if mask[s] == keep {
				kept = append(kept, barcodes[s])
			} else {
				remove.Set(s)
			}
		}
		return m.Splice(remove), kept
	}
	out.Tumor, out.TumorBarcodes = selectCols(c.Tumor, c.TumorBarcodes, tumorMask)
	out.Normal, out.NormalBarcodes = selectCols(c.Normal, c.NormalBarcodes, normalMask)

	want := map[string]bool{}
	for _, b := range out.TumorBarcodes {
		want[b] = true
	}
	for _, b := range out.NormalBarcodes {
		want[b] = true
	}
	for _, m := range c.Mutations {
		if want[m.SampleBarcode] {
			out.Mutations = append(out.Mutations, m)
		}
	}
	out.Spec.TumorSamples = out.Tumor.Samples()
	out.Spec.NormalSamples = out.Normal.Samples()
	return out
}
