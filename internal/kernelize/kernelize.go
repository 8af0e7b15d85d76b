// Package kernelize shrinks a multi-hit instance before enumeration.
// Every gene removed from G pays off combinatorially — the h=4 domain is
// C(G, 4) — so the reductions run once up front and the enumeration
// scans the smaller instance.
// docs/KERNELIZATION.md gives the safety arguments in full; the short
// form of each reduction:
//
//   - Duplicate-column dedup: two sample columns identical across every
//     gene row are covered by exactly the same combinations forever, so
//     they merge into one column with a multiplicity weight
//     (bitmat.DedupColumns / bitmat.Weights). Weighted counts on the
//     deduped instance equal plain counts on the original exactly.
//
//   - Dominated-gene elimination: gene a is dropped iff at least `hits`
//     SURVIVING genes b < a dominate it — tumor(a) ⊆ tumor(b) and
//     normal(a) ⊇ normal(b). Any combination containing a has at most
//     hits−1 other genes, so some dominator b sits outside it; swapping
//     a → b never lowers F and strictly improves the lexicographic
//     tie-break (b < a), so the full-domain argmax under the engine's
//     total order (higher F, ties to the smaller tuple) never contains a
//     dropped gene. Requiring `hits` dominators is what makes the rule
//     sound under fixed-size combinations: with fewer, the swap target
//     could already occupy a slot of the combination.
//
// Both reductions preserve the winning combination BIT-IDENTICALLY, not
// just its F score; the engine's differential tests pin that.
package kernelize

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/reduce"
)

// Kernel is the outcome of a reduction pass: the shrunken matrices plus
// everything needed to map results back to the original instance.
type Kernel struct {
	// Genes is the ORIGINAL gene count.
	Genes int
	// Keep lists, ascending, the original gene id of each surviving row;
	// len(Keep) == Tumor.Genes().
	Keep []int
	// Tumor and Normal are the reduced matrices: rows selected by Keep,
	// duplicate columns merged.
	Tumor, Normal *bitmat.Matrix
	// TumorWeights / NormalWeights carry the merged columns'
	// multiplicities; nil when that side had no duplicates (all weights 1).
	TumorWeights, NormalWeights *bitmat.Weights
	// TumorCols / NormalCols give each surviving column's original index;
	// nil when that side had no duplicates.
	TumorCols, NormalCols []int
}

// Reduce runs both reductions — column dedup, then dominated-gene
// elimination on the deduped instance — and returns the kernel. The
// inputs are never modified.
func Reduce(tumor, normal *bitmat.Matrix, hits int) (*Kernel, error) {
	k, err := reduceCols(tumor, normal, hits)
	if err != nil {
		return nil, err
	}
	k.dropDominated(hits)
	return k, nil
}

// ReduceGenes runs only the dominated-gene elimination, keeping the
// sample axes (and therefore all counts) unweighted. Its one user is
// simscale's -kernelize estimate, which needs only the surviving gene
// count to price a workload; the engine and the cluster scan Reduce's
// kernel.
func ReduceGenes(tumor, normal *bitmat.Matrix, hits int) (*Kernel, error) {
	k := &Kernel{Genes: tumor.Genes(), Tumor: tumor, Normal: normal}
	if err := k.validate(tumor, normal, hits); err != nil {
		return nil, err
	}
	k.dropDominated(hits)
	return k, nil
}

func (k *Kernel) validate(tumor, normal *bitmat.Matrix, hits int) error {
	if tumor.Genes() != normal.Genes() {
		return fmt.Errorf("kernelize: tumor has %d genes, normal has %d",
			tumor.Genes(), normal.Genes())
	}
	if hits < 2 {
		return fmt.Errorf("kernelize: hits must be ≥ 2, got %d", hits)
	}
	if tumor.Genes() < hits {
		return fmt.Errorf("kernelize: %d genes cannot form %d-hit combinations",
			tumor.Genes(), hits)
	}
	return nil
}

// reduceCols builds a kernel with both sample axes deduped and the full
// gene set. A side's dedup is adopted only when it at least halves the
// column count: weighted popcounts pay one AND+popcount per multiplicity
// bit plane, so a marginal merge makes every score MORE expensive than
// scanning the duplicates plainly. Halving is the approximate break-even
// for the h=4 fold. The guard is a pure function of the input matrices,
// so a resumed leg rebuilds the identical kernel (same fingerprint).
func reduceCols(tumor, normal *bitmat.Matrix, hits int) (*Kernel, error) {
	k := &Kernel{Genes: tumor.Genes()}
	if err := k.validate(tumor, normal, hits); err != nil {
		return nil, err
	}
	dt, tCols, tMult := bitmat.DedupColumns(tumor)
	if tCols != nil && dt.Samples()*2 <= tumor.Samples() {
		k.TumorCols = tCols
		k.TumorWeights = bitmat.NewWeights(tMult)
	} else {
		dt = tumor
	}
	dn, nCols, nMult := bitmat.DedupColumns(normal)
	if nCols != nil && dn.Samples()*2 <= normal.Samples() {
		k.NormalCols = nCols
		k.NormalWeights = bitmat.NewWeights(nMult)
	} else {
		dn = normal
	}
	k.Tumor, k.Normal = dt, dn
	return k, nil
}

// dropDominated applies the dominated-gene rule to the kernel's current
// matrices and fills Keep. One ascending pass suffices: a gene is dropped
// only against smaller-indexed genes that themselves survived, so
// soundness composes by induction over the drops.
func (k *Kernel) dropDominated(hits int) {
	t, n := k.Tumor, k.Normal
	g := t.Genes()
	tpop := make([]int, g)
	npop := make([]int, g)
	for i := 0; i < g; i++ {
		tpop[i] = t.RowPopCount(i)
		npop[i] = n.RowPopCount(i)
	}
	keep := make([]int, 0, g)
	dropped := 0
	for a := 0; a < g; a++ {
		dominators := 0
		// Only surviving smaller-indexed genes count; popcount filters
		// reject most candidates before the word-level subset sweeps.
		for _, b := range keep {
			if tpop[b] < tpop[a] || npop[b] > npop[a] {
				continue
			}
			if kernelSubset(t.Row(a), t.Row(b)) && kernelSubset(n.Row(b), n.Row(a)) {
				dominators++
				if dominators == hits {
					break
				}
			}
		}
		if dominators >= hits {
			dropped++
			continue
		}
		keep = append(keep, a)
	}
	k.Keep = keep
	if dropped > 0 {
		k.Tumor = t.SelectRows(keep)
		k.Normal = n.SelectRows(keep)
	}
}

// kernelSubset reports a ⊆ b over equal-length packed rows. It is the
// dominance test's hot path and allocates nothing (the allocfree analyzer
// pins that).
func kernelSubset(a, b []uint64) bool {
	for w := range a {
		if a[w]&^b[w] != 0 {
			return false
		}
	}
	return true
}

// DroppedGenes returns how many genes the reduction removed.
func (k *Kernel) DroppedGenes() int { return k.Genes - len(k.Keep) }

// RemapCombo translates a combination found on the kernel back to
// original gene ids through Keep. Keep is ascending, so the remap
// preserves both the strict order inside a combination and the
// lexicographic order between combinations.
func (k *Kernel) RemapCombo(c reduce.Combo) reduce.Combo {
	for i, g := range c.Genes {
		if g >= 0 {
			c.Genes[i] = int32(k.Keep[g])
		}
	}
	return c
}

// MapActive projects an original-width active-sample mask onto the
// kernel's tumor columns. Duplicate columns are always covered together
// (they are identical in every gene row), so the representative's bit
// carries the whole group and weighted popcounts on the projection equal
// plain popcounts on the original mask.
func (k *Kernel) MapActive(orig *bitmat.Vec) *bitmat.Vec {
	if k.TumorCols == nil {
		return orig.Clone()
	}
	out := bitmat.NewVec(k.Tumor.Samples())
	for j, src := range k.TumorCols {
		if orig.Get(src) {
			out.Set(j)
		}
	}
	return out
}

// Fingerprint hashes everything that defines the kernel — original gene
// count, surviving rows and columns, multiplicities (via the reduced
// matrices' contents) — so checkpoints can verify that a resumed leg
// rebuilt the exact same kernel before continuing bit-identically.
func (k *Kernel) Fingerprint() uint64 {
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
	mix(uint64(k.Genes))
	mix(uint64(len(k.Keep)))
	for _, g := range k.Keep {
		mix(uint64(g))
	}
	mixCols := func(cols []int) {
		mix(uint64(len(cols)))
		for _, c := range cols {
			mix(uint64(c))
		}
	}
	mixCols(k.TumorCols)
	mixCols(k.NormalCols)
	mix(k.Tumor.Fingerprint())
	mix(k.Normal.Fingerprint())
	return h
}
