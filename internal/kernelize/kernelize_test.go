package kernelize

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/reduce"
)

// mat builds a matrix from per-gene sample lists.
func mat(t *testing.T, samples int, rows ...[]int) *bitmat.Matrix {
	t.Helper()
	m := bitmat.New(len(rows), samples)
	for g, row := range rows {
		for _, s := range row {
			m.Set(g, s)
		}
	}
	return m
}

// TestDominanceTable pins the ≥hits-dominators rule on hand-built
// instances, including the twin-gene cases that make the naive "one
// dominator suffices" rule unsound.
func TestDominanceTable(t *testing.T) {
	cases := []struct {
		name    string
		hits    int
		tumor   [][]int // per-gene tumor samples
		normal  [][]int // per-gene normal samples
		dropped []int
	}{
		{
			// Two identical genes at h=2: gene 1 has only ONE smaller
			// dominator, and a combination {0, 1} exists in which no
			// dominator sits outside — neither gene may drop.
			name:    "twins_survive",
			hits:    2,
			tumor:   [][]int{{0, 1}, {0, 1}, {2}},
			normal:  [][]int{{}, {}, {}},
			dropped: nil,
		},
		{
			// Three identical genes at h=2: gene 2 has two surviving
			// smaller dominators, so any combination containing it has a
			// dominator outside — it drops. Gene 1 still survives.
			name:    "triplet_third_drops",
			hits:    2,
			tumor:   [][]int{{0, 1}, {0, 1}, {0, 1}, {2}},
			normal:  [][]int{{}, {}, {}, {}},
			dropped: []int{2},
		},
		{
			// Strict domination at h=2: gene 2's tumor set is a strict
			// subset of genes 0 and 1, and its normal set a strict
			// superset — two dominators, drop.
			name:    "strict_subset_drops",
			hits:    2,
			tumor:   [][]int{{0, 1, 2}, {0, 1, 3}, {0, 1}},
			normal:  [][]int{{}, {}, {0}},
			dropped: []int{2},
		},
		{
			// Same instance at h=3: only two dominators < hits, so the
			// dominated gene must survive.
			name:    "needs_hits_dominators",
			hits:    3,
			tumor:   [][]int{{0, 1, 2}, {0, 1, 3}, {0, 1}, {4}},
			normal:  [][]int{{}, {}, {0}, {}},
			dropped: nil,
		},
		{
			// A dropped gene must not count as a dominator for later
			// genes: 0,1,2 identical (2 drops), gene 3 dominated only by
			// the surviving 0 and 1 plus the dropped 2 — still two
			// SURVIVING dominators, so 3 drops too.
			name:    "survivors_count",
			hits:    2,
			tumor:   [][]int{{0, 1}, {0, 1}, {0, 1}, {0}},
			normal:  [][]int{{}, {}, {}, {}},
			dropped: []int{2, 3},
		},
		{
			// Normal-side direction matters: gene 1's tumor equals gene
			// 0's but its normal set is SMALLER — it is not dominated.
			name:    "better_normal_survives",
			hits:    2,
			tumor:   [][]int{{0, 1}, {0, 1}, {2}},
			normal:  [][]int{{0}, {}, {}},
			dropped: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			samples := 8
			tumor := mat(t, samples, tc.tumor...)
			normal := mat(t, samples, tc.normal...)
			kern, err := ReduceGenes(tumor, normal, tc.hits)
			if err != nil {
				t.Fatal(err)
			}
			if kern.DroppedGenes() != len(tc.dropped) {
				t.Fatalf("dropped %d genes, want %v", kern.DroppedGenes(), tc.dropped)
			}
			kept := make(map[int]bool, len(kern.Keep))
			for _, g := range kern.Keep {
				kept[g] = true
			}
			for _, g := range tc.dropped {
				if kept[g] {
					t.Fatalf("gene %d survived, want dropped (Keep=%v)", g, kern.Keep)
				}
			}
			if kern.Tumor.Genes() != tumor.Genes()-len(tc.dropped) {
				t.Fatalf("kernel has %d genes, want %d",
					kern.Tumor.Genes(), tumor.Genes()-len(tc.dropped))
			}
		})
	}
}

// TestReduceDedupsColumns: Reduce merges duplicate sample columns and the
// weights restore original counts.
func TestReduceDedupsColumns(t *testing.T) {
	// Tumor columns: 0≡1≡2 (gene 0 only), 3≡4 (gene 1 only), 5 (both).
	tumor := mat(t, 6, []int{0, 1, 2, 5}, []int{3, 4, 5})
	normal := mat(t, 4, []int{0, 1}, []int{2})
	kern, err := Reduce(tumor, normal, 2)
	if err != nil {
		t.Fatal(err)
	}
	if kern.Tumor.Samples() != 3 {
		t.Fatalf("tumor deduped to %d columns, want 3", kern.Tumor.Samples())
	}
	if kern.TumorWeights == nil || kern.TumorWeights.Total() != 6 {
		t.Fatalf("tumor weights %+v, want total 6", kern.TumorWeights)
	}
	if got, want := kern.TumorWeights.PopVec(kern.Tumor.Row(0)), 4; got != want {
		t.Fatalf("gene 0 weighted tumor pop %d, want %d", got, want)
	}
	// Normal columns 0≡1 (gene 0), 2 (gene 1), 3 (empty) would dedup to
	// 3 — but 3 of 4 is below the halving break-even, so the adoption
	// guard keeps the side plain (no weighted-popcount overhead).
	if kern.Normal.Samples() != 4 || kern.NormalWeights != nil || kern.NormalCols != nil {
		t.Fatalf("marginal normal dedup adopted: %d cols, weights %+v",
			kern.Normal.Samples(), kern.NormalWeights)
	}
}

func TestRemapAndIndex(t *testing.T) {
	// Genes 0,1,2 identical at h=2 → gene 2 drops; kernel ids 0,1,2 map
	// to originals 0,1,3.
	tumor := mat(t, 8, []int{0, 1}, []int{0, 1}, []int{0, 1}, []int{2, 3})
	normal := mat(t, 2, nil, nil, nil, nil)
	kern, err := ReduceGenes(tumor, normal, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(kern.Keep) != 3 || kern.Keep[2] != 3 {
		t.Fatalf("Keep=%v, want [0 1 3]", kern.Keep)
	}
	c := kern.RemapCombo(reduce.NewCombo2(0.5, 1, 2))
	ids := c.GeneIDs()
	if ids[0] != 1 || ids[1] != 3 {
		t.Fatalf("remapped to %v, want [1 3]", ids)
	}
	if c.F != 0.5 { //lint:allow floatcompare exact passthrough of the score
		t.Fatalf("remap changed F to %g", c.F)
	}
	if kern.RemapCombo(reduce.None) != reduce.None {
		t.Fatal("remap of None is not None")
	}
}

func TestMapActive(t *testing.T) {
	// Tumor columns 0≡1 and 2≡3 under both genes; kernel keeps 0 and 2.
	tumor := mat(t, 4, []int{0, 1}, []int{2, 3})
	normal := mat(t, 2, nil, nil)
	kern, err := Reduce(tumor, normal, 2)
	if err != nil {
		t.Fatal(err)
	}
	if kern.Tumor.Samples() != 2 {
		t.Fatalf("kernel width %d, want 2", kern.Tumor.Samples())
	}
	active := bitmat.AllOnes(4)
	// Cover group {2,3} — duplicate columns always flip in lockstep.
	active.Clear(2)
	active.Clear(3)
	ka := kern.MapActive(active)
	if ka.Len() != 2 || !ka.Get(0) || ka.Get(1) {
		t.Fatalf("mapped active got %v/%v over %d", ka.Get(0), ka.Get(1), ka.Len())
	}
}

func TestValidation(t *testing.T) {
	tumor := mat(t, 4, []int{0}, []int{1})
	normal := mat(t, 2, nil, nil)
	if _, err := Reduce(tumor, normal, 3); err == nil {
		t.Fatal("accepted more hits than genes")
	}
	if _, err := Reduce(tumor, normal, 1); err == nil {
		t.Fatal("accepted hits < 2")
	}
	short := mat(t, 4, []int{0})
	if _, err := Reduce(tumor, short, 2); err == nil {
		t.Fatal("accepted mismatched gene counts")
	}
}

// naiveBest scores every h-subset the slow way under the engine's total
// order (higher F, ties to the lexicographically smaller tuple) and
// returns the winner's ids and F. tw/nw are per-column multiplicities
// (nil = unweighted).
func naiveBest(tumor, normal *bitmat.Matrix, hits int, tw, nw []int, alpha, denom float64) ([]int, float64) {
	nn := 0
	if nw == nil {
		nn = normal.Samples()
		nw = make([]int, normal.Samples())
		for j := range nw {
			nw[j] = 1
		}
	} else {
		for _, m := range nw {
			nn += m
		}
	}
	if tw == nil {
		tw = make([]int, tumor.Samples())
		for j := range tw {
			tw[j] = 1
		}
	}
	score := func(ids []int) float64 {
		tp, nh := 0, 0
		for s := 0; s < tumor.Samples(); s++ {
			all := true
			for _, g := range ids {
				if !tumor.Get(g, s) {
					all = false
					break
				}
			}
			if all {
				tp += tw[s]
			}
		}
		for s := 0; s < normal.Samples(); s++ {
			all := true
			for _, g := range ids {
				if !normal.Get(g, s) {
					all = false
					break
				}
			}
			if all {
				nh += nw[s]
			}
		}
		return (alpha*float64(tp) + float64(nn-nh)) / denom
	}
	g := tumor.Genes()
	var bestIDs []int
	bestF := -1.0
	ids := make([]int, hits)
	var walk func(pos, lo int)
	walk = func(pos, lo int) {
		if pos == hits {
			f := score(ids)
			if f > bestF { //lint:allow floatcompare test reference comparator
				bestF = f
				bestIDs = append([]int(nil), ids...)
			}
			return
		}
		for i := lo; i <= g-(hits-pos); i++ {
			ids[pos] = i
			walk(pos+1, i+1)
		}
	}
	walk(0, 0)
	return bestIDs, bestF
}

// FuzzKernelize: on random small instances, the optimal combination of
// the kernelized instance — scored with the multiplicity weights and
// remapped to original gene ids — is bit-identical to the original
// instance's optimum.
func FuzzKernelize(f *testing.F) {
	f.Add(int64(1), 6, 10, 6, uint8(2))
	f.Add(int64(2), 8, 16, 8, uint8(3))
	f.Add(int64(3), 7, 5, 3, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, genes, nt, nn int, hits uint8) {
		h := int(hits)
		if h < 2 || h > 3 {
			return
		}
		if genes < h || genes > 9 || nt < 1 || nt > 24 || nn < 1 || nn > 24 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		tumor := bitmat.New(genes, nt)
		normal := bitmat.New(genes, nn)
		for g := 0; g < genes; g++ {
			for s := 0; s < nt; s++ {
				if rng.Intn(3) == 0 {
					tumor.Set(g, s)
				}
			}
			for s := 0; s < nn; s++ {
				if rng.Intn(4) == 0 {
					normal.Set(g, s)
				}
			}
		}
		const alpha = 0.1
		denom := float64(nt + nn)
		wantIDs, wantF := naiveBest(tumor, normal, h, nil, nil, alpha, denom)

		kern, err := Reduce(tumor, normal, h)
		if err != nil {
			t.Fatal(err)
		}
		var tw, nw []int
		if kern.TumorWeights != nil {
			tw = make([]int, kern.Tumor.Samples())
			for j := range tw {
				tw[j] = kern.TumorWeights.Weight(j)
			}
		}
		if kern.NormalWeights != nil {
			nw = make([]int, kern.Normal.Samples())
			for j := range nw {
				nw[j] = kern.NormalWeights.Weight(j)
			}
		}
		gotKernel, gotF := naiveBest(kern.Tumor, kern.Normal, h, tw, nw, alpha, denom)
		if gotF != wantF { //lint:allow floatcompare identical float expressions must agree exactly
			t.Fatalf("kernel optimum F=%g, original %g", gotF, wantF)
		}
		got := make([]int, len(gotKernel))
		for i, kg := range gotKernel {
			got[i] = kern.Keep[kg]
		}
		for i := range got {
			if got[i] != wantIDs[i] {
				t.Fatalf("kernel winner %v (remapped %v), original %v", gotKernel, got, wantIDs)
			}
		}
	})
}
