package bitmat

import (
	"math/rand"
	"testing"
)

// naiveWeightedPop scores a word mask against per-sample multiplicities
// the slow way: walk every bit.
func naiveWeightedPop(words []uint64, mult []int) int {
	total := 0
	for j, m := range mult {
		if words[j/WordBits]&(1<<(uint(j)%WordBits)) != 0 {
			total += m
		}
	}
	return total
}

func TestWeightsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		mult := make([]int, n)
		for j := range mult {
			mult[j] = 1 + rng.Intn(9)
		}
		w := NewWeights(mult)
		if w.Len() != n {
			t.Fatalf("Len=%d, want %d", w.Len(), n)
		}
		wantTotal := 0
		for j, m := range mult {
			wantTotal += m
			if w.Weight(j) != m {
				t.Fatalf("Weight(%d)=%d, want %d", j, w.Weight(j), m)
			}
		}
		if w.Total() != wantTotal {
			t.Fatalf("Total=%d, want %d", w.Total(), wantTotal)
		}

		words := WordsFor(n)
		vecs := make([][]uint64, 5)
		for i := range vecs {
			vecs[i] = make([]uint64, words)
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					vecs[i][j/WordBits] |= 1 << (uint(j) % WordBits)
				}
			}
		}
		if got, want := w.PopVec(vecs[0]), naiveWeightedPop(vecs[0], mult); got != want {
			t.Fatalf("PopVec=%d, want %d", got, want)
		}
		and := func(vs ...[]uint64) []uint64 {
			out := make([]uint64, words)
			copy(out, vs[0])
			for _, v := range vs[1:] {
				for k := range out {
					out[k] &= v[k]
				}
			}
			return out
		}
		if got, want := w.PopAnd2(vecs[0], vecs[1]), naiveWeightedPop(and(vecs[0], vecs[1]), mult); got != want {
			t.Fatalf("PopAnd2=%d, want %d", got, want)
		}
		if got, want := w.PopAnd3(vecs[0], vecs[1], vecs[2]), naiveWeightedPop(and(vecs[0], vecs[1], vecs[2]), mult); got != want {
			t.Fatalf("PopAnd3=%d, want %d", got, want)
		}
		if got, want := w.PopAnd4(vecs[0], vecs[1], vecs[2], vecs[3]), naiveWeightedPop(and(vecs[0], vecs[1], vecs[2], vecs[3]), mult); got != want {
			t.Fatalf("PopAnd4=%d, want %d", got, want)
		}
		if got, want := w.PopAnd5(vecs[0], vecs[1], vecs[2], vecs[3], vecs[4]), naiveWeightedPop(and(vecs...), mult); got != want {
			t.Fatalf("PopAnd5=%d, want %d", got, want)
		}
	}
}

func TestNewWeightsRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWeights accepted a zero multiplicity")
		}
	}()
	NewWeights([]int{1, 0, 2})
}

// TestDedupColumnsIdentity: a matrix with all-distinct columns comes back
// untouched — same pointer, nil keep, nil multiplicities.
func TestDedupColumnsIdentity(t *testing.T) {
	// Columns carry genes {0}, {1}, {2}, {} — all four distinct.
	m := New(3, 4)
	m.Set(0, 0)
	m.Set(1, 1)
	m.Set(2, 2)
	got, keep, mult := DedupColumns(m)
	if got != m || keep != nil || mult != nil {
		t.Fatalf("distinct columns were rewritten: keep=%v mult=%v", keep, mult)
	}
}

// TestDedupColumnsMerges: duplicate columns collapse to their first
// occurrence with the group size as multiplicity, and weighted popcounts
// on the deduped matrix equal plain popcounts on the original.
func TestDedupColumnsMerges(t *testing.T) {
	// 2 genes × 6 samples; columns by (g0,g1) pattern:
	//   0: (1,0)  1: (1,0)  2: (0,1)  3: (1,0)  4: (0,1)  5: (1,1)
	m := New(2, 6)
	for _, s := range []int{0, 1, 3, 5} {
		m.Set(0, s)
	}
	for _, s := range []int{2, 4, 5} {
		m.Set(1, s)
	}
	orig := m.Clone()
	ded, keep, mult := DedupColumns(m)
	if ded.Samples() != 3 {
		t.Fatalf("deduped to %d columns, want 3", ded.Samples())
	}
	wantKeep := []int{0, 2, 5}
	wantMult := []int{3, 2, 1}
	for i := range wantKeep {
		if keep[i] != wantKeep[i] || mult[i] != wantMult[i] {
			t.Fatalf("keep=%v mult=%v, want %v / %v", keep, mult, wantKeep, wantMult)
		}
	}
	w := NewWeights(mult)
	if w.Total() != orig.Samples() {
		t.Fatalf("weights total %d, want %d", w.Total(), orig.Samples())
	}
	for g := 0; g < 2; g++ {
		if got, want := w.PopVec(ded.Row(g)), orig.RowPopCount(g); got != want {
			t.Fatalf("gene %d: weighted pop %d, want %d", g, got, want)
		}
	}
	if got, want := w.PopAnd2(ded.Row(0), ded.Row(1)), orig.ComboPopCount(0, 1); got != want {
		t.Fatalf("pairwise weighted pop %d, want %d", got, want)
	}
}

// TestDedupColumnsRandomInvariant: on random matrices, every gene subset's
// weighted count on the deduped instance equals the plain count on the
// original.
func TestDedupColumnsRandomInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		genes := 2 + rng.Intn(4) // ComboVec folds at most 5 rows
		samples := 1 + rng.Intn(80)
		m := New(genes, samples)
		for g := 0; g < genes; g++ {
			for s := 0; s < samples; s++ {
				// Coarse density so duplicate columns actually occur.
				if rng.Intn(3) == 0 {
					m.Set(g, s)
				}
			}
		}
		orig := m.Clone()
		ded, keep, mult := DedupColumns(m)
		if keep == nil {
			continue
		}
		w := NewWeights(mult)
		if w.Total() != orig.Samples() {
			t.Fatalf("trial %d: total %d, want %d", trial, w.Total(), orig.Samples())
		}
		buf := make([]uint64, ded.Words())
		obuf := make([]uint64, orig.Words())
		for sub := 1; sub < 1<<genes; sub++ {
			var ids []int
			for g := 0; g < genes; g++ {
				if sub&(1<<g) != 0 {
					ids = append(ids, g)
				}
			}
			ded.ComboVec(buf, ids...)
			orig.ComboVec(obuf, ids...)
			want := 0
			for _, word := range obuf {
				for ; word != 0; word &= word - 1 {
					want++
				}
			}
			if got := w.PopVec(buf); got != want {
				t.Fatalf("trial %d genes %v: weighted %d, plain %d", trial, ids, got, want)
			}
		}
	}
}

// dedupColumnsByGet is the original DedupColumns, which keyed each column
// on a G-bit pattern read with one Get per gene and sample: the oracle for
// the transpose-keyed implementation.
func dedupColumnsByGet(m *Matrix) (*Matrix, []int, []int) {
	s := m.Samples()
	g := m.Genes()
	slots := make(map[string]int, s)
	var keep, mult []int
	buf := make([]byte, (g+7)/8)
	remove := NewVec(s)
	for j := 0; j < s; j++ {
		for b := range buf {
			buf[b] = 0
		}
		for i := 0; i < g; i++ {
			if m.Get(i, j) {
				buf[i>>3] |= 1 << (uint(i) & 7)
			}
		}
		if idx, ok := slots[string(buf)]; ok {
			mult[idx]++
			remove.Set(j)
			continue
		}
		slots[string(buf)] = len(keep)
		keep = append(keep, j)
		mult = append(mult, 1)
	}
	if len(keep) == s {
		return m, nil, nil
	}
	return m.Splice(remove), keep, mult
}

// TestDedupColumnsMatchesGetOracle: on random matrices — gene counts off
// multiples of 8 and 64, sample counts on and off word boundaries, empty
// columns, and matrices whose columns are all one pattern — the
// transpose-keyed DedupColumns keeps the same columns with the same
// multiplicities and splices the same matrix as the Get-keyed original.
func TestDedupColumnsMatchesGetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	geneCounts := []int{1, 3, 7, 8, 9, 63, 64, 65, 130}
	sampleCounts := []int{1, 2, 31, 63, 64, 65, 127, 128, 200}
	for trial := 0; trial < 200; trial++ {
		genes := geneCounts[rng.Intn(len(geneCounts))]
		samples := sampleCounts[rng.Intn(len(sampleCounts))]
		m := New(genes, samples)
		switch trial % 4 {
		case 0: // all duplicates: every column carries one pattern
			for g := 0; g < genes; g++ {
				if rng.Intn(2) == 0 {
					for s := 0; s < samples; s++ {
						m.Set(g, s)
					}
				}
			}
		case 1: // sparse, so empty columns are common
			for g := 0; g < genes; g++ {
				for s := 0; s < samples; s++ {
					if rng.Intn(4*genes) == 0 {
						m.Set(g, s)
					}
				}
			}
		default: // columns drawn from a few patterns, some left empty
			patterns := make([][]int, 1+rng.Intn(6))
			for p := range patterns {
				for g := 0; g < genes; g++ {
					if rng.Intn(3) == 0 {
						patterns[p] = append(patterns[p], g)
					}
				}
			}
			for s := 0; s < samples; s++ {
				if rng.Intn(5) == 0 {
					continue
				}
				for _, g := range patterns[rng.Intn(len(patterns))] {
					m.Set(g, s)
				}
			}
		}
		orig := m.Clone()
		ded, keep, mult := DedupColumns(m)
		want, wantKeep, wantMult := dedupColumnsByGet(orig)
		if !m.Equal(orig) {
			t.Fatalf("trial %d: DedupColumns modified its input", trial)
		}
		if (keep == nil) != (wantKeep == nil) {
			t.Fatalf("trial %d (%dx%d): keep=%v, oracle keep=%v", trial, genes, samples, keep, wantKeep)
		}
		if keep == nil {
			if ded != m {
				t.Fatalf("trial %d: all-distinct columns were copied", trial)
			}
			continue
		}
		if len(keep) != len(wantKeep) || len(mult) != len(wantMult) {
			t.Fatalf("trial %d: kept %d columns, oracle %d", trial, len(keep), len(wantKeep))
		}
		for i := range keep {
			if keep[i] != wantKeep[i] || mult[i] != wantMult[i] {
				t.Fatalf("trial %d: keep=%v mult=%v, oracle %v / %v", trial, keep, mult, wantKeep, wantMult)
			}
		}
		if !ded.Equal(want) {
			t.Fatalf("trial %d: spliced matrix differs from the oracle's", trial)
		}
	}
}

// BenchmarkDedupColumns prices dedup on an ACC-shaped matrix (100 genes,
// 92 samples, low occupancy).
func BenchmarkDedupColumns(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := New(100, 92)
	for g := 0; g < 100; g++ {
		for s := 0; s < 92; s++ {
			if rng.Intn(20) == 0 {
				m.Set(g, s)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DedupColumns(m)
	}
}
