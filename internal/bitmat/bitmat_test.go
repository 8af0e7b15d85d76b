package bitmat

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// naiveMatrix is the boolean ground truth the packed matrix is checked
// against.
type naiveMatrix [][]bool

func randomGrid(rng *rand.Rand, genes, samples int, density float64) naiveMatrix {
	grid := make(naiveMatrix, genes)
	for g := range grid {
		grid[g] = make([]bool, samples)
		for s := range grid[g] {
			grid[g][s] = rng.Float64() < density
		}
	}
	return grid
}

func (n naiveMatrix) comboCount(genes ...int) int {
	if len(n) == 0 {
		return 0
	}
	count := 0
	for s := range n[0] {
		all := true
		for _, g := range genes {
			if !n[g][s] {
				all = false
				break
			}
		}
		if all {
			count++
		}
	}
	return count
}

func TestSetGetClear(t *testing.T) {
	m := New(3, 130) // 130 samples → 3 words, 2-bit tail
	m.Set(0, 0)
	m.Set(1, 64)
	m.Set(2, 129)
	if !m.Get(0, 0) || !m.Get(1, 64) || !m.Get(2, 129) {
		t.Fatal("set bits not visible")
	}
	if m.Get(0, 1) || m.Get(1, 63) || m.Get(2, 128) {
		t.Fatal("unset bits read as set")
	}
	m.Clear(1, 64)
	if m.Get(1, 64) {
		t.Fatal("cleared bit still set")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 10)
	for _, fn := range []func(){
		func() { m.Get(2, 0) },
		func() { m.Get(0, 10) },
		func() { m.Set(-1, 0) },
		func() { m.Row(5) },
		func() { m.Row(2) },
		func() { m.Row(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range access")
				}
			}()
			fn()
		}()
	}
}

func TestFromBoolsMatchesGets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grid := randomGrid(rng, 17, 201, 0.3)
	m := FromBools(grid)
	for g := range grid {
		for s := range grid[g] {
			if m.Get(g, s) != grid[g][s] {
				t.Fatalf("bit (%d,%d) mismatch", g, s)
			}
		}
	}
}

func TestComboPopCountAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	grid := randomGrid(rng, 20, 150, 0.4)
	m := FromBools(grid)
	for trial := 0; trial < 200; trial++ {
		h := 1 + rng.Intn(5)
		genes := rng.Perm(20)[:h]
		want := grid.comboCount(genes...)
		if got := m.ComboPopCount(genes...); got != want {
			t.Fatalf("ComboPopCount(%v) = %d, want %d", genes, got, want)
		}
	}
}

func TestAndPopCountVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	grid := randomGrid(rng, 12, 300, 0.25)
	m := FromBools(grid)
	buf := make([]uint64, m.Words())
	for trial := 0; trial < 100; trial++ {
		p := rng.Perm(12)
		a, b, c, d := p[0], p[1], p[2], p[3]
		want := grid.comboCount(a, b, c, d)
		if got := m.AndPopCount4(a, b, c, d); got != want {
			t.Fatalf("AndPopCount4 = %d, want %d", got, want)
		}
		// Prefetched-row path (MemOpt1+2 analogue).
		if got := m.AndPopCountRows([][]uint64{m.Row(a), m.Row(b), m.Row(c)}, d); got != want {
			t.Fatalf("AndPopCountRows = %d, want %d", got, want)
		}
		// Folded-buffer path.
		m.AndInto3(buf, a, b, c)
		if got := m.AndPopCountVec(buf, d); got != want {
			t.Fatalf("AndPopCountVec = %d, want %d", got, want)
		}
		if got := m.ComboVec(buf, a, b, c, d); got != want {
			t.Fatalf("ComboVec = %d, want %d", got, want)
		}
	}
}

func TestAndIntoMatchesPair(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	grid := randomGrid(rng, 8, 100, 0.5)
	m := FromBools(grid)
	buf := make([]uint64, m.Words())
	m.AndInto(buf, 2, 5)
	n := 0
	for _, w := range buf {
		n += popcount(w)
	}
	if want := grid.comboCount(2, 5); n != want {
		t.Fatalf("AndInto popcount = %d, want %d", n, want)
	}
}

func popcount(w uint64) int {
	n := 0
	for w != 0 {
		w &= w - 1
		n++
	}
	return n
}

func TestSpliceAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		genes := 1 + rng.Intn(10)
		samples := 1 + rng.Intn(400)
		grid := randomGrid(rng, genes, samples, 0.35)
		m := FromBools(grid)
		remove := NewVec(samples)
		var keptCols []int
		for s := 0; s < samples; s++ {
			if rng.Float64() < 0.3 {
				remove.Set(s)
			} else {
				keptCols = append(keptCols, s)
			}
		}
		out := m.Splice(remove)
		if out.Samples() != len(keptCols) {
			t.Fatalf("spliced to %d samples, want %d", out.Samples(), len(keptCols))
		}
		for g := 0; g < genes; g++ {
			for newS, oldS := range keptCols {
				if out.Get(g, newS) != grid[g][oldS] {
					t.Fatalf("trial %d: spliced bit (%d,%d) != original (%d,%d)",
						trial, g, newS, g, oldS)
				}
			}
		}
	}
}

func TestSpliceAll(t *testing.T) {
	m := New(4, 70)
	m.Set(0, 5)
	out := m.Splice(AllOnes(70))
	if out.Samples() != 0 || out.Genes() != 4 {
		t.Fatalf("splice-all gave %d×%d", out.Genes(), out.Samples())
	}
}

func TestSpliceNone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	grid := randomGrid(rng, 5, 130, 0.5)
	m := FromBools(grid)
	out := m.Splice(NewVec(130))
	if !out.Equal(m) {
		t.Fatal("splice of empty remove set changed the matrix")
	}
}

func TestSplicePreservesComboCounts(t *testing.T) {
	// Property: for any combination, the count over surviving columns
	// equals the count on the spliced matrix. This is the exact invariant
	// the cover loop relies on after each iteration.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		genes := 4 + rng.Intn(8)
		samples := 1 + rng.Intn(300)
		grid := randomGrid(rng, genes, samples, 0.4)
		m := FromBools(grid)
		remove := NewVec(samples)
		for s := 0; s < samples; s++ {
			if rng.Float64() < 0.4 {
				remove.Set(s)
			}
		}
		spliced := m.Splice(remove)
		p := rng.Perm(genes)
		combo := p[:2+rng.Intn(3)]
		// Count survivors manually.
		want := 0
		for s := 0; s < samples; s++ {
			if remove.Get(s) {
				continue
			}
			all := true
			for _, g := range combo {
				if !grid[g][s] {
					all = false
					break
				}
			}
			if all {
				want++
			}
		}
		return spliced.ComboPopCount(combo...) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestVecOps(t *testing.T) {
	a := NewVec(200)
	b := NewVec(200)
	a.Set(0)
	a.Set(64)
	a.Set(199)
	b.Set(64)
	b.Set(100)
	if a.PopCount() != 3 || b.PopCount() != 2 {
		t.Fatal("popcount wrong")
	}
	c := a.Clone()
	c.And(b)
	if c.PopCount() != 1 || !c.Get(64) {
		t.Fatal("And wrong")
	}
	c = a.Clone()
	c.Or(b)
	if c.PopCount() != 4 {
		t.Fatal("Or wrong")
	}
	c = a.Clone()
	c.AndNot(b)
	if c.PopCount() != 2 || c.Get(64) {
		t.Fatal("AndNot wrong")
	}
}

func TestAllOnesTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 200} {
		v := AllOnes(n)
		if v.PopCount() != n {
			t.Errorf("AllOnes(%d).PopCount() = %d", n, v.PopCount())
		}
	}
}

func TestVecAndPopCount(t *testing.T) {
	v := AllOnes(130)
	words := make([]uint64, len(v.Words()))
	words[0] = 0xFF
	words[2] = ^uint64(0) // only 2 valid bits in tail, but v masks them
	if got := v.AndPopCount(words); got != 8+2 {
		t.Fatalf("AndPopCount = %d, want 10", got)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grid := randomGrid(rng, 23, 307, 0.2)
	m := FromBools(grid)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrix(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatal("round-trip changed the matrix")
	}
}

func TestReadMatrixBadMagic(t *testing.T) {
	if _, err := ReadMatrix(bytes.NewReader([]byte("NOTAMATRIX"))); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadMatrixTruncated(t *testing.T) {
	m := New(4, 100)
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadMatrix(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("expected error for truncated payload")
	}
}

func TestDensity(t *testing.T) {
	m := New(10, 100)
	if m.Density() != 0 {
		t.Fatal("empty matrix density should be 0")
	}
	for s := 0; s < 100; s++ {
		m.Set(0, s)
	}
	if d := m.Density(); d != 0.1 {
		t.Fatalf("density = %g, want 0.1", d)
	}
}

func TestExtractBits(t *testing.T) {
	cases := []struct{ v, mask, want uint64 }{
		{0b1011, 0b1111, 0b1011},
		{0b1011, 0b1010, 0b11},
		{0b1011, 0, 0},
		{^uint64(0), 0x8000000000000001, 0b11},
	}
	for _, c := range cases {
		if got := extractBits(c.v, c.mask); got != c.want {
			t.Errorf("extractBits(%b, %b) = %b, want %b", c.v, c.mask, got, c.want)
		}
	}
}

func BenchmarkAndPopCount4(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	m := FromBools(randomGrid(rng, 64, 911, 0.3)) // BRCA-sized sample dimension
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.AndPopCount4(n%61, n%61+1, n%61+2, n%61+3)
	}
}

func BenchmarkAndPopCountVecPrefolded(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	m := FromBools(randomGrid(rng, 64, 911, 0.3))
	buf := make([]uint64, m.Words())
	m.AndInto3(buf, 0, 1, 2)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.AndPopCountVec(buf, 3+n%60)
	}
}

func BenchmarkSplice(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := FromBools(randomGrid(rng, 2000, 911, 0.3))
	remove := NewVec(911)
	for s := 0; s < 911; s += 3 {
		remove.Set(s)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.Splice(remove)
	}
}

func TestFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grid := randomGrid(rng, 10, 130, 0.3)
	a := FromBools(grid)
	b := FromBools(grid)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical matrices must share a fingerprint")
	}
	c := a.Clone()
	c.Set(9, 129)
	c.Clear(9, 129)
	if c.Fingerprint() != a.Fingerprint() {
		t.Fatal("set+clear must not change the fingerprint")
	}
	c.Set(0, 0)
	if grid[0][0] {
		c.Clear(0, 0)
	}
	if c.Fingerprint() == a.Fingerprint() {
		t.Fatal("a flipped bit must change the fingerprint")
	}
	// Dimension changes alone change the fingerprint.
	if New(3, 5).Fingerprint() == New(5, 3).Fingerprint() {
		t.Fatal("transposed dimensions must differ")
	}
}

func TestFreeFunctionPopcounts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	grid := randomGrid(rng, 6, 200, 0.4)
	m := FromBools(grid)
	a, b, c, d := m.Row(0), m.Row(1), m.Row(2), m.Row(3)
	if got, want := PopAnd2(a, b), grid.comboCount(0, 1); got != want {
		t.Fatalf("PopAnd2 = %d, want %d", got, want)
	}
	if got, want := PopAnd3(a, b, c), grid.comboCount(0, 1, 2); got != want {
		t.Fatalf("PopAnd3 = %d, want %d", got, want)
	}
	if got, want := PopAnd4(a, b, c, d), grid.comboCount(0, 1, 2, 3); got != want {
		t.Fatalf("PopAnd4 = %d, want %d", got, want)
	}
	dst := make([]uint64, len(a))
	AndWords(dst, a, b)
	if got, want := PopAnd2(dst, c), grid.comboCount(0, 1, 2); got != want {
		t.Fatalf("AndWords+PopAnd2 = %d, want %d", got, want)
	}
}

func TestVecClearAndChecks(t *testing.T) {
	v := NewVec(70)
	v.Set(69)
	v.Clear(69)
	if v.Get(69) {
		t.Fatal("cleared vec bit still set")
	}
	for _, fn := range []func(){
		func() { v.Get(70) },
		func() { v.Set(-1) },
		func() { NewVec(-1) },
		func() { New(-1, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestVecOpLengthMismatchPanics(t *testing.T) {
	a, b := NewVec(10), NewVec(20)
	for i, fn := range []func(){
		func() { a.And(b) },
		func() { a.Or(b) },
		func() { a.AndNot(b) },
		func() { a.AndPopCount(make([]uint64, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestEqualDimensionMismatch(t *testing.T) {
	if New(3, 10).Equal(New(3, 11)) || New(3, 10).Equal(New(4, 10)) {
		t.Fatal("Equal ignored dimensions")
	}
	a, b := New(2, 64), New(2, 64)
	a.Set(1, 63)
	if a.Equal(b) {
		t.Fatal("Equal ignored contents")
	}
}

func TestAndPopCountRowsSingleAndPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	grid := randomGrid(rng, 5, 90, 0.5)
	m := FromBools(grid)
	if got, want := m.AndPopCountRows([][]uint64{m.Row(0)}, 1), grid.comboCount(0, 1); got != want {
		t.Fatalf("AndPopCountRows single = %d, want %d", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 4 prefetched rows")
		}
	}()
	m.AndPopCountRows([][]uint64{m.Row(0), m.Row(1), m.Row(2), m.Row(3)}, 4)
}

func TestBufferLengthPanics(t *testing.T) {
	m := New(4, 100)
	short := make([]uint64, 1)
	for i, fn := range []func(){
		func() { m.AndInto(short, 0, 1) },
		func() { m.AndInto3(short, 0, 1, 2) },
		func() { m.ComboVec(short) },
		func() { m.ComboVec(short, 0, 1, 2, 3, 0, 1) },
		func() { m.ComboPopCount() },
		func() { m.Splice(NewVec(5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestAndWordsPopUnrolled pins the unrolled fold to a naive reference on
// lengths straddling every unroll boundary (0..4 remainder tails).
func TestAndWordsPopUnrolled(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, words := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64, 127} {
		a := make([]uint64, words)
		b := make([]uint64, words)
		for i := range a {
			a[i] = rng.Uint64()
			b[i] = rng.Uint64()
		}
		dst := make([]uint64, words)
		got := AndWordsPop(dst, a, b)
		want := 0
		for i := range a {
			v := a[i] & b[i]
			if dst[i] != v {
				t.Fatalf("words=%d: dst[%d] = %#x want %#x", words, i, dst[i], v)
			}
			want += bits.OnesCount64(v)
		}
		if got != want {
			t.Fatalf("words=%d: popcount %d want %d", words, got, want)
		}
	}
}

func TestMatrixPopCount(t *testing.T) {
	m := New(5, 130)
	m.Set(0, 0)
	m.Set(0, 129)
	m.Set(4, 64)
	if got := m.PopCount(); got != 3 {
		t.Fatalf("PopCount = %d want 3", got)
	}
}

// BenchmarkAndWordsPop guards the unroll-by-4 fold — the hot instruction
// of the dense scan path (BENCH_9.json's dense baseline).
func BenchmarkAndWordsPop(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	m := FromBools(randomGrid(rng, 64, 911, 0.3))
	dst := make([]uint64, m.Words())
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		AndWordsPop(dst, m.Row(n%63), m.Row(n%63+1))
	}
}

// TestColumnsTransposesActiveColumns checks Columns, and ColumnsInto
// reusing the previous case's buffers, dirty and of any size.
func TestColumnsTransposesActiveColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var startBuf []int
	var rowsBuf []int32
	for _, samples := range []int{1, 63, 64, 65, 130, 64, 1} {
		m := New(9, samples)
		active := NewVec(samples)
		for s := 0; s < samples; s++ {
			if rng.Intn(3) > 0 {
				active.Set(s)
			}
			for g := 0; g < 9; g++ {
				if rng.Intn(3) == 0 {
					m.Set(g, s)
				}
			}
		}
		start, rows := m.Columns(active.Words())
		startBuf, rowsBuf = m.ColumnsInto(active.Words(), startBuf, rowsBuf)
		if !slices.Equal(startBuf, start) || !slices.Equal(rowsBuf, rows) {
			t.Fatalf("samples=%d: ColumnsInto gave %v %v, Columns %v %v", samples, startBuf, rowsBuf, start, rows)
		}
		if len(start) != samples+1 {
			t.Fatalf("samples=%d: %d offsets", samples, len(start))
		}
		for s := 0; s < samples; s++ {
			var want []int32
			if active.Get(s) {
				for g := 0; g < 9; g++ {
					if m.Get(g, s) {
						want = append(want, int32(g))
					}
				}
			}
			got := rows[start[s]:start[s+1]]
			if len(got) != len(want) {
				t.Fatalf("samples=%d column %d: rows %v, want %v", samples, s, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("samples=%d column %d: rows %v, want %v", samples, s, got, want)
				}
			}
		}
	}
}

func TestFirstSet(t *testing.T) {
	for _, n := range []int{1, 64, 65, 200} {
		v := NewVec(n)
		if got := FirstSet(v.Words()); got != -1 {
			t.Fatalf("n=%d: empty vector FirstSet = %d", n, got)
		}
		for s := n - 1; s >= 0; s -= 7 {
			v.Set(s)
			if got := FirstSet(v.Words()); got != s {
				t.Fatalf("n=%d: FirstSet = %d, want %d", n, got, s)
			}
		}
	}
}
