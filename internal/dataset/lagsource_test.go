package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitmat"
)

// TestLagSourceMatchesMathRand draws from a rand.Rand over lagSource, and
// through mark, and from a rand.Rand over rand.NewSource with the same
// seed, mixing every method the generator uses (and Uint64, which reads
// the top bit), across the first lagLen draws and well past them, and
// through a reseed; both must agree draw for draw.
func TestLagSourceMatchesMathRand(t *testing.T) {
	cuts := probeCuts(lagLen)
	for _, seed := range []int64{0, 1, 2, 42, -7, 1 << 40, 1287898780484386865, -1 << 63} {
		src := newLagSource(seed)
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		for round := range 2 {
			for i := range 3000 {
				var g, w any
				switch i % 6 {
				case 0:
					// A run of marks, which ends past the first lagLen
					// draws on some rounds: gene j's bit must be set
					// exactly when math/rand's float is below its
					// threshold, the probes in turn.
					m := bitmat.New(1+i%251, 1)
					src.mark(cuts[i%len(thresholdProbes):][:m.Genes()], m, 0)
					g, w = true, true
					for j := range m.Genes() {
						p := thresholdProbes[(i+j)%len(thresholdProbes)]
						if f := want.Float64(); m.Get(j, 0) != (f < p) {
							g, w = fmt.Sprintf("gene %d marked %v", j, m.Get(j, 0)), fmt.Sprintf("%v < %v", f, p)
							break
						}
					}
				case 1:
					g, w = got.Float64(), want.Float64()
				case 2:
					g, w = got.Intn(1800), want.Intn(1800)
				case 3:
					g, w = slices.Equal(got.Perm(7), want.Perm(7)), true
				case 4:
					g, w = src.Int63(), want.Int63()
				default:
					g, w = got.Uint64(), want.Uint64()
				}
				if g != w {
					t.Fatalf("seed %d round %d draw %d: lagSource gave %v, math/rand %v", seed, round, i, g, w)
				}
			}
			got.Seed(seed + 1)
			want.Seed(seed + 1)
		}
	}
}

// BenchmarkGenerateBRCA times the generator on brca4_dense's cohort size.
func BenchmarkGenerateBRCA(b *testing.B) {
	spec := BRCA().Scaled(100)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := Generate(spec, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// thresholdProbes are rates to compare draws against: the generator's,
// the ends of [0, 1] and past them, NaN, and floats next to a float a
// draw can make.
var thresholdProbes = []float64{0.002, 0.01, 0.35, 0.84, 0, 1, -1, 2, math.NaN(),
	math.SmallestNonzeroFloat64, 1 - 1.0/(1<<53), 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
	0x1p-60, math.Nextafter(0x1p-60, 1)}

// TestBelowSplitsTheFloats checks below at floats a draw makes and their
// neighbors: x < below(p) must hold exactly when float64(x)/2⁶³ < p.
func TestBelowSplitsTheFloats(t *testing.T) {
	for _, x := range []uint64{0, 1, 1 << 10, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<62 - 1, 1 << 62, 1<<63 - 513, 1<<63 - 512, 1<<63 - 1} {
		f := float64(int64(x)) / (1 << 63)
		for _, p := range append([]float64{f, math.Nextafter(f, 0), math.Nextafter(f, 2)}, thresholdProbes...) {
			if got, want := x < below(p), f < p; got != want {
				t.Errorf("x = %d (float %v), p = %v: x < below(p) is %v, the float comparison %v", x, f, p, got, want)
			}
		}
	}
	if kept != 1<<63-512 {
		t.Errorf("below(1) = %d, want 2⁶³-512, the first draw that rounds to 1", kept)
	}
}

// probeCuts returns below(p) of the threshold probes, repeated to n
// entries and then one round more, so any window of n starting within
// the first round is a run of probes in turn.
func probeCuts(n int) []uint64 {
	cuts := make([]uint64, n+len(thresholdProbes))
	for k := range cuts {
		cuts[k] = below(thresholdProbes[k%len(thresholdProbes)])
	}
	return cuts
}

// markRef compares marks of m's columns, made by src, with ref's floats
// against the same per-gene probes; ref must draw what src draws. Then
// both must agree on the next draw: mark consumed as many draws as the
// floats did.
func markRef(t *testing.T, name string, src *lagSource, ref rand.Source64, m *bitmat.Matrix) {
	t.Helper()
	want := rand.New(ref)
	cuts := probeCuts(m.Genes())
	for s := range m.Samples() {
		src.mark(cuts[s%len(thresholdProbes):][:m.Genes()], m, s)
		for g := range m.Genes() {
			p := thresholdProbes[(s+g)%len(thresholdProbes)]
			if f := want.Float64(); m.Get(g, s) != (f < p) {
				t.Fatalf("%s: sample %d gene %d marked %v, Float64 %v < %v is %v", name, s, g, m.Get(g, s), f, p, f < p)
			}
		}
	}
	if got, want := src.Uint64(), want.Uint64(); got != want {
		t.Fatalf("%s: next draw after the marks %d, after the floats %d", name, got, want)
	}
}

// plantRefilled makes draw k of the block the next refill makes equal v,
// by moving old draw k, which new draw k adds as it is. New draws
// k+lagTap and k−(lagLen−lagTap) shift with it, so plants must not sit
// those distances apart.
func plantRefilled(src *lagSource, k int, v uint64) {
	sim := *src
	sim.refill()
	src.buf[k] += v - sim.buf[k]
}

// TestMarkMatchesFloat64 marks samples of gene counts that end inside,
// at and past a refill, each gene against its own threshold probe, and
// compares every bit with rand.New(rand.NewSource(seed)).Float64() < p.
// Then it plants draws Float64 redraws, in the seeded block and in the
// one the first refill makes (adjacent ones, the last before the refill
// and the first after it, and ones in each of the refill's two loops),
// and compares the marks with Float64 over a copy of the planted source.
func TestMarkMatchesFloat64(t *testing.T) {
	for _, seed := range []int64{1, 7, -3, 1 << 33} {
		for _, genes := range []int{1, 63, 64, 100, 606, 607, 608, 1300} {
			name := fmt.Sprintf("seed %d genes %d", seed, genes)
			markRef(t, name, newLagSource(seed), rand.NewSource(seed).(rand.Source64), bitmat.New(genes, 5))

			src := newLagSource(seed)
			// Seeded block: a draw with every bit set, the first draw
			// that rounds to 1, and next to them the last that does not.
			src.buf[3], src.buf[4], src.buf[5] = ^uint64(0), kept, kept-1
			src.buf[lagLen-1] = 1<<63 - 1
			src.clean = false
			for _, k := range []int{0, 1, 100} {
				plantRefilled(src, k, kept+uint64(k))
			}
			ref := *src
			markRef(t, name+" planted", src, &ref, bitmat.New(genes, 5))

			// Only in the refill's second half, which steps on new draws.
			src = newLagSource(seed)
			for _, k := range []int{400, lagLen - 2} {
				plantRefilled(src, k, kept+uint64(k))
			}
			ref = *src
			markRef(t, name+" planted late", src, &ref, bitmat.New(genes, 5))
		}
	}
}

// TestDrawsSkipWhatFloat64Redraws plants draws that round to 1, once
// among the first lagLen draws and once past them, and requires mark to
// skip each as rand.Rand.Float64 over an identical source redraws it.
func TestDrawsSkipWhatFloat64Redraws(t *testing.T) {
	for _, primed := range []bool{true, false} {
		src := newLagSource(5)
		if !primed {
			for range lagLen {
				src.Uint64()
			}
		}
		// Make the next draw 2⁶³-1 in its low 63 bits, the largest draw
		// there is: buf[0], or the draw the refill makes there.
		if primed {
			src.buf[0], src.clean = 1<<63-1, false
		} else {
			plantRefilled(src, 0, 1<<63-1)
		}
		ref := *src
		markRef(t, fmt.Sprintf("primed=%v", primed), src, &ref, bitmat.New(700, 1))
	}
}

// TestPlaceholderSymbols requires the one-string names to equal fmt's
// "G%05d" across the five- and six-digit widths.
func TestPlaceholderSymbols(t *testing.T) {
	syms := make([]string, 100012)
	placeholderSymbols(syms)
	for g, s := range syms {
		if want := fmt.Sprintf("G%05d", g); s != want {
			t.Fatalf("gene %d named %q, want %q", g, s, want)
		}
	}
}
