package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestLagSourceMatchesMathRand draws from a rand.Rand over lagSource, and
// through its floats, and from a rand.Rand over rand.NewSource with the
// same seed, mixing every method the generator uses (and Uint64, which
// reads the top bit), across the first lagLen draws and well past them,
// and through a reseed; both must agree draw for draw.
func TestLagSourceMatchesMathRand(t *testing.T) {
	cuts := make([]uint64, len(thresholdProbes))
	for k, p := range thresholdProbes {
		cuts[k] = below(p)
	}
	for _, seed := range []int64{0, 1, 2, 42, -7, 1 << 40, 1287898780484386865, -1 << 63} {
		src := newLagSource(seed)
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		for round := range 2 {
			for i := range 3000 {
				var g, w any
				switch i % 6 {
				case 0:
					// A run of draws, which ends past the first lagLen
					// draws on some rounds: each must make math/rand's
					// float, and compare against every threshold as the
					// float does.
					xs := make([]uint64, 1+i%251)
					src.draws(xs)
					g, w = true, true
					for _, x := range xs {
						f := want.Float64()
						if float64(int64(x))/(1<<63) != f {
							g, w = x, f
							break
						}
						for k, p := range thresholdProbes {
							if (x < cuts[k]) != (f < p) {
								g, w = fmt.Sprintf("%d < below(%v)", x, p), fmt.Sprintf("%v < %v", f, p)
							}
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

// TestDrawsSkipWhatFloat64Redraws plants draws that round to 1, once
// among the first lagLen draws and once past them, and requires draws to
// skip each as rand.Rand.Float64 over an identical source redraws it.
func TestDrawsSkipWhatFloat64Redraws(t *testing.T) {
	for _, primed := range []bool{true, false} {
		src := newLagSource(5)
		if !primed {
			for range lagLen {
				src.Uint64()
			}
		}
		// The next draw writes the slot below feed: make it 2⁶³-1 in its
		// low 63 bits, the largest draw there is.
		slot := (src.feed - 1 + lagLen) % lagLen
		if primed {
			src.vec[slot] = 1<<63 - 1
		} else {
			src.vec[slot] = 1<<63 - 1 - src.vec[(src.tap-1+lagLen)%lagLen]
		}
		ref := *src
		want := rand.New(&ref)
		xs := make([]uint64, 700)
		src.draws(xs)
		for i, x := range xs {
			if f := want.Float64(); float64(int64(x))/(1<<63) != f {
				t.Fatalf("primed=%v draw %d: draws made %v, Float64 %v", primed, i, float64(int64(x))/(1<<63), f)
			}
		}
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
