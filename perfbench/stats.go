package main

import (
	"math"
	"sort"
)

// quantile is the linearly interpolated q-quantile (0 ≤ q ≤ 1) of xs;
// NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailDenominators name the candidate tail percentiles by the share of
// samples beyond them, 1/d: p99.9, p99, p95, p90, p75.
var tailDenominators = []int{1000, 100, 20, 10, 4}

// tailPercentile is the highest candidate percentile with at least ten
// samples beyond it among n, or 0 when the sample supports none.
func tailPercentile(n int) float64 {
	for _, d := range tailDenominators {
		if n >= 10*d {
			return 100 - 100/float64(d)
		}
	}
	return 0
}
