package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples a reported tail percentile must have
// beyond it; with fewer, the percentile is noise and is refused.
const minBeyond = 10

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs must be non-empty; it is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of xs (NaN for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantile(xs, 0.5)
}

// tailPercentile returns the q-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func tailPercentile(xs []float64, q float64) (float64, error) {
	beyond := int(math.Floor(float64(len(xs))*(1-q) + 1e-9)) // 1e-9 absorbs 1-q rounding
	if len(xs) == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*q, len(xs), beyond, minBeyond)
	}
	return quantile(xs, q), nil
}
