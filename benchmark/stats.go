package main

import (
	"fmt"
	"sort"

	"hyrec/internal/stats"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile for it to mean anything: with fewer, the figure is one or
// two outliers.
const minTailSamples = 10

// tailPercentile is stats.Percentile with the tail rule applied: it
// refuses a percentile that fewer than minTailSamples samples lie beyond.
func tailPercentile(xs []float64, p float64) (float64, error) {
	beyond := int(float64(len(xs)) * (100 - p) / 100)
	if beyond < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples has only %d beyond it, want >= %d", p, len(xs), beyond, minTailSamples)
	}
	return stats.Percentile(xs, p), nil
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the acceptance driver uses
// to judge run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
