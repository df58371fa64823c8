package main

import (
	"math"
	"testing"
)

// The tail rule: a percentile is reported only when at least ten
// samples lie beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	if _, err := tailPercentile(mk(999), 99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and must be refused")
	}
	if _, err := tailPercentile(mk(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples has 10 beyond it: %v", err)
	}
	if _, err := tailPercentile(mk(1000), 99.9); err == nil {
		t.Error("p99.9 of 1000 samples has 1 beyond it and must be refused")
	}
	if _, err := tailPercentile(mk(20), 50); err != nil {
		t.Errorf("p50 of 20 samples has 10 beyond it: %v", err)
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the acceptance driver computes. Expected values were
// produced by Python 3.11.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7.2, 1.5, 9.9, 3.3, 4.8, 6.1}, [3]float64{2.85, 5.45, 7.875}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		in := append([]float64(nil), tc.xs...)
		q1, q2, q3 := quartiles(tc.xs)
		for i, got := range [3]float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", tc.xs, i, got, tc.want[i])
			}
		}
		for i := range in {
			if in[i] != tc.xs[i] {
				t.Fatalf("quartiles reordered its input")
			}
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	if v := judge(steady, steady, lower); !v.ok || v.gap != 0 {
		t.Errorf("identical sets must pass with no gap: %+v", v)
	}
	worse := make([]float64, len(steady))
	for i, x := range steady {
		worse[i] = x * 1.2
	}
	if v := judge(steady, worse, lower); v.ok {
		t.Errorf("a 20%% worse second median must fail a 0.1 bound: %+v", v)
	}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	if v := judge(steady, worse, higher); !v.ok || v.gap >= 0 {
		t.Errorf("a higher second median is an improvement for a higher-is-better metric: %+v", v)
	}
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if v := judge(wide, wide, lower); v.ok {
		t.Errorf("a spread beyond the bound must fail: %+v", v)
	}
	if v := judge(wide, wide, specMetric{Name: "setup_s", Better: "lower", Bound: 0.1}); !v.ok {
		t.Errorf("setup_s is judged on medians only: %+v", v)
	}
}
