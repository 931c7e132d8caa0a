package stat

import "testing"

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1}, 0.25, 2.5, 4.75}, // Python extrapolates past two points
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := Quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	if p := Percentile(xs, 99); p != 198 {
		t.Errorf("p99 of 1..200 = %v, want 198", p)
	}
	if p := Percentile(xs, 50); p != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", p)
	}
	if m := Median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
