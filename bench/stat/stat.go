// Package stat holds the order statistics the serving benchmark and its
// comparer share: nearest-rank percentiles for latency samples and the
// quartiles of a handful of run results, computed exactly the way
// Python's statistics.quantiles(values, n=4) computes them, so a spread
// read off the comparer matches one computed by a script over the same
// values.
package stat

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which it sorts in place. NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// Quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles. It does
// not modify xs. A single value is its own quartiles; NaN for none.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	const n = 4
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// Median returns the median of xs without modifying it (NaN for none).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}
