// Package stats implements the statistical substrate for the performance
// prediction system: descriptive statistics and percentiles (the feature
// extractor of Algorithm 1 builds on these), two-sample hypothesis tests
// (Kolmogorov–Smirnov and chi-squared, used by the performance validator
// and by the REL/BBSE/BBSEh baselines), and classification metrics.
package stats

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// values.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It panics on empty input.
func Percentile(xs []float64, p float64) float64 {
	return PercentileSorted(sortedCopy(xs), p)
}

// PercentileSorted is Percentile for a sample already in ascending
// order; it neither copies nor sorts. It panics on empty input.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty slice")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentiles returns the requested percentiles of xs, sorting a copy of
// xs once. It panics on empty input.
func Percentiles(xs []float64, ps []float64) []float64 {
	return PercentilesSorted(make([]float64, 0, len(ps)), sortedCopy(xs), ps)
}

// PercentilesSorted appends the requested percentiles of a sample already
// in ascending order to dst and returns the extended slice; it neither
// copies nor sorts the sample. It panics on empty input.
func PercentilesSorted(dst, sorted, ps []float64) []float64 {
	if len(sorted) == 0 {
		panic("stats: percentiles of empty slice")
	}
	for _, p := range ps {
		dst = append(dst, PercentileSorted(sorted, p))
	}
	return dst
}

// PercentileGrid returns 0, step, 2*step, ..., 100. The paper's output
// featurizer uses step=5 (0th, 5th, ..., 100th percentile).
func PercentileGrid(step float64) []float64 {
	if step <= 0 || step > 100 {
		panic("stats: invalid percentile step")
	}
	ps := make([]float64, 0, int(100/step)+2)
	for p := 0.0; p < 100; p += step {
		ps = append(ps, p)
	}
	return append(ps, 100)
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// MAE returns the mean absolute error between predictions and targets.
func MAE(pred, truth []float64) float64 {
	if len(pred) != len(truth) {
		panic("stats: MAE of unequal length slices")
	}
	if len(pred) == 0 {
		return 0
	}
	s := 0.0
	for i, p := range pred {
		s += math.Abs(p - truth[i])
	}
	return s / float64(len(pred))
}

// AbsErrors returns the element-wise absolute errors |pred-truth|.
func AbsErrors(pred, truth []float64) []float64 {
	if len(pred) != len(truth) {
		panic("stats: AbsErrors of unequal length slices")
	}
	out := make([]float64, len(pred))
	for i := range pred {
		out[i] = math.Abs(pred[i] - truth[i])
	}
	return out
}
