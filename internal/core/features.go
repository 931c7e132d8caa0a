// Package core implements the paper's contribution: learning to validate
// the predictions of black box classifiers on unseen data. A Predictor
// (Algorithms 1 and 2) is a regression model that estimates the black box
// model's score on an unlabeled serving batch from class-wise percentiles
// of its output distribution; a Validator turns this into the binary
// decision "did the score drop more than a threshold t", using a
// gradient-boosted classifier over the percentile features augmented with
// Kolmogorov–Smirnov statistics between test-time and serving-time
// outputs.
package core

import (
	"math"
	"math/rand"
	"sort"

	"blackboxval/internal/data"
	"blackboxval/internal/linalg"
	"blackboxval/internal/stats"
)

// PredictionStatistics computes the paper's prediction_statistics(Ŷ)
// featurizer: for each output dimension (class column) of the probability
// matrix, the percentiles at 0, step, 2*step, ..., 100 — a univariate
// non-parametric estimate of each output distribution. With the default
// step of 5 this yields 21 features per class.
func PredictionStatistics(proba *linalg.Matrix, step float64) []float64 {
	return sortedStatistics(SortedColumns(proba), step)
}

// sortedStatistics is PredictionStatistics over a batch's SortedColumns.
func sortedStatistics(cols [][]float64, step float64) []float64 {
	grid := stats.PercentileGrid(step)
	out := make([]float64, 0, len(grid)*len(cols))
	for _, col := range cols {
		out = stats.PercentilesSorted(out, col, grid)
	}
	return out
}

// SortedColumns returns every class column of proba as an ascending copy
// in new storage: the one sorted view of a batch from which the
// Algorithm 2 percentiles, the validator's KS features and the monitor's
// drift statistics are all read, so each column is sorted once however
// many of them a caller computes. proba is left in row order — the
// drift timeline and the reference sketches consume it that way.
func SortedColumns(proba *linalg.Matrix) [][]float64 {
	var s ColumnSorter
	return s.Sort(proba)
}

// ColumnSorter builds SortedColumns views in storage it keeps from one
// call to the next. The zero value is ready to use; not safe for
// concurrent use.
type ColumnSorter struct {
	buf  []float64
	cols [][]float64
}

// Sort returns SortedColumns(proba) in the sorter's storage, grown to
// exact size when too small. The view is valid until the next Sort.
func (s *ColumnSorter) Sort(proba *linalg.Matrix) [][]float64 {
	rows, n := proba.Rows, proba.Rows*proba.Cols
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	if cap(s.cols) < proba.Cols {
		s.cols = make([][]float64, proba.Cols)
	}
	buf, cols := s.buf[:n], s.cols[:proba.Cols]
	for c := range cols {
		col := buf[c*rows : (c+1)*rows : (c+1)*rows]
		for i := range col {
			col[i] = proba.Data[i*proba.Cols+c]
		}
		sort.Float64s(col)
		cols[c] = col
	}
	return cols
}

// SubsampleBatch draws a bootstrap sample (with replacement) of the test
// data with a random size between 50% and 200% of the original and a
// mildly jittered class composition. Both augmentations make the learned
// predictor robust to properties of real serving batches that vary even
// without any corruption: extreme output percentiles (the 0th/100th
// features) systematically widen with batch size, and the whole output
// distribution shifts with the batch's class mix. A predictor trained on
// a single fixed batch misreads either fluctuation as data corruption.
func SubsampleBatch(test *data.Dataset, rng *rand.Rand) *data.Dataset {
	frac := 0.5 + rng.Float64()*1.5
	n := int(frac * float64(test.Len()))
	if n < 1 {
		n = 1
	}

	// Index rows by class and draw each slot from a class chosen under
	// jittered weights (±~20% relative), then uniformly within the class.
	byClass := make([][]int, len(test.Classes))
	for i, y := range test.Labels {
		byClass[y] = append(byClass[y], i)
	}
	weights := make([]float64, len(byClass))
	total := 0.0
	for c, rows := range byClass {
		w := float64(len(rows)) * math.Exp(rng.NormFloat64()*0.1)
		if len(rows) == 0 {
			w = 0
		}
		weights[c] = w
		total += w
	}
	idx := make([]int, n)
	for i := range idx {
		r := rng.Float64() * total
		c := 0
		for ; c < len(weights)-1; c++ {
			r -= weights[c]
			if r < 0 {
				break
			}
		}
		rows := byClass[c]
		idx[i] = rows[rng.Intn(len(rows))]
	}
	return test.SelectRows(idx)
}

// appendKSFeatures appends to f, per class column, the Kolmogorov–Smirnov
// D statistic and p-value between the model's sorted outputs on the
// retained test set (ref) and on the serving batch (cols) — the
// hypothesis-test features the validator adds on top of the percentile
// features.
func appendKSFeatures(f []float64, ref, cols [][]float64) []float64 {
	for c := range ref {
		res := stats.KolmogorovSmirnovSorted(ref[c], cols[c])
		f = append(f, res.Statistic, res.PValue)
	}
	return f
}
