package core

import (
	"math"
	"math/rand"
	"testing"

	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
	"blackboxval/internal/stats"
)

// perColumnStatistics is the per-call featurizer the sorted view must
// reproduce: copy each class column and run stats.Percentiles on it.
func perColumnStatistics(proba *linalg.Matrix, step float64) []float64 {
	grid := stats.PercentileGrid(step)
	var out []float64
	for c := 0; c < proba.Cols; c++ {
		out = append(out, stats.Percentiles(proba.Col(c), grid)...)
	}
	return out
}

// matrixKSFeatures is the matrix formulation of the validator's KS
// features: per reference column, KS between the reference column and
// the serving column, each copied out of its matrix and sorted per call.
func matrixKSFeatures(testProba, servingProba *linalg.Matrix) []float64 {
	var out []float64
	for c := 0; c < testProba.Cols; c++ {
		res := stats.KolmogorovSmirnov(testProba.Col(c), servingProba.Col(c))
		out = append(out, res.Statistic, res.PValue)
	}
	return out
}

func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

// equivalenceBatches derives output matrices that stress the sorted view:
// real model outputs of random sizes (including one-row batches), outputs
// rounded onto a coarse grid so columns are full of ties, NaN cells, and
// a batch with one class more than the reference.
func equivalenceBatches(rng *rand.Rand, proba *linalg.Matrix) []*linalg.Matrix {
	var out []*linalg.Matrix
	for i := 0; i < 24; i++ {
		n := 1 + rng.Intn(proba.Rows)
		if i%6 == 0 {
			n = 1
		}
		idx := make([]int, n)
		for j := range idx {
			idx[j] = rng.Intn(proba.Rows)
		}
		m := proba.SelectRows(idx)
		switch i % 4 {
		case 1: // ties
			for j, v := range m.Data {
				m.Data[j] = math.Round(v*4) / 4
			}
		case 2: // NaN cells
			for j := range m.Data {
				if rng.Float64() < 0.1 {
					m.Data[j] = math.NaN()
				}
			}
		case 3: // an extra class column the reference does not have
			wide := linalg.NewMatrix(m.Rows, m.Cols+1)
			for r := 0; r < m.Rows; r++ {
				copy(wide.Row(r), m.Row(r))
				wide.Set(r, m.Cols, rng.Float64())
			}
			m = wide
		}
		out = append(out, m)
	}
	return out
}

// TestSortedViewBitEqual pins that sharing one sorted view per batch
// changes no output bit: the Algorithm 2 percentiles, the predictor's
// estimate, the validator's feature vector (trained and deserialized),
// probability and decision all equal their per-call formulations.
func TestSortedViewBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	ds := datagen.Income(1200, 27).Balance(rng)
	source, serving := ds.Split(0.7, rng)
	train, test := source.Split(0.6, rng)
	model, err := models.TrainPipeline(train, &models.SGDClassifier{Epochs: 8, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators: errorgen.KnownTabular(),
		Batches:    60,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A deserialized validator must rebuild the same sorted reference.
	b, err := val.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var loaded Validator
	if err := loaded.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	pred := val.predictor
	step := pred.cfg.PercentileStep
	line := (1 - val.cfg.Threshold) * val.testScore

	for i, proba := range equivalenceBatches(rng, model.PredictProba(serving)) {
		orig := proba.Clone()
		cols := SortedColumns(proba)
		if !sameFloats(proba.Data, orig.Data) {
			t.Fatalf("batch %d: SortedColumns reordered the caller's matrix", i)
		}

		feats := perColumnStatistics(proba, step)
		if got := PredictionStatistics(proba, step); !sameFloats(got, feats) {
			t.Fatalf("batch %d: PredictionStatistics differs from the per-column formula", i)
		}
		est := pred.EstimateFromFeatures(feats)
		if got := pred.EstimateFromSorted(cols); !sameFloat(got, est) {
			t.Fatalf("batch %d: EstimateFromSorted = %v, per-column estimate %v", i, got, est)
		}
		if got := pred.EstimateFromProba(proba); !sameFloat(got, est) {
			t.Fatalf("batch %d: EstimateFromProba = %v, per-column estimate %v", i, got, est)
		}

		want := append([]float64{est, est - line}, matrixKSFeatures(val.testOutputs, proba)...)
		if got := val.features(cols); !sameFloats(got, want) {
			t.Fatalf("batch %d: validator features %v, matrix formula %v", i, got, want)
		}
		if got := loaded.features(cols); !sameFloats(got, want) {
			t.Fatalf("batch %d: deserialized validator features %v, matrix formula %v", i, got, want)
		}
		prob := val.clf.PredictProba(linalg.FromRows([][]float64{want})).At(0, 1)
		if got := val.ViolationProbability(proba); !sameFloat(got, prob) {
			t.Fatalf("batch %d: ViolationProbability = %v, matrix formula %v", i, got, prob)
		}
		if got := val.ViolationFromSorted(cols); got != (prob >= 0.5) {
			t.Fatalf("batch %d: ViolationFromSorted = %v at probability %v", i, got, prob)
		}
		if got := val.ViolationFromProba(proba); got != (prob >= 0.5) {
			t.Fatalf("batch %d: ViolationFromProba = %v at probability %v", i, got, prob)
		}
	}
}
