package core

import (
	"math"
	"math/rand"
	"testing"

	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
)

func TestStreamAccumulatorMatchesBatchFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	n := 8000
	proba := linalg.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		p := rng.Float64()
		proba.Set(i, 0, p)
		proba.Set(i, 1, 1-p)
	}
	exact := PredictionStatistics(proba, 5)

	acc := NewStreamAccumulator(2, 5)
	for i := 0; i < n; i++ {
		acc.Add(proba.Row(i))
	}
	approx := acc.Features()
	if len(approx) != len(exact) {
		t.Fatalf("feature count %d vs %d", len(approx), len(exact))
	}
	for i := range exact {
		if math.Abs(approx[i]-exact[i]) > 0.02 {
			t.Fatalf("feature %d: stream %v vs exact %v", i, approx[i], exact[i])
		}
	}
	if acc.Count() != n {
		t.Fatalf("count = %d", acc.Count())
	}
}

// TestStreamAccumulatorMonitorWindowError pins the streaming featurizer
// to the exact percentiles h was trained on at the monitor's default
// 500-row window, on skewed outputs (p = u³) where an online estimator
// lags most: every feature of every seed within 0.01.
func TestStreamAccumulatorMonitorWindowError(t *testing.T) {
	const n, tol = 500, 0.01
	worst := 0.0
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		proba := linalg.NewMatrix(n, 2)
		acc := NewStreamAccumulator(2, 5)
		for i := 0; i < n; i++ {
			u := rng.Float64()
			p := u * u * u
			proba.Set(i, 0, p)
			proba.Set(i, 1, 1-p)
			acc.Add(proba.Row(i))
		}
		exact := PredictionStatistics(proba, 5)
		for i, v := range acc.Features() {
			worst = math.Max(worst, math.Abs(v-exact[i]))
		}
	}
	if worst > tol {
		t.Fatalf("max |stream - exact| feature error %.4f over 20 seeds, want <= %v", worst, tol)
	}
}

func TestStreamAccumulatorReset(t *testing.T) {
	acc := NewStreamAccumulator(2, 25)
	acc.Add([]float64{0.7, 0.3})
	acc.Reset()
	if acc.Count() != 0 {
		t.Fatal("reset did not clear the accumulator")
	}
	for _, v := range acc.Features() {
		if v != 0 {
			t.Fatal("reset accumulator should featurize to zeros")
		}
	}
}

func TestStreamAccumulatorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1 class")
		}
	}()
	NewStreamAccumulator(1, 5)
}

func TestStreamAccumulatorRowWidthPanic(t *testing.T) {
	acc := NewStreamAccumulator(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong row width")
		}
	}()
	acc.Add([]float64{0.5, 0.3, 0.2})
}

func TestPredictorStreamingEstimateMatchesBatch(t *testing.T) {
	train, test, serving := incomeSplits(t, 2500, 52)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 20,
		ForestSizes: []int{30},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	proba := model.PredictProba(serving)
	batchEst := pred.EstimateFromProba(proba)

	acc := pred.NewStreamAccumulator()
	for i := 0; i < proba.Rows; i++ {
		acc.Add(proba.Row(i))
	}
	streamEst := pred.EstimateFromFeatures(acc.Features())
	if math.Abs(streamEst-batchEst) > 0.03 {
		t.Fatalf("stream estimate %v far from batch estimate %v", streamEst, batchEst)
	}
}

func TestPredictorStreamingDetectsCorruption(t *testing.T) {
	train, test, serving := incomeSplits(t, 2500, 53)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 20,
		ForestSizes: []int{30},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(54))
	broken := errorgen.Scaling{}.Corrupt(serving, 0.95, rng)
	proba := model.PredictProba(broken)
	truth := AccuracyScore(proba, broken.Labels)

	acc := pred.NewStreamAccumulator()
	for i := 0; i < proba.Rows; i++ {
		acc.Add(proba.Row(i))
	}
	streamEst := pred.EstimateFromFeatures(acc.Features())
	if truth < pred.TestScore()-0.1 && streamEst > pred.TestScore()-0.05 {
		t.Fatalf("streaming estimate %v missed a drop to %v", streamEst, truth)
	}
}
