package core

import (
	"math"
	"math/rand"
	"testing"

	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
	"blackboxval/internal/stats"
)

func TestPredictionStatisticsShape(t *testing.T) {
	proba := linalg.FromRows([][]float64{{0.2, 0.8}, {0.6, 0.4}, {0.5, 0.5}})
	feats := PredictionStatistics(proba, 5)
	if len(feats) != 42 { // 21 percentiles x 2 classes
		t.Fatalf("feature count = %d, want 42", len(feats))
	}
	// Percentiles of each class block are monotone.
	for c := 0; c < 2; c++ {
		block := feats[c*21 : (c+1)*21]
		for i := 1; i < len(block); i++ {
			if block[i] < block[i-1] {
				t.Fatalf("class %d percentile block not monotone: %v", c, block)
			}
		}
	}
	// Extremes match the data.
	if feats[0] != 0.2 || feats[20] != 0.6 {
		t.Fatalf("class-0 extremes = %v, %v", feats[0], feats[20])
	}
}

func TestPredictionStatisticsCoarseStep(t *testing.T) {
	proba := linalg.FromRows([][]float64{{0.1, 0.9}, {0.3, 0.7}})
	if got := len(PredictionStatistics(proba, 25)); got != 10 {
		t.Fatalf("coarse feature count = %d, want 10", got)
	}
}

func TestKSFeatures(t *testing.T) {
	a := linalg.FromRows([][]float64{{0.1, 0.9}, {0.2, 0.8}, {0.3, 0.7}})
	same := appendKSFeatures(nil, SortedColumns(a), SortedColumns(a))
	if len(same) != 4 {
		t.Fatalf("ks feature count = %d", len(same))
	}
	if same[0] != 0 || same[1] != 1 {
		t.Fatalf("identical distributions should give D=0 p=1, got %v", same)
	}
}

// trainBlackBox builds a small lr pipeline on the income data.
func trainBlackBox(t *testing.T, train *data.Dataset) data.Model {
	t.Helper()
	model, err := models.TrainPipeline(train, &models.SGDClassifier{Epochs: 15, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

func incomeSplits(t *testing.T, n int, seed int64) (train, test, serving *data.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := datagen.Income(n, seed).Balance(rng)
	source, serving := ds.Split(0.7, rng)
	train, test = source.Split(0.6, rng)
	return train, test, serving
}

func TestTrainPredictorConfigErrors(t *testing.T) {
	train, test, _ := incomeSplits(t, 600, 1)
	model := trainBlackBox(t, train)
	if _, err := TrainPredictor(nil, test, PredictorConfig{Generators: errorgen.KnownTabular()}); err == nil {
		t.Fatal("nil model should error")
	}
	if _, err := TrainPredictor(model, test, PredictorConfig{}); err == nil {
		t.Fatal("no generators should error")
	}
	empty := test.SelectRows(nil)
	if _, err := TrainPredictor(model, empty, PredictorConfig{Generators: errorgen.KnownTabular()}); err == nil {
		t.Fatal("empty test set should error")
	}
}

func TestPredictorEndToEndKnownErrors(t *testing.T) {
	train, test, serving := incomeSplits(t, 3000, 2)
	model := trainBlackBox(t, train)

	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  []errorgen.Generator{errorgen.MissingValues{}, errorgen.Scaling{}},
		Repetitions: 40,
		ForestSizes: []int{50},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.TestScore() < 0.7 {
		t.Fatalf("black box test accuracy = %v, too weak for a meaningful test", pred.TestScore())
	}

	rng := rand.New(rand.NewSource(3))
	var absErrs []float64
	for trial := 0; trial < 10; trial++ {
		gen := errorgen.MissingValues{}
		corrupted := gen.Corrupt(serving, rng.Float64(), rng)
		proba := model.PredictProba(corrupted)
		truth := AccuracyScore(proba, corrupted.Labels)
		est := pred.EstimateFromProba(proba)
		absErrs = append(absErrs, math.Abs(est-truth))
	}
	med := stats.Median(absErrs)
	if med > 0.05 {
		t.Fatalf("median abs error = %v, want <= 0.05 (errors: %v)", med, absErrs)
	}
}

func TestPredictorCleanServingMatchesTestScore(t *testing.T) {
	train, test, serving := incomeSplits(t, 2000, 4)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  []errorgen.Generator{errorgen.MissingValues{}},
		Repetitions: 30,
		ForestSizes: []int{50},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	est := pred.Estimate(serving)
	proba := model.PredictProba(serving)
	truth := AccuracyScore(proba, serving.Labels)
	if math.Abs(est-truth) > 0.06 {
		t.Fatalf("clean serving estimate %v vs truth %v", est, truth)
	}
}

func TestPredictorEstimateBounded(t *testing.T) {
	train, test, _ := incomeSplits(t, 800, 5)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  []errorgen.Generator{errorgen.MissingValues{}},
		Repetitions: 10,
		ForestSizes: []int{20},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Degenerate outputs must still give a bounded estimate.
	weird := linalg.FromRows([][]float64{{1, 0}, {1, 0}, {0, 1}})
	est := pred.EstimateFromProba(weird)
	if est < 0 || est > 1 {
		t.Fatalf("estimate %v out of [0,1]", est)
	}
}

func TestPredictorAUCScore(t *testing.T) {
	train, test, serving := incomeSplits(t, 2000, 6)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  []errorgen.Generator{errorgen.MissingValues{}},
		Repetitions: 30,
		ForestSizes: []int{50},
		Score:       AUCScore,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	proba := model.PredictProba(serving)
	truth := AUCScore(proba, serving.Labels)
	est := pred.EstimateFromProba(proba)
	if math.Abs(est-truth) > 0.08 {
		t.Fatalf("AUC estimate %v vs truth %v", est, truth)
	}
}

func TestPredictorRecordsMetadata(t *testing.T) {
	train, test, _ := incomeSplits(t, 800, 7)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:       []errorgen.Generator{errorgen.MissingValues{}, errorgen.Outliers{}},
		Repetitions:      12,
		CleanRepetitions: 6,
		ForestSizes:      []int{20},
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.NumExamples() != 2*12+6 {
		t.Fatalf("NumExamples = %d, want 30", pred.NumExamples())
	}
	if pred.TrainMAE() < 0 || pred.TrainMAE() > 0.5 {
		t.Fatalf("implausible train MAE %v", pred.TrainMAE())
	}
	if pred.Model() != model {
		t.Fatal("Model() should return the wrapped black box")
	}
	if pred.TestOutputs() == nil || pred.TestOutputs().Cols != 2 {
		t.Fatal("TestOutputs missing")
	}
}

func TestValidatorEndToEnd(t *testing.T) {
	train, test, serving := incomeSplits(t, 3000, 8)
	model := trainBlackBox(t, train)
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators: errorgen.KnownTabular(),
		Threshold:  0.05,
		Batches:    120,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pos, total := val.TrainBalance()
	if pos == 0 || pos == total {
		t.Fatalf("degenerate training balance: %d/%d", pos, total)
	}

	rng := rand.New(rand.NewSource(9))
	mixture := errorgen.Mixture{Generators: errorgen.KnownTabular()}
	var predLabels, truthLabels []int
	for trial := 0; trial < 30; trial++ {
		var batch *data.Dataset
		if trial%3 == 0 {
			batch = serving
		} else {
			batch = mixture.Corrupt(serving, rng.Float64(), rng)
		}
		proba := model.PredictProba(batch)
		truth := 0
		if AccuracyScore(proba, batch.Labels) < (1-val.Threshold())*val.TestScore() {
			truth = 1
		}
		pred := 0
		if val.ViolationFromProba(proba) {
			pred = 1
		}
		predLabels = append(predLabels, pred)
		truthLabels = append(truthLabels, truth)
	}
	f1 := stats.F1Score(predLabels, truthLabels, 1)
	acc := stats.Accuracy(predLabels, truthLabels)
	if acc < 0.7 {
		t.Fatalf("validator accuracy = %v (F1 %v) on known mixtures", acc, f1)
	}
}

func TestValidatorConfigErrors(t *testing.T) {
	train, test, _ := incomeSplits(t, 600, 10)
	model := trainBlackBox(t, train)
	if _, err := TrainValidator(nil, test, ValidatorConfig{Generators: errorgen.KnownTabular()}); err == nil {
		t.Fatal("nil model should error")
	}
	if _, err := TrainValidator(model, test, ValidatorConfig{}); err == nil {
		t.Fatal("no generators should error")
	}
}

func TestValidatorCleanDataNotFlagged(t *testing.T) {
	train, test, serving := incomeSplits(t, 2500, 11)
	model := trainBlackBox(t, train)
	val, err := TrainValidator(model, test, ValidatorConfig{
		Generators: errorgen.KnownTabular(),
		Threshold:  0.1,
		Batches:    120,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if val.Violation(serving) {
		t.Fatal("clean serving data flagged as violation at t=0.1")
	}
}

func TestPredictorForestGridSearch(t *testing.T) {
	train, test, serving := incomeSplits(t, 1500, 12)
	model := trainBlackBox(t, train)
	// Two forest sizes exercise the cross-validated grid search path.
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  []errorgen.Generator{errorgen.MissingValues{}},
		Repetitions: 12,
		ForestSizes: []int{10, 30},
		Folds:       3,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.TrainMAE() <= 0 || pred.TrainMAE() > 0.5 {
		t.Fatalf("cross-validated MAE = %v", pred.TrainMAE())
	}
	est := pred.Estimate(serving)
	if est < 0 || est > 1 {
		t.Fatalf("estimate = %v", est)
	}
}

func TestPredictorCustomRegressor(t *testing.T) {
	train, test, _ := incomeSplits(t, 1200, 13)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  []errorgen.Generator{errorgen.MissingValues{}},
		Repetitions: 10,
		Regressor:   &models.GBDTRegressor{Trees: 30, Seed: 1},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	proba := model.PredictProba(test)
	est := pred.EstimateFromProba(proba)
	if math.Abs(est-pred.TestScore()) > 0.1 {
		t.Fatalf("GBDT-backed estimate %v far from test score %v", est, pred.TestScore())
	}
}

func TestAccuracyAndAUCScoreFuncs(t *testing.T) {
	proba := linalg.FromRows([][]float64{{0.9, 0.1}, {0.2, 0.8}})
	if AccuracyScore(proba, []int{0, 1}) != 1 {
		t.Fatal("accuracy score wrong")
	}
	if AUCScore(proba, []int{0, 1}) != 1 {
		t.Fatal("AUC score wrong")
	}
}

func TestEstimateWithUncertainty(t *testing.T) {
	train, test, serving := incomeSplits(t, 2500, 14)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 20,
		ForestSizes: []int{40},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cleanProba := model.PredictProba(serving)
	cleanEst, cleanUnc := pred.EstimateWithUncertainty(cleanProba)
	if math.Abs(cleanEst-pred.EstimateFromProba(cleanProba)) > 1e-12 {
		t.Fatal("uncertainty-aware estimate should match the plain estimate")
	}
	if cleanUnc < 0 || cleanUnc > 0.5 {
		t.Fatalf("implausible clean uncertainty %v", cleanUnc)
	}

	// An alien corruption (never in training) should not report LESS
	// uncertainty than the clean batch, and typically reports much more.
	rng := rand.New(rand.NewSource(15))
	weird := errorgen.FlippedSigns{}.Corrupt(serving, 1.0, rng)
	weird = errorgen.Typos{}.Corrupt(weird, 1.0, rng)
	_, weirdUnc := pred.EstimateWithUncertainty(model.PredictProba(weird))
	if weirdUnc < cleanUnc*0.5 {
		t.Fatalf("alien corruption uncertainty %v far below clean %v", weirdUnc, cleanUnc)
	}
}

func TestEstimateWithUncertaintyGBDTFallback(t *testing.T) {
	train, test, serving := incomeSplits(t, 1200, 16)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 8,
		Regressor:   &models.GBDTRegressor{Trees: 20, Seed: 1},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, unc := pred.EstimateWithUncertainty(model.PredictProba(serving))
	if unc != 0 {
		t.Fatalf("non-forest regressor should report zero uncertainty, got %v", unc)
	}
}

func TestEstimateIntervalCoverage(t *testing.T) {
	train, test, serving := incomeSplits(t, 3000, 17)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 40,
		ForestSizes: []int{50},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	mixture := errorgen.Mixture{Generators: errorgen.KnownTabular()}
	covered, trials := 0, 40
	for i := 0; i < trials; i++ {
		batch := mixture.Corrupt(serving, rng.Float64(), rng)
		proba := model.PredictProba(batch)
		truth := AccuracyScore(proba, batch.Labels)
		est, lo, hi := pred.EstimateInterval(proba, 0.1)
		if lo > est || hi < est {
			t.Fatalf("interval [%v,%v] excludes its own estimate %v", lo, hi, est)
		}
		if lo <= truth && truth <= hi {
			covered++
		}
	}
	// Nominal 90% coverage; accept >= 70% given the train/serve partition gap.
	if float64(covered)/float64(trials) < 0.7 {
		t.Fatalf("interval covered truth in only %d/%d trials", covered, trials)
	}
}

func TestEstimateIntervalBounds(t *testing.T) {
	train, test, serving := incomeSplits(t, 1200, 19)
	model := trainBlackBox(t, train)
	pred, err := TrainPredictor(model, test, PredictorConfig{
		Generators:  errorgen.KnownTabular(),
		Repetitions: 15,
		ForestSizes: []int{20},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	proba := model.PredictProba(serving)
	_, lo, hi := pred.EstimateInterval(proba, 0.05)
	if lo < 0 || hi > 1 || lo > hi {
		t.Fatalf("interval [%v,%v] malformed", lo, hi)
	}
	// Wider alpha -> narrower interval.
	_, lo2, hi2 := pred.EstimateInterval(proba, 0.5)
	if hi2-lo2 > hi-lo+1e-12 {
		t.Fatalf("alpha 0.5 interval wider than alpha 0.05: %v vs %v", hi2-lo2, hi-lo)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for alpha out of range")
		}
	}()
	pred.EstimateInterval(proba, 1.5)
}
