package core

import (
	"context"
	"fmt"
	"math/rand"

	"blackboxval/internal/data"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
	"blackboxval/internal/obs"
	"blackboxval/internal/stats"
)

// ScoreFunc is the known scoring function L of the black box model, e.g.
// accuracy or AUC.
type ScoreFunc func(proba *linalg.Matrix, y []int) float64

// AccuracyScore scores by classification accuracy.
func AccuracyScore(proba *linalg.Matrix, y []int) float64 {
	return models.Accuracy(proba, y)
}

// AUCScore scores binary problems by the area under the ROC curve, using
// the probability of class 1.
func AUCScore(proba *linalg.Matrix, y []int) float64 {
	if proba.Cols != 2 {
		panic("core: AUC score requires a binary classifier")
	}
	return stats.AUC(proba.Col(1), y)
}

// PredictorConfig controls the training of a performance predictor.
type PredictorConfig struct {
	// Generators are the user-specified error types expected in serving
	// data. Required.
	Generators []errorgen.Generator
	// Repetitions is the number of corrupted datasets generated per error
	// type (default 100).
	Repetitions int
	// CleanRepetitions adds uncorrupted batches so the predictor learns
	// the no-error regime (default max(8, Repetitions/2)).
	CleanRepetitions int
	// PercentileStep is the percentile grid step of the output featurizer
	// (default 5, i.e. the paper's 0th, 5th, ..., 100th percentiles).
	PercentileStep float64
	// ForestSizes is the grid searched over the number of trees of the
	// random forest regressor (default {50, 100}).
	ForestSizes []int
	// Folds is the cross-validation fold count for the grid search
	// (default 5).
	Folds int
	// Score is the scoring function L (default AccuracyScore).
	Score ScoreFunc
	// Regressor overrides the regression learner (default: random forest
	// with ForestSizes grid search). Used by the ablation benchmarks.
	Regressor models.Regressor
	// Workers bounds the goroutine pool building the corruption
	// meta-dataset and running the grid search (default runtime.NumCPU();
	// 1 runs strictly serially). Every job derives its own RNG from Seed
	// and its job index, so the trained predictor is bit-identical for
	// every Workers value.
	Workers int
	// Seed drives all randomness.
	Seed int64
}

func (c *PredictorConfig) defaults() {
	if c.Repetitions == 0 {
		c.Repetitions = 100
	}
	if c.CleanRepetitions == 0 {
		c.CleanRepetitions = c.Repetitions / 2
		if c.CleanRepetitions < 8 {
			c.CleanRepetitions = 8
		}
	}
	if c.PercentileStep == 0 {
		c.PercentileStep = 5
	}
	if len(c.ForestSizes) == 0 {
		c.ForestSizes = []int{50, 100}
	}
	if c.Folds == 0 {
		c.Folds = 5
	}
	if c.Score == nil {
		c.Score = AccuracyScore
	}
}

// Predictor estimates the score of a specific black box model on unseen,
// unlabeled serving batches (Algorithm 2). Train one with TrainPredictor
// (Algorithm 1) and deploy it alongside the model.
type Predictor struct {
	model data.Model
	cfg   PredictorConfig
	reg   models.Regressor

	testScore   float64
	testOutputs *linalg.Matrix // Ŷtest, retained for the validator's KS features
	trainMAE    float64        // cross-validated MAE of the chosen regressor
	numExamples int
	// calibResiduals are absolute out-of-sample residuals from a held-out
	// calibration split of the synthetic corruption meta-dataset, powering
	// split-conformal interval estimates.
	calibResiduals []float64
}

// TrainPredictor implements Algorithm 1: it corrupts the held-out test
// set with every user-specified error generator at random magnitudes,
// records (output percentiles, true score) pairs, and fits a regression
// model mapping the former to the latter.
func TrainPredictor(model data.Model, test *data.Dataset, cfg PredictorConfig) (*Predictor, error) {
	return TrainPredictorCtx(context.Background(), model, test, cfg)
}

// TrainPredictorCtx is TrainPredictor with per-stage telemetry: it
// records a "train_predictor" span (children: meta_dataset,
// predictor_fit, calibrate) on the tracer carried by ctx — or the
// process default when ctx carries none — and feeds the shared
// stage-duration histograms. Training itself is unaffected:
// instrumentation never touches an RNG stream.
func TrainPredictorCtx(ctx context.Context, model data.Model, test *data.Dataset, cfg PredictorConfig) (*Predictor, error) {
	cfg.defaults()
	if model == nil {
		return nil, fmt.Errorf("core: model is required")
	}
	if len(cfg.Generators) == 0 {
		return nil, fmt.Errorf("core: at least one error generator is required")
	}
	if test.Len() == 0 {
		return nil, fmt.Errorf("core: empty test set")
	}

	ctx, root := obs.StartSpan(ctx, "train_predictor")
	defer root.End()
	root.SetMetric("rows", float64(test.Len()))
	root.SetMetric("generators", float64(len(cfg.Generators)))
	root.SetMetric("workers", float64(resolveWorkers(cfg.Workers)))

	p := &Predictor{model: model, cfg: cfg}
	p.testOutputs = model.PredictProba(test)
	p.testScore = cfg.Score(p.testOutputs, test.Labels)

	// Lines 3-12 of Algorithm 1: build the meta-dataset M across
	// cfg.Workers goroutines. Every training batch is a random subsample
	// of the test set so the featurized output distributions vary the way
	// real serving batches do — training on the identical test rows each
	// time would make the clean regime look artificially degenerate.
	_, metaSp, metaDone := stageSpan(ctx, "meta_dataset")
	features, scores, rows := buildMetaDataset(model, test, cfg)
	p.numExamples = len(features)
	metaSp.SetMetric("examples", float64(p.numExamples))
	metaSp.SetMetric("rows_scored", float64(rows))
	metaDone()

	X := linalg.FromRows(features)
	// Line 13: train the regression model, grid-searching the forest
	// size with k-fold cross-validation on MAE.
	_, fitSp, fitDone := stageSpan(ctx, "predictor_fit")
	if cfg.Regressor != nil {
		p.reg = cfg.Regressor
		if err := p.reg.Fit(X, scores); err != nil {
			fitDone()
			return nil, fmt.Errorf("core: fitting custom regressor: %w", err)
		}
		p.trainMAE = regressorMAE(p.reg, X, scores)
	} else {
		best, bestMAE, err := selectForest(X, scores, cfg, jobRNG(cfg.Seed+10, streamPredictorGrid, 0))
		if err != nil {
			fitDone()
			return nil, err
		}
		p.reg = best
		p.trainMAE = bestMAE
	}
	fitSp.SetMetric("mae", p.trainMAE)
	fitDone()

	_, _, calibDone := stageSpan(ctx, "calibrate")
	err := p.calibrate(X, scores, jobRNG(cfg.Seed+10, streamPredictorCalib, 0))
	calibDone()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// calibrate computes absolute out-of-sample residuals on a 20% held-out
// split of the meta-dataset (refitting a regressor of the same shape on
// the remaining 80%), enabling split-conformal intervals.
func (p *Predictor) calibrate(X *linalg.Matrix, scores []float64, rng *rand.Rand) error {
	n := len(scores)
	if n < 10 {
		return nil // not enough data for a meaningful split
	}
	perm := rng.Perm(n)
	cut := n / 5
	calibIdx, trainIdx := perm[:cut], perm[cut:]
	trainY := make([]float64, len(trainIdx))
	for i, idx := range trainIdx {
		trainY[i] = scores[idx]
	}
	var reg models.Regressor
	switch r := p.reg.(type) {
	case *models.RandomForestRegressor:
		reg = &models.RandomForestRegressor{Trees: r.Trees, MaxDepth: r.MaxDepth, Seed: r.Seed + 1}
	case *models.GBDTRegressor:
		reg = &models.GBDTRegressor{Trees: r.Trees, MaxDepth: r.MaxDepth, Seed: r.Seed + 1}
	default:
		return nil // unknown regressor type: intervals unavailable
	}
	if err := reg.Fit(X.SelectRows(trainIdx), trainY); err != nil {
		return fmt.Errorf("core: fitting calibration regressor: %w", err)
	}
	preds := reg.Predict(X.SelectRows(calibIdx))
	p.calibResiduals = make([]float64, len(calibIdx))
	for i, idx := range calibIdx {
		d := preds[i] - scores[idx]
		if d < 0 {
			d = -d
		}
		p.calibResiduals[i] = d
	}
	return nil
}

// EstimateInterval returns the score estimate together with a
// split-conformal interval [lo, hi] at the given miscoverage level alpha
// (e.g. 0.1 for a nominal 90% interval): the half-width is the
// (1-alpha)-quantile of the absolute calibration residuals. The interval
// is valid for serving corruption resembling the specified error types;
// wildly out-of-distribution batches can exceed it (check
// EstimateWithUncertainty for an ensemble-disagreement signal). Returns
// the degenerate interval [est, est] when calibration data is
// unavailable.
func (p *Predictor) EstimateInterval(proba *linalg.Matrix, alpha float64) (est, lo, hi float64) {
	if alpha <= 0 || alpha >= 1 {
		panic(fmt.Sprintf("core: miscoverage alpha %v out of (0,1)", alpha))
	}
	est = p.EstimateFromProba(proba)
	if len(p.calibResiduals) == 0 {
		return est, est, est
	}
	halfWidth := stats.Percentile(p.calibResiduals, (1-alpha)*100)
	lo, hi = est-halfWidth, est+halfWidth
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return est, lo, hi
}

// selectForest grid-searches the forest size by cross-validated MAE and
// refits the winner on all data. Every (size, fold) cell refits an
// independent regressor, so the cells run on cfg.Workers goroutines; the
// per-size MAEs are then aggregated in fold order, keeping the float
// summation — and the chosen size — deterministic.
func selectForest(X *linalg.Matrix, y []float64, cfg PredictorConfig, rng *rand.Rand) (models.Regressor, float64, error) {
	folds := cfg.Folds
	if folds > len(y) {
		folds = len(y)
	}
	bestSize := cfg.ForestSizes[0]
	bestMAE := -1.0
	if len(cfg.ForestSizes) > 1 && folds >= 2 {
		perm := rng.Perm(len(y))
		cells := len(cfg.ForestSizes) * folds
		maes := make([]float64, cells)
		errs := make([]error, cells)
		runJobs(cfg.Workers, cells, func(j int) {
			size := cfg.ForestSizes[j/folds]
			maes[j], errs[j] = foldMAE(X, y, perm, folds, j%folds, func() models.Regressor {
				return &models.RandomForestRegressor{Trees: size, Seed: cfg.Seed}
			})
		})
		for _, err := range errs {
			if err != nil {
				return nil, 0, err
			}
		}
		for si, size := range cfg.ForestSizes {
			total := 0.0
			for f := 0; f < folds; f++ {
				total += maes[si*folds+f]
			}
			if mae := total / float64(folds); bestMAE < 0 || mae < bestMAE {
				bestMAE = mae
				bestSize = size
			}
		}
	}
	forest := &models.RandomForestRegressor{Trees: bestSize, Seed: cfg.Seed}
	if err := forest.Fit(X, y); err != nil {
		return nil, 0, fmt.Errorf("core: fitting performance predictor: %w", err)
	}
	if bestMAE < 0 {
		bestMAE = regressorMAE(forest, X, y)
	}
	return forest, bestMAE, nil
}

// foldMAE fits a fresh regressor on every fold except f and returns its
// MAE on fold f.
func foldMAE(X *linalg.Matrix, y []float64, perm []int, folds, f int, newReg func() models.Regressor) (float64, error) {
	var trainIdx, valIdx []int
	for i, idx := range perm {
		if i%folds == f {
			valIdx = append(valIdx, idx)
		} else {
			trainIdx = append(trainIdx, idx)
		}
	}
	trainY := make([]float64, len(trainIdx))
	for i, idx := range trainIdx {
		trainY[i] = y[idx]
	}
	valY := make([]float64, len(valIdx))
	for i, idx := range valIdx {
		valY[i] = y[idx]
	}
	reg := newReg()
	if err := reg.Fit(X.SelectRows(trainIdx), trainY); err != nil {
		return 0, err
	}
	return stats.MAE(reg.Predict(X.SelectRows(valIdx)), valY), nil
}

func regressorMAE(reg models.Regressor, X *linalg.Matrix, y []float64) float64 {
	return stats.MAE(reg.Predict(X), y)
}

// Estimate implements Algorithm 2: it runs the black box model on the
// unlabeled serving batch, featurizes the output distribution and returns
// the predicted score.
func (p *Predictor) Estimate(serving *data.Dataset) float64 {
	return p.EstimateFromProba(p.model.PredictProba(serving))
}

// EstimateFromProba estimates the score directly from a matrix of model
// outputs, for callers that already hold the predictions.
func (p *Predictor) EstimateFromProba(proba *linalg.Matrix) float64 {
	return p.EstimateFromSorted(SortedColumns(proba))
}

// EstimateFromSorted is EstimateFromProba over the batch's SortedColumns,
// for callers that share one sorted view between the estimate and other
// order statistics of the same batch.
func (p *Predictor) EstimateFromSorted(cols [][]float64) float64 {
	return p.EstimateFromFeatures(sortedStatistics(cols, p.cfg.PercentileStep))
}

// EstimateWithUncertainty returns the score estimate together with an
// ensemble-disagreement measure: the standard deviation of the individual
// trees of the random forest regressor. Serving batches unlike anything
// seen during predictor training (e.g. corrupted by an error type far
// outside the specified set) spread the trees and inflate this value, so
// operators can treat high-uncertainty estimates with extra suspicion.
// For non-forest regressors the uncertainty is reported as 0.
func (p *Predictor) EstimateWithUncertainty(proba *linalg.Matrix) (estimate, uncertainty float64) {
	feats := PredictionStatistics(proba, p.cfg.PercentileStep)
	X := matrixFromRow(feats)
	forest, ok := p.reg.(*models.RandomForestRegressor)
	if !ok {
		return p.EstimateFromFeatures(feats), 0
	}
	mean, std := forest.PredictWithStd(X)
	v := mean[0]
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v, std[0]
}

// matrixFromRow wraps one feature vector as a 1-row matrix.
func matrixFromRow(feats []float64) *linalg.Matrix {
	return linalg.FromRows([][]float64{feats})
}

// TestScore returns the black box model's score on the clean held-out
// test set, the reference point for validation thresholds.
func (p *Predictor) TestScore() float64 { return p.testScore }

// TestOutputs returns the retained model outputs Ŷtest on the clean test
// set (needed by the validator's hypothesis-test features).
func (p *Predictor) TestOutputs() *linalg.Matrix { return p.testOutputs }

// TrainMAE reports the cross-validated mean absolute error of the
// regressor on the synthetic corruption meta-dataset.
func (p *Predictor) TrainMAE() float64 { return p.trainMAE }

// NumExamples reports how many corrupted datasets were used for training.
func (p *Predictor) NumExamples() int { return p.numExamples }

// Model returns the wrapped black box model.
func (p *Predictor) Model() data.Model { return p.model }
