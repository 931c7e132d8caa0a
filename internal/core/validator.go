package core

import (
	"context"
	"fmt"
	"math"

	"blackboxval/internal/data"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
	"blackboxval/internal/obs"
)

// ValidatorConfig controls the training of a performance validator.
type ValidatorConfig struct {
	// Generators are the expected error types; validator training batches
	// are random mixtures of these. Required.
	Generators []errorgen.Generator
	// Threshold t is the acceptable relative score drop: serving
	// predictions are valid while score >= (1-t)*testScore (default 0.05).
	Threshold float64
	// Batches is the number of synthetic serving batches used to train
	// the classifier (default 300).
	Batches int
	// PercentileStep for the output featurizer (default 5).
	PercentileStep float64
	// UseKSFeatures adds Kolmogorov–Smirnov statistics between test and
	// serving outputs to the feature set (default true; the ablation
	// benchmark disables it).
	DisableKSFeatures bool
	// Score is the scoring function L (default AccuracyScore).
	Score ScoreFunc
	// Trees and Depth configure the gradient-boosted classifier
	// (defaults 60 and 3).
	Trees, Depth int
	// PredictorRepetitions sizes the training of the internal performance
	// predictor whose score estimate is one of the validator's features
	// (default 25 per generator).
	PredictorRepetitions int
	// Workers bounds the goroutine pool generating synthetic training
	// batches (default runtime.NumCPU(); 1 runs strictly serially). Every
	// batch derives its own RNG from Seed and the batch index, so the
	// trained validator is bit-identical for every Workers value.
	Workers int
	// Seed drives all randomness.
	Seed int64
}

func (c *ValidatorConfig) defaults() {
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	if c.Batches == 0 {
		c.Batches = 300
	}
	if c.PercentileStep == 0 {
		c.PercentileStep = 5
	}
	if c.Score == nil {
		c.Score = AccuracyScore
	}
	if c.Trees == 0 {
		c.Trees = 60
	}
	if c.Depth == 0 {
		c.Depth = 3
	}
	if c.PredictorRepetitions == 0 {
		c.PredictorRepetitions = 25
	}
}

// Validator decides whether the black box model's score on an unlabeled
// serving batch dropped by more than the user's threshold relative to the
// clean test score. It is a gradient-boosted decision tree over the
// output-percentile features augmented with hypothesis-test statistics
// between the retained test outputs Ŷtest and the serving outputs.
type Validator struct {
	model data.Model
	cfg   ValidatorConfig

	clf         *models.GBDTClassifier
	predictor   *Predictor // supplies the score-estimate feature
	testScore   float64
	testOutputs *linalg.Matrix
	// sortedRef is SortedColumns(testOutputs), built wherever testOutputs
	// is set: the KS features test every batch against it without
	// copying or re-sorting, and concurrent callers (training workers,
	// the shadow tap) only read it.
	sortedRef  [][]float64
	trainPos   int
	trainTotal int
}

// TrainValidator builds a performance validator for the given black box
// model using corrupted versions of the held-out test set: each batch is
// hit by a random mixture of the expected error types at random
// magnitudes, labeled 1 ("violation") when the resulting score falls below
// (1-t) times the clean test score.
func TrainValidator(model data.Model, test *data.Dataset, cfg ValidatorConfig) (*Validator, error) {
	return TrainValidatorCtx(context.Background(), model, test, cfg)
}

// TrainValidatorCtx is TrainValidator with per-stage telemetry: a
// "train_validator" span (children: validator_setup, the internal
// predictor's own train_predictor subtree, validator_batches,
// validator_fit) on the tracer carried by ctx, plus the shared
// stage-duration histograms. Instrumentation never touches an RNG
// stream, so the trained validator is identical to TrainValidator's.
func TrainValidatorCtx(ctx context.Context, model data.Model, test *data.Dataset, cfg ValidatorConfig) (*Validator, error) {
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

	ctx, root := obs.StartSpan(ctx, "train_validator")
	defer root.End()
	root.SetMetric("rows", float64(test.Len()))
	root.SetMetric("generators", float64(len(cfg.Generators)))
	root.SetMetric("workers", float64(resolveWorkers(cfg.Workers)))

	v := &Validator{model: model, cfg: cfg}
	// The KS reference Ŷtest and the synthetic training batches must come
	// from DISJOINT halves of the test data: real serving batches share no
	// rows with the reference, and a training batch that overlaps the
	// reference rows would make the clean regime look artificially
	// well-aligned (D biased toward 0), teaching the classifier to alarm
	// on every genuinely disjoint batch.
	_, _, setupDone := stageSpan(ctx, "validator_setup")
	refPart, batchPart := test.Split(0.5, jobRNG(cfg.Seed+20, streamValidatorSetup, 0))
	v.testOutputs = model.PredictProba(refPart)
	v.sortedRef = SortedColumns(v.testOutputs)
	v.testScore = cfg.Score(model.PredictProba(test), test.Labels)
	setupDone()

	// The paper's validator "uses our performance predictions" as input:
	// train the regression predictor on the reference half (disjoint from
	// the batch half, so the estimate feature is out-of-sample for every
	// training batch, as it will be at serving time).
	var err error
	v.predictor, err = TrainPredictorCtx(ctx, model, refPart, PredictorConfig{
		Generators:  cfg.Generators,
		Repetitions: cfg.PredictorRepetitions,
		ForestSizes: []int{50},
		Score:       cfg.Score,
		Workers:     cfg.Workers,
		Seed:        cfg.Seed + 21,
	})
	if err != nil {
		return nil, fmt.Errorf("core: training the validator's internal predictor: %w", err)
	}

	// The synthetic batches are computed in parallel waves (batch b is a
	// pure function of cfg.Seed and b); the adaptive filtering below then
	// consumes them strictly in index order, so the training set is
	// bit-identical for every worker count.
	source := &validatorBatchSource{
		v:         v,
		mixture:   errorgen.Mixture{Generators: cfg.Generators},
		batchPart: batchPart,
		wave:      cfg.Batches,
	}
	line := (1 - cfg.Threshold) * v.testScore
	_, batchSp, batchDone := stageSpan(ctx, "validator_batches")
	batchRows := 0
	var feats [][]float64
	var labels []int
	for b := 0; b < cfg.Batches || len(labels) < cfg.Batches/2; b++ {
		if b >= 4*cfg.Batches {
			break // safety valve if nearly everything lands on the line
		}
		res := source.get(b)
		batchRows += res.size
		// Skip batches whose score lands within the sampling noise of the
		// decision line: their labels are coin flips that only teach the
		// classifier noise. (Binomial std of accuracy on a batch of size n.)
		noise := scoreNoise(res.score, res.size)
		if diff := res.score - line; diff > -noise && diff < noise {
			continue
		}
		label := 0
		if res.score < line {
			label = 1
			v.trainPos++
		}
		feats = append(feats, res.feats)
		labels = append(labels, label)
	}
	v.trainTotal = len(labels)
	if v.trainPos == 0 || v.trainPos == v.trainTotal {
		// Degenerate regime (e.g. errors that cannot move the score past
		// the line): fall back to including the borderline batches so the
		// classifier still sees both labels where possible.
		feats = feats[:0]
		labels = labels[:0]
		v.trainPos = 0
		for b := 0; b < cfg.Batches; b++ {
			res := source.get(b)
			label := 0
			if res.score < line {
				label = 1
				v.trainPos++
			}
			feats = append(feats, res.feats)
			labels = append(labels, label)
		}
		v.trainTotal = len(labels)
	}
	batchSp.SetMetric("batches", float64(v.trainTotal))
	batchSp.SetMetric("violations", float64(v.trainPos))
	batchSp.SetMetric("rows_scored", float64(batchRows))
	batchDone()

	_, _, fitDone := stageSpan(ctx, "validator_fit")
	v.clf = &models.GBDTClassifier{Trees: cfg.Trees, MaxDepth: cfg.Depth, Seed: cfg.Seed}
	err = v.clf.Fit(linalg.FromRows(feats), labels, 2)
	fitDone()
	if err != nil {
		return nil, fmt.Errorf("core: fitting validator classifier: %w", err)
	}
	return v, nil
}

// scoreNoise returns one binomial standard deviation of an accuracy-like
// score measured on a batch of n examples.
func scoreNoise(score float64, n int) float64 {
	if n < 1 {
		return 0
	}
	p := score
	if p < 0.05 {
		p = 0.05
	}
	if p > 0.95 {
		p = 0.95
	}
	return math.Sqrt(p * (1 - p) / float64(n))
}

// features assembles the validator's feature vector for one batch, given
// as its SortedColumns: the regression predictor's score estimate
// together with its margin over the alarm line, and (unless disabled) the
// per-class Kolmogorov–Smirnov D statistic and p-value between the
// retained test outputs and the batch's. The raw output percentiles are
// deliberately NOT included: they encode "was the batch corrupted at
// all", which correlates with — but is not — the question "did the score
// drop more than t", and a classifier given both signals overfits the
// former (corruption of a robust model often leaves its accuracy intact).
func (v *Validator) features(cols [][]float64) []float64 {
	estimate := v.predictor.EstimateFromSorted(cols)
	f := make([]float64, 2, 2+2*len(v.sortedRef))
	f[0], f[1] = estimate, estimate-(1-v.cfg.Threshold)*v.testScore
	if !v.cfg.DisableKSFeatures {
		f = appendKSFeatures(f, v.sortedRef, cols)
	}
	return f
}

// Violation reports whether the validator predicts that the model's score
// on the serving batch dropped by more than the threshold. The companion
// boolean convention matches the baselines: true = raise an alarm.
func (v *Validator) Violation(serving *data.Dataset) bool {
	return v.ViolationFromProba(v.model.PredictProba(serving))
}

// ViolationFromProba is Violation for callers already holding the model
// outputs.
func (v *Validator) ViolationFromProba(proba *linalg.Matrix) bool {
	return v.ViolationFromSorted(SortedColumns(proba))
}

// ViolationFromSorted is ViolationFromProba over the batch's
// SortedColumns, for callers that share one sorted view between the
// validator and other order statistics of the same batch.
func (v *Validator) ViolationFromSorted(cols [][]float64) bool {
	return v.probability(cols) >= 0.5
}

// TestScore returns the clean-test reference score.
func (v *Validator) TestScore() float64 { return v.testScore }

// Threshold returns the configured acceptable relative drop.
func (v *Validator) Threshold() float64 { return v.cfg.Threshold }

// TrainBalance reports how many of the synthetic training batches were
// violations, out of the total — useful for diagnosing degenerate
// training regimes.
func (v *Validator) TrainBalance() (violations, total int) {
	return v.trainPos, v.trainTotal
}

// ViolationProbability returns the validator classifier's probability
// that the serving batch violates the threshold, for callers that want to
// apply their own alarm cutoff or inspect calibration.
func (v *Validator) ViolationProbability(proba *linalg.Matrix) float64 {
	return v.probability(SortedColumns(proba))
}

// probability is the classifier's violation probability for one batch
// given as its SortedColumns.
func (v *Validator) probability(cols [][]float64) float64 {
	X := linalg.FromRows([][]float64{v.features(cols)})
	return v.clf.PredictProba(X).At(0, 1)
}
