// Package cli implements the operator workflow behind the ppm-validate
// command: train-and-persist a model bundle (black box + performance
// predictor + validator + schema manifest), generate serving batch CSVs,
// and check unlabeled batches against a bundle. It lives in its own
// package so the workflow is unit-testable without spawning processes.
package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"blackboxval/internal/core"
	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/explain"
	"blackboxval/internal/frame"
	"blackboxval/internal/models"
	"blackboxval/internal/obs"
	"blackboxval/internal/persist"
)

// Bundle file names inside the bundle directory.
const (
	ManifestFile  = "manifest.json"
	ModelFile     = "model.json"
	PredictorFile = "predictor.json"
	ValidatorFile = "validator.json"
	ReferenceFile = "reference.json"
)

// Manifest describes a trained bundle: the schema serving batches must
// follow and the reference quality of the black box.
type Manifest struct {
	Dataset   string             `json:"dataset"`
	Model     string             `json:"model"`
	Threshold float64            `json:"threshold"`
	TestScore float64            `json:"test_score"`
	Classes   []string           `json:"classes"`
	Columns   []frame.ColumnSpec `json:"columns"`
}

// TrainOptions configures Train.
type TrainOptions struct {
	Dataset   string
	Model     string
	Rows      int
	Threshold float64
	OutDir    string
	// Workers bounds the goroutines used for predictor/validator
	// training (0 = all cores). The trained bundle is bit-identical for
	// every value.
	Workers int
	Seed    int64
}

// generateDataset builds the named synthetic tabular dataset.
func generateDataset(name string, rows int, seed int64) (*data.Dataset, error) {
	switch name {
	case "income":
		return datagen.Income(rows, seed), nil
	case "heart":
		return datagen.Heart(rows, seed), nil
	case "bank":
		return datagen.Bank(rows, seed), nil
	case "tweets":
		return datagen.Tweets(rows, seed), nil
	default:
		return nil, fmt.Errorf("cli: unknown dataset %q (want income, heart, bank or tweets)", name)
	}
}

// generatorsFor returns the expected error types for a dataset.
func generatorsFor(dataset string) []errorgen.Generator {
	if dataset == "tweets" {
		return []errorgen.Generator{errorgen.AdversarialText{}}
	}
	return errorgen.KnownTabular()
}

// GeneratorByName resolves an error generator from its wire name.
func GeneratorByName(name string) (errorgen.Generator, error) {
	gens := []errorgen.Generator{
		errorgen.MissingValues{}, errorgen.MissingValues{Numeric: true},
		errorgen.Outliers{}, errorgen.SwappedColumns{}, errorgen.Scaling{},
		errorgen.AdversarialText{}, errorgen.EncodingErrors{},
		errorgen.Typos{}, errorgen.Smearing{}, errorgen.FlippedSigns{},
		errorgen.ImageNoise{}, errorgen.ImageRotation{}, errorgen.NoOp{},
	}
	for _, g := range gens {
		if g.Name() == name {
			return g, nil
		}
	}
	var names []string
	for _, g := range gens {
		names = append(names, g.Name())
	}
	return nil, fmt.Errorf("cli: unknown error type %q (known: %s)", name, strings.Join(names, ", "))
}

// Train builds a bundle: trains the black box, its performance predictor
// and validator, and writes everything plus a manifest to OutDir.
func Train(opts TrainOptions) (string, error) {
	return TrainCtx(context.Background(), opts)
}

// TrainCtx is Train with telemetry: the whole bundle build is recorded
// as a "train_bundle" span tree (train_model, train_predictor,
// train_validator, persist) on the tracer carried by ctx, or the
// process-default tracer otherwise — ppm-validate's -trace flag prints
// the resulting stage report.
func TrainCtx(ctx context.Context, opts TrainOptions) (string, error) {
	if opts.Rows <= 0 {
		opts.Rows = 4000
	}
	if opts.Threshold == 0 {
		opts.Threshold = 0.05
	}
	ctx, root := obs.StartSpan(ctx, "train_bundle")
	defer root.End()
	root.SetMetric("rows", float64(opts.Rows))

	rng := rand.New(rand.NewSource(opts.Seed))
	ds, err := generateDataset(opts.Dataset, opts.Rows, opts.Seed)
	if err != nil {
		return "", err
	}
	balanced := ds.Balance(rng)
	train, test := balanced.Split(0.6, rng)

	var clf models.Classifier
	switch opts.Model {
	case "lr":
		clf = &models.SGDClassifier{Seed: opts.Seed}
	case "dnn":
		clf = &models.MLPClassifier{Seed: opts.Seed}
	case "xgb":
		clf = &models.GBDTClassifier{Seed: opts.Seed}
	default:
		return "", fmt.Errorf("cli: unknown model %q (want lr, dnn or xgb)", opts.Model)
	}
	_, modelSp := obs.StartSpan(ctx, "train_model")
	model, err := models.TrainPipeline(train, clf, 256)
	modelSp.End()
	if err != nil {
		return "", fmt.Errorf("cli: training black box: %w", err)
	}

	gens := generatorsFor(opts.Dataset)
	pred, err := core.TrainPredictorCtx(ctx, model, test, core.PredictorConfig{
		Generators: gens,
		Workers:    opts.Workers,
		Seed:       opts.Seed,
	})
	if err != nil {
		return "", fmt.Errorf("cli: training predictor: %w", err)
	}
	val, err := core.TrainValidatorCtx(ctx, model, test, core.ValidatorConfig{
		Generators: gens,
		Threshold:  opts.Threshold,
		Workers:    opts.Workers,
		Seed:       opts.Seed,
	})
	if err != nil {
		return "", fmt.Errorf("cli: training validator: %w", err)
	}

	_, persistSp := obs.StartSpan(ctx, "persist")
	defer persistSp.End()
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return "", fmt.Errorf("cli: creating bundle dir: %w", err)
	}
	manifest := Manifest{
		Dataset:   opts.Dataset,
		Model:     opts.Model,
		Threshold: opts.Threshold,
		TestScore: pred.TestScore(),
		Classes:   ds.Classes,
	}
	for _, c := range ds.Frame.Columns() {
		manifest.Columns = append(manifest.Columns, frame.ColumnSpec{Name: c.Name, Kind: c.Kind})
	}
	manifestJSON, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(opts.OutDir, ManifestFile), manifestJSON, 0o644); err != nil {
		return "", err
	}
	if err := persist.SavePipeline(filepath.Join(opts.OutDir, ModelFile), model); err != nil {
		return "", err
	}
	if err := persist.SavePredictor(filepath.Join(opts.OutDir, PredictorFile), pred); err != nil {
		return "", err
	}
	if err := persist.SaveValidator(filepath.Join(opts.OutDir, ValidatorFile), val); err != nil {
		return "", err
	}
	// A capped reference sample powers the drift attribution of `check`.
	reference := test
	if reference.Len() > 2000 {
		reference = reference.Sample(2000, rng)
	}
	if err := persist.SaveDataset(filepath.Join(opts.OutDir, ReferenceFile), reference); err != nil {
		return "", err
	}

	return fmt.Sprintf(
		"trained %s on %s (%d rows)\nheld-out accuracy: %.3f\nalarm threshold: %.0f%% relative drop\nbundle written to %s\n",
		opts.Model, opts.Dataset, opts.Rows, pred.TestScore(), opts.Threshold*100, opts.OutDir), nil
}

// LoadServingBundle reads a bundle's manifest, predictor and validator,
// attaching the given model instead of the bundled pipeline. This is the
// gateway-startup path: the black box stays remote (a cloud.Client over
// the backend), while the locally trained validation artifacts ride
// along. The bundled model file is not required to exist.
func LoadServingBundle(dir string, model data.Model) (*Manifest, *core.Predictor, *core.Validator, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("cli: reading manifest: %w", err)
	}
	var manifest Manifest
	if err := json.Unmarshal(raw, &manifest); err != nil {
		return nil, nil, nil, fmt.Errorf("cli: decoding manifest: %w", err)
	}
	pred, err := persist.LoadPredictor(filepath.Join(dir, PredictorFile), model)
	if err != nil {
		return nil, nil, nil, err
	}
	val, err := persist.LoadValidator(filepath.Join(dir, ValidatorFile), model)
	if err != nil {
		return nil, nil, nil, err
	}
	return &manifest, pred, val, nil
}

// LoadBundle reads a bundle from disk and re-attaches the model.
func LoadBundle(dir string) (*Manifest, *models.Pipeline, *core.Predictor, *core.Validator, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("cli: reading manifest: %w", err)
	}
	var manifest Manifest
	if err := json.Unmarshal(raw, &manifest); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("cli: decoding manifest: %w", err)
	}
	model, err := persist.LoadPipeline(filepath.Join(dir, ModelFile))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	pred, err := persist.LoadPredictor(filepath.Join(dir, PredictorFile), model)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	val, err := persist.LoadValidator(filepath.Join(dir, ValidatorFile), model)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return &manifest, model, pred, val, nil
}

// CheckOptions configures Check.
type CheckOptions struct {
	BundleDir string
	BatchCSV  string
	Labeled   bool
}

// Check evaluates one serving batch CSV against a bundle and renders the
// operator report.
func Check(opts CheckOptions) (string, error) {
	manifest, model, pred, val, err := LoadBundle(opts.BundleDir)
	if err != nil {
		return "", err
	}
	ds, err := ReadBatchCSV(opts.BatchCSV, manifest, opts.Labeled)
	if err != nil {
		return "", err
	}
	proba := model.PredictProba(ds)
	cols := core.SortedColumns(proba)
	estimate := pred.EstimateFromSorted(cols)
	alarm := val.ViolationFromSorted(cols)
	line := (1 - manifest.Threshold) * manifest.TestScore

	var b strings.Builder
	fmt.Fprintf(&b, "batch: %s (%d rows)\n", opts.BatchCSV, ds.Len())
	fmt.Fprintf(&b, "reference accuracy (clean test data): %.3f\n", manifest.TestScore)
	fmt.Fprintf(&b, "estimated accuracy on this batch:     %.3f\n", estimate)
	if opts.Labeled {
		truth := core.AccuracyScore(proba, ds.Labels)
		fmt.Fprintf(&b, "true accuracy (labels provided):      %.3f\n", truth)
	}
	fmt.Fprintf(&b, "alarm line ((1-t) * reference):       %.3f\n", line)
	if alarm {
		fmt.Fprintf(&b, "verdict: ALARM — do not rely on these predictions\n")
		// Attribute the alarm to the most drifted columns.
		if reference, err := persist.LoadDataset(filepath.Join(opts.BundleDir, ReferenceFile)); err == nil {
			if report, err := explain.Explain(reference, ds); err == nil {
				fmt.Fprintf(&b, "\nmost suspicious columns:\n")
				for _, f := range report.Top(3) {
					fmt.Fprintf(&b, "  %-26s %-14s p=%.3g missingΔ=%.3f\n",
						f.Column, f.Kind, f.PValue, f.MissingDelta)
				}
			}
		}
	} else {
		fmt.Fprintf(&b, "verdict: ok\n")
	}
	return b.String(), nil
}

// ReadBatchCSV parses a serving batch CSV following the manifest schema.
// With labeled=true the CSV must carry a trailing "label" column holding
// class names.
func ReadBatchCSV(path string, manifest *Manifest, labeled bool) (*data.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cli: opening batch: %w", err)
	}
	defer f.Close()

	specs := append([]frame.ColumnSpec(nil), manifest.Columns...)
	if labeled {
		specs = append(specs, frame.ColumnSpec{Name: "label", Kind: frame.Categorical})
	}
	df, err := frame.ReadCSV(f, specs)
	if err != nil {
		return nil, fmt.Errorf("cli: parsing batch: %w", err)
	}

	labels := make([]int, df.NumRows())
	if labeled {
		classIndex := map[string]int{}
		for i, c := range manifest.Classes {
			classIndex[c] = i
		}
		labelCol := df.Column("label")
		for i, name := range labelCol.Str {
			idx, ok := classIndex[name]
			if !ok {
				return nil, fmt.Errorf("cli: row %d has unknown label %q", i, name)
			}
			labels[i] = idx
		}
		// Rebuild the frame without the label column.
		features := frame.New()
		for _, c := range df.Columns() {
			if c.Name == "label" {
				continue
			}
			switch c.Kind {
			case frame.Numeric:
				features.AddNumeric(c.Name, c.Num)
			case frame.Categorical:
				features.AddCategorical(c.Name, c.Str)
			case frame.Text:
				features.AddText(c.Name, c.Str)
			}
		}
		df = features
	}
	return &data.Dataset{Frame: df, Labels: labels, Classes: manifest.Classes}, nil
}

// GenBatchOptions configures GenBatch.
type GenBatchOptions struct {
	Dataset    string
	Corrupt    string // empty = clean
	Magnitude  float64
	Rows       int
	OutCSV     string
	Seed       int64
	WithLabels bool
}

// GenBatch writes a synthetic (optionally corrupted) serving batch CSV.
func GenBatch(opts GenBatchOptions) (string, error) {
	if opts.Rows <= 0 {
		opts.Rows = 1000
	}
	ds, err := generateDataset(opts.Dataset, opts.Rows, opts.Seed)
	if err != nil {
		return "", err
	}
	state := "clean"
	if opts.Corrupt != "" {
		gen, err := GeneratorByName(opts.Corrupt)
		if err != nil {
			return "", err
		}
		rng := rand.New(rand.NewSource(opts.Seed + 1))
		ds = gen.Corrupt(ds, opts.Magnitude, rng)
		state = fmt.Sprintf("corrupted by %s at magnitude %.2f", opts.Corrupt, opts.Magnitude)
	}

	out := ds.Frame.Clone()
	if opts.WithLabels {
		labelNames := make([]string, ds.Len())
		for i, y := range ds.Labels {
			labelNames[i] = ds.Classes[y]
		}
		out.AddCategorical("label", labelNames)
	}
	f, err := os.Create(opts.OutCSV)
	if err != nil {
		return "", fmt.Errorf("cli: creating output: %w", err)
	}
	defer f.Close()
	if err := out.WriteCSV(f); err != nil {
		return "", err
	}
	return fmt.Sprintf("wrote %d rows of %s data (%s) to %s\n", opts.Rows, opts.Dataset, state, opts.OutCSV), nil
}

// InspectOptions configures Inspect.
type InspectOptions struct {
	// BatchCSV is the file to profile.
	BatchCSV string
}

// Inspect profiles a CSV file with inferred schema: per-column kinds,
// missingness and distribution statistics — the pre-flight check before
// data reaches a model.
func Inspect(opts InspectOptions) (string, error) {
	f, err := os.Open(opts.BatchCSV)
	if err != nil {
		return "", fmt.Errorf("cli: opening batch: %w", err)
	}
	defer f.Close()
	df, err := frame.InferCSV(f)
	if err != nil {
		return "", fmt.Errorf("cli: parsing batch: %w", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d rows, %d columns\n", opts.BatchCSV, df.NumRows(), df.NumCols())
	for _, s := range df.Describe() {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String(), nil
}
