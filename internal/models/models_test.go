package models

import (
	"math"
	"math/rand"
	"testing"

	"blackboxval/internal/linalg"
)

// blobs generates a 2-class gaussian-blob classification problem.
func blobs(n int, sep float64, seed int64) (*linalg.Matrix, []int) {
	rng := rand.New(rand.NewSource(seed))
	X := linalg.NewMatrix(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(2)
		y[i] = c
		shift := sep * float64(2*c-1)
		for j := 0; j < 4; j++ {
			X.Set(i, j, rng.NormFloat64()+shift)
		}
	}
	return X, y
}

func checkProba(t *testing.T, proba *linalg.Matrix) {
	t.Helper()
	for i := 0; i < proba.Rows; i++ {
		sum := 0.0
		for _, v := range proba.Row(i) {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("invalid probability %v in row %d", v, i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func trainAndScore(t *testing.T, clf Classifier, sep float64) float64 {
	t.Helper()
	Xtr, ytr := blobs(600, sep, 1)
	Xte, yte := blobs(300, sep, 2)
	if err := clf.Fit(Xtr, ytr, 2); err != nil {
		t.Fatal(err)
	}
	proba := clf.PredictProba(Xte)
	checkProba(t, proba)
	return Accuracy(proba, yte)
}

func TestSGDClassifierLearnsBlobs(t *testing.T) {
	acc := trainAndScore(t, &SGDClassifier{Seed: 1}, 1.5)
	if acc < 0.95 {
		t.Fatalf("lr accuracy = %v, want >= 0.95", acc)
	}
}

func TestSGDClassifierL1(t *testing.T) {
	acc := trainAndScore(t, &SGDClassifier{Penalty: L1, Lambda: 1e-3, Seed: 1}, 1.5)
	if acc < 0.9 {
		t.Fatalf("L1 lr accuracy = %v", acc)
	}
}

func TestSGDClassifierL1DrivesNoiseWeightsToZero(t *testing.T) {
	// Two informative features and two pure-noise features: under L1 the
	// noise weights should end exactly at zero (this scale-invariance of
	// ignored features is why raw-data drift detection can mislead,
	// per Section 2 of the paper).
	rng := rand.New(rand.NewSource(4))
	n := 800
	X := linalg.NewMatrix(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(2)
		y[i] = c
		shift := 2 * float64(2*c-1)
		X.Set(i, 0, rng.NormFloat64()+shift)
		X.Set(i, 1, rng.NormFloat64()+shift)
		X.Set(i, 2, rng.NormFloat64())
		X.Set(i, 3, rng.NormFloat64())
	}
	clf := &SGDClassifier{Penalty: L1, Lambda: 0.1, Seed: 1}
	if err := clf.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for f := 2; f < 4; f++ {
		for _, w := range clf.weights.Row(f) {
			if w == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 {
		t.Fatal("L1 should zero out noise-feature weights")
	}
	if acc := Accuracy(clf.PredictProba(X), y); acc < 0.9 {
		t.Fatalf("L1 model accuracy = %v", acc)
	}
}

func TestSGDClassifierRobustToHugeInputs(t *testing.T) {
	clf := &SGDClassifier{Seed: 1}
	Xtr, ytr := blobs(300, 1.5, 1)
	clf.Fit(Xtr, ytr, 2)
	Xhuge := linalg.NewMatrix(5, 4)
	for i := range Xhuge.Data {
		Xhuge.Data[i] = 1e12
	}
	checkProba(t, clf.PredictProba(Xhuge)) // must not produce NaN
}

func TestMLPLearnsBlobs(t *testing.T) {
	acc := trainAndScore(t, &MLPClassifier{Hidden: []int{16, 8}, Epochs: 25, Seed: 1}, 1.5)
	if acc < 0.95 {
		t.Fatalf("dnn accuracy = %v, want >= 0.95", acc)
	}
}

func TestMLPLearnsNonlinearXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 800
	X := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		X.Set(i, 0, a)
		X.Set(i, 1, b)
		if a*b > 0 {
			y[i] = 1
		}
	}
	clf := &MLPClassifier{Hidden: []int{16, 8}, Epochs: 60, Seed: 1}
	if err := clf.Fit(X, y, 2); err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(clf.PredictProba(X), y)
	if acc < 0.9 {
		t.Fatalf("XOR accuracy = %v, want >= 0.9 (linear models cap at ~0.5)", acc)
	}
}

func TestGBDTLearnsBlobs(t *testing.T) {
	acc := trainAndScore(t, &GBDTClassifier{Trees: 20, Seed: 1}, 1.5)
	if acc < 0.95 {
		t.Fatalf("xgb accuracy = %v, want >= 0.95", acc)
	}
}

func TestGBDTMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 600
	X := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(3)
		y[i] = c
		X.Set(i, 0, rng.NormFloat64()+3*float64(c))
		X.Set(i, 1, rng.NormFloat64())
	}
	clf := &GBDTClassifier{Trees: 15, Seed: 1}
	if err := clf.Fit(X, y, 3); err != nil {
		t.Fatal(err)
	}
	proba := clf.PredictProba(X)
	checkProba(t, proba)
	if acc := Accuracy(proba, y); acc < 0.9 {
		t.Fatalf("3-class accuracy = %v", acc)
	}
}

func TestRegressionTreeFitsStepFunction(t *testing.T) {
	n := 200
	X := linalg.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := float64(i) / float64(n)
		X.Set(i, 0, v)
		if v > 0.5 {
			y[i] = 3
		}
	}
	tree := &RegressionTree{MaxDepth: 2, MinLeaf: 5}
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := tree.Predict(X)
	mae := 0.0
	for i := range pred {
		mae += math.Abs(pred[i] - y[i])
		// Away from the step boundary (histogram-bin resolution) the fit
		// must be essentially exact.
		v := X.At(i, 0)
		if (v < 0.4 || v > 0.6) && math.Abs(pred[i]-y[i]) > 0.2 {
			t.Fatalf("tree failed step function at %d: pred %v want %v", i, pred[i], y[i])
		}
	}
	if mae/float64(n) > 0.1 {
		t.Fatalf("tree MAE = %v", mae/float64(n))
	}
	if tree.Depth() < 1 {
		t.Fatal("tree did not split")
	}
}

func TestRegressionTreeRespectsMinLeaf(t *testing.T) {
	X := linalg.NewMatrix(6, 1)
	y := []float64{0, 0, 0, 1, 1, 1}
	for i := 0; i < 6; i++ {
		X.Set(i, 0, float64(i))
	}
	tree := &RegressionTree{MaxDepth: 5, MinLeaf: 10}
	tree.Fit(X, y)
	if tree.Depth() != 0 {
		t.Fatal("tree should stay a stump when MinLeaf exceeds half the data")
	}
}

func TestGBDTRegressorFitsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 400
	X := linalg.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()*2 - 1
		X.Set(i, 0, v)
		y[i] = v * v
	}
	reg := &GBDTRegressor{Trees: 80, MaxDepth: 3, Seed: 1}
	if err := reg.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := reg.Predict(X)
	mae := 0.0
	for i := range pred {
		mae += math.Abs(pred[i] - y[i])
	}
	mae /= float64(n)
	if mae > 0.05 {
		t.Fatalf("GBDT regressor MAE = %v", mae)
	}
}

func TestRandomForestRegressor(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 500
	X := linalg.NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		X.Set(i, 0, a)
		X.Set(i, 1, b)
		X.Set(i, 2, rng.Float64()) // noise feature
		y[i] = 2*a + b
	}
	rf := &RandomForestRegressor{Trees: 40, Seed: 1}
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred := rf.Predict(X)
	mae := 0.0
	for i := range pred {
		mae += math.Abs(pred[i] - y[i])
	}
	mae /= float64(n)
	if mae > 0.1 {
		t.Fatalf("forest MAE = %v", mae)
	}
}

func TestRandomForestDeterministicForSeed(t *testing.T) {
	X, yInt := blobs(100, 1, 3)
	y := make([]float64, len(yInt))
	for i, v := range yInt {
		y[i] = float64(v)
	}
	a := &RandomForestRegressor{Trees: 10, Seed: 7}
	b := &RandomForestRegressor{Trees: 10, Seed: 7}
	a.Fit(X, y)
	b.Fit(X, y)
	pa := a.Predict(X)
	pb := b.Predict(X)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("forest not deterministic for fixed seed")
		}
	}
}

func TestGridSearchPicksWorkingModel(t *testing.T) {
	X, y := blobs(300, 1.5, 1)
	cands := []Candidate{
		{Name: "bad", New: func() Classifier {
			return &SGDClassifier{LearningRate: 1e-9, Epochs: 1, Seed: 1}
		}},
		{Name: "good", New: func() Classifier {
			return &SGDClassifier{Seed: 1}
		}},
	}
	clf, name, err := GridSearchCV(X, y, 2, 5, cands, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if name != "good" {
		t.Fatalf("grid search picked %q", name)
	}
	if acc := Accuracy(clf.PredictProba(X), y); acc < 0.9 {
		t.Fatalf("refit accuracy = %v", acc)
	}
}

func TestGridSearchNoCandidates(t *testing.T) {
	X, y := blobs(20, 1, 1)
	if _, _, err := GridSearchCV(X, y, 2, 5, nil, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error")
	}
}

func TestKFoldPartition(t *testing.T) {
	folds := kFoldIndices(10, 3, rand.New(rand.NewSource(1)))
	seen := map[int]bool{}
	total := 0
	for _, f := range folds {
		total += len(f)
		for _, idx := range f {
			if seen[idx] {
				t.Fatal("index in multiple folds")
			}
			seen[idx] = true
		}
	}
	if total != 10 || len(folds) != 3 {
		t.Fatalf("folds = %v", folds)
	}
}

func TestBinningRoundTrip(t *testing.T) {
	X := linalg.FromRows([][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}})
	b := newBinning(X, 4)
	// codes must be monotone in the value
	prev := -1
	for i := 0; i < 8; i++ {
		code := int(b.codes[i*b.cols])
		if code < prev {
			t.Fatalf("bin codes not monotone: %v", b.codes)
		}
		prev = code
	}
}

func TestBinIndexBoundaries(t *testing.T) {
	edges := []float64{1, 2, 3}
	cases := map[float64]int{0.5: 0, 1: 1, 1.5: 1, 3: 3, 99: 3}
	for v, want := range cases {
		if got := binIndex(edges, v); got != want {
			t.Fatalf("binIndex(%v) = %d, want %d", v, got, want)
		}
	}
	if binIndex(edges, math.NaN()) != 0 {
		t.Fatal("NaN should land in bin 0")
	}
}

func TestAccuracyHelper(t *testing.T) {
	proba := linalg.FromRows([][]float64{{0.9, 0.1}, {0.3, 0.7}})
	if Accuracy(proba, []int{0, 1}) != 1 {
		t.Fatal("accuracy wrong")
	}
	if Accuracy(proba, []int{1, 0}) != 0 {
		t.Fatal("accuracy wrong")
	}
}

// TestSGDClassifierAllocsPerBatch pins the lr model's per-row
// allocation: the logits are computed into the output row (Fit: one
// scratch row), so neither call allocates per example.
func TestSGDClassifierAllocsPerBatch(t *testing.T) {
	X, y, _ := benchData(500, 40, 3)
	clf := &SGDClassifier{Epochs: 2, Seed: 1}
	if got := testing.AllocsPerRun(3, func() {
		if err := clf.Fit(X, y, 2); err != nil {
			t.Fatal(err)
		}
	}); got > 20 {
		t.Fatalf("Fit on 500 rows: %.0f allocs, want a constant (<= 20)", got)
	}
	if got := testing.AllocsPerRun(3, func() { clf.PredictProba(X) }); got > 4 {
		t.Fatalf("PredictProba on 500 rows: %.0f allocs, want a constant (<= 4)", got)
	}
}
