package models

import (
	"fmt"
	"math"
	"math/rand"

	"blackboxval/internal/linalg"
)

// Penalty selects the regularization of the linear model.
type Penalty int

const (
	// L2 penalizes the squared norm of the weights.
	L2 Penalty = iota
	// L1 penalizes the absolute norm, driving weights to exactly zero —
	// the paper notes L1-regularized models may ignore perturbed features
	// entirely, which is one reason raw-data drift detection can mislead.
	L1
)

// SGDClassifier is a softmax (multinomial logistic) regression model
// trained with minibatch stochastic gradient descent, the Go counterpart
// of scikit-learn's SGDClassifier used as the "lr" black box.
type SGDClassifier struct {
	LearningRate float64 // step size (default 0.05)
	Lambda       float64 // regularization strength (default 1e-4)
	Penalty      Penalty
	Epochs       int   // passes over the data (default 30)
	BatchSize    int   // minibatch size (default 32)
	Seed         int64 // RNG seed for shuffling and init

	weights *linalg.Matrix // d x m
	bias    []float64      // m
	classes int
}

func (s *SGDClassifier) defaults() {
	if s.LearningRate == 0 {
		s.LearningRate = 0.05
	}
	if s.Lambda == 0 {
		s.Lambda = 1e-4
	}
	if s.Epochs == 0 {
		s.Epochs = 30
	}
	if s.BatchSize == 0 {
		s.BatchSize = 32
	}
}

// Fit trains the model by minimizing cross-entropy plus the penalty.
func (s *SGDClassifier) Fit(X *linalg.Matrix, y []int, classes int) error {
	if X.Rows != len(y) {
		return fmt.Errorf("models: %d rows but %d labels", X.Rows, len(y))
	}
	if classes < 2 {
		return fmt.Errorf("models: need at least 2 classes, got %d", classes)
	}
	s.defaults()
	rng := rand.New(rand.NewSource(s.Seed + 1))
	d := X.Cols
	s.classes = classes
	s.weights = linalg.NewMatrix(d, classes)
	s.bias = make([]float64, classes)
	for i := range s.weights.Data {
		s.weights.Data[i] = rng.NormFloat64() * 0.01
	}

	idx := make([]int, X.Rows)
	for i := range idx {
		idx[i] = i
	}
	gradW := linalg.NewMatrix(d, classes)
	gradB := make([]float64, classes)
	probs := make([]float64, classes)
	for epoch := 0; epoch < s.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lr := s.LearningRate / (1 + 0.02*float64(epoch))
		for start := 0; start < len(idx); start += s.BatchSize {
			end := start + s.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			batch := idx[start:end]
			for i := range gradW.Data {
				gradW.Data[i] = 0
			}
			for j := range gradB {
				gradB[j] = 0
			}
			for _, r := range batch {
				row := X.Row(r)
				s.logits(probs, row)
				softmaxInPlace(probs)
				for c := 0; c < classes; c++ {
					g := probs[c]
					if c == y[r] {
						g -= 1
					}
					if g == 0 {
						continue
					}
					gradB[c] += g
					for f, xv := range row {
						if xv != 0 {
							gradW.Data[f*classes+c] += g * xv
						}
					}
				}
			}
			scale := lr / float64(len(batch))
			for i, g := range gradW.Data {
				w := s.weights.Data[i] - scale*g
				switch s.Penalty {
				case L2:
					w -= lr * s.Lambda * s.weights.Data[i]
				case L1:
					// soft-threshold toward zero
					shrink := lr * s.Lambda
					if w > shrink {
						w -= shrink
					} else if w < -shrink {
						w += shrink
					} else {
						w = 0
					}
				}
				s.weights.Data[i] = w
			}
			for j, g := range gradB {
				s.bias[j] -= scale * g
			}
		}
	}
	return nil
}

// logits writes the raw scores for a single example into out (one slot
// per class), clamping to a safe range so corrupted inputs (e.g. scaled
// by 1000x) yield saturated probabilities instead of NaN.
func (s *SGDClassifier) logits(out, row []float64) {
	copy(out, s.bias)
	for f, xv := range row {
		if xv == 0 {
			continue
		}
		wr := s.weights.Row(f)
		for c, wv := range wr {
			out[c] += xv * wv
		}
	}
	for c, v := range out {
		out[c] = clampLogit(v)
	}
}

func clampLogit(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v > 500:
		return 500
	case v < -500:
		return -500
	default:
		return v
	}
}

func softmaxInPlace(xs []float64) {
	max := xs[0]
	for _, v := range xs[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range xs {
		e := math.Exp(v - max)
		xs[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range xs {
		xs[i] *= inv
	}
}

// PredictProba implements Classifier.
func (s *SGDClassifier) PredictProba(X *linalg.Matrix) *linalg.Matrix {
	out := linalg.NewMatrix(X.Rows, s.classes)
	for i := 0; i < X.Rows; i++ {
		probs := out.Row(i)
		s.logits(probs, X.Row(i))
		softmaxInPlace(probs)
	}
	return out
}

// LRCandidates returns the paper's grid for the lr model: regularization
// type (L1/L2) crossed with learning rate.
func LRCandidates(seed int64) []Candidate {
	var cands []Candidate
	for _, pen := range []Penalty{L2, L1} {
		for _, lr := range []float64{0.01, 0.05, 0.2} {
			pen, lr := pen, lr
			name := fmt.Sprintf("lr(penalty=%d,eta=%g)", pen, lr)
			cands = append(cands, Candidate{Name: name, New: func() Classifier {
				return &SGDClassifier{LearningRate: lr, Penalty: pen, Seed: seed}
			}})
		}
	}
	return cands
}
