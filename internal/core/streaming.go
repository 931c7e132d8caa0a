package core

import (
	"fmt"

	"blackboxval/internal/stats"
)

// StreamAccumulator builds the percentile features of Algorithm 2 from a
// stream of individual model outputs, without buffering the batch: each
// class column is tracked by a stats.KLL sketch — the same deterministic
// sketch behind the drift timeline and fleet federation — so memory is
// bounded by the sketch's bucket grid regardless of how many predictions
// flow through. This serves deployments where the serving system logs
// one prediction at a time and batching is impractical.
type StreamAccumulator struct {
	classes  int
	step     float64
	grid     []float64
	sketches []stats.KLL
	rows     int // KLL.Count skips NaN inputs; this counts every row
}

// NewStreamAccumulator returns an accumulator for the given class count
// and percentile grid step (0 means the default step of 5).
func NewStreamAccumulator(classes int, percentileStep float64) *StreamAccumulator {
	if classes < 2 {
		panic(fmt.Sprintf("core: need at least 2 classes, got %d", classes))
	}
	if percentileStep == 0 {
		percentileStep = 5
	}
	return &StreamAccumulator{
		classes:  classes,
		step:     percentileStep,
		grid:     stats.PercentileGrid(percentileStep),
		sketches: make([]stats.KLL, classes),
	}
}

// Add consumes one model output (a probability row of length classes).
func (a *StreamAccumulator) Add(probaRow []float64) {
	if len(probaRow) != a.classes {
		panic(fmt.Sprintf("core: output row has %d classes, accumulator expects %d", len(probaRow), a.classes))
	}
	for c, v := range probaRow {
		a.sketches[c].Add(v)
	}
	a.rows++
}

// Count returns the number of predictions consumed.
func (a *StreamAccumulator) Count() int { return a.rows }

// Features returns the current percentile feature vector, compatible with
// PredictionStatistics over the same outputs.
func (a *StreamAccumulator) Features() []float64 {
	out := make([]float64, 0, a.classes*len(a.grid))
	for c := range a.sketches {
		for _, p := range a.grid {
			out = append(out, a.sketches[c].Quantile(p/100))
		}
	}
	return out
}

// Reset clears the accumulator for the next window.
func (a *StreamAccumulator) Reset() {
	clear(a.sketches)
	a.rows = 0
}

// PercentileStep returns the configured grid step.
func (a *StreamAccumulator) PercentileStep() float64 { return a.step }

// EstimateFromFeatures runs the regression model of Algorithm 2 directly
// on a percentile feature vector, e.g. one produced by a
// StreamAccumulator. The vector must use the predictor's percentile step.
func (p *Predictor) EstimateFromFeatures(feats []float64) float64 {
	X := matrixFromRow(feats)
	v := p.reg.Predict(X)[0]
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// NewStreamAccumulator returns an accumulator matched to this predictor's
// class count and percentile grid.
func (p *Predictor) NewStreamAccumulator() *StreamAccumulator {
	step := p.cfg.PercentileStep
	if step == 0 {
		step = 5
	}
	return NewStreamAccumulator(p.testOutputs.Cols, step)
}
