package baselines

import (
	"math"
	"math/rand"
	"testing"

	"blackboxval/internal/linalg"
	"blackboxval/internal/stats"
)

// TestBBSESortedReferenceDecisionsUnchanged pins that testing against a
// reference sorted once in NewBBSE decides exactly like the per-call
// formulation (each reference and serving column copied and sorted for
// every batch), on random batches with ties, one-row batches and NaN
// cells.
func TestBBSESortedReferenceDecisionsUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cell := func(shift float64) float64 {
		if rng.Float64() < 0.3 {
			return math.Round(rng.Float64()*4) / 4 // ties
		}
		return math.Min(1, rng.Float64()*(1+shift))
	}
	ref := linalg.NewMatrix(300, 3)
	for i := range ref.Data {
		ref.Data[i] = cell(0)
	}
	bbse := NewBBSE(nil, ref)
	alarms := 0
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(80)
		if trial%7 == 0 {
			rows = 1
		}
		shift := float64(trial%5) * 0.1
		proba := linalg.NewMatrix(rows, ref.Cols)
		for i := range proba.Data {
			proba.Data[i] = cell(shift)
			if trial%6 == 5 && rng.Float64() < 0.05 {
				proba.Data[i] = math.NaN()
			}
		}
		want := false
		alpha := stats.BonferroniAlpha(Alpha, ref.Cols)
		for c := 0; c < ref.Cols; c++ {
			if stats.KolmogorovSmirnov(ref.Col(c), proba.Col(c)).Rejected(alpha) {
				want = true
				break
			}
		}
		if got := bbse.ViolationFromProba(proba); got != want {
			t.Fatalf("trial %d (%d rows, shift %.1f): BBSE says %v, per-call formula %v", trial, rows, shift, got, want)
		}
		if want {
			alarms++
		}
	}
	if alarms == 0 || alarms == 200 {
		t.Fatalf("%d/200 alarms: the batches do not exercise both decisions", alarms)
	}
}
