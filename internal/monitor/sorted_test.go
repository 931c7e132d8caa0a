package monitor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"blackboxval/internal/linalg"
	"blackboxval/internal/stats"
)

func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// TestObserveRecordsMatchPerCallFormulas pins that the monitor's one
// sorted view per batch changes no recorded bit: the estimate, the
// validator's verdict and the drift statistics equal their per-call
// formulations (each column copied out of the matrix and sorted per
// statistic), on random batches with ties, one-row batches, NaN cells and
// a batch whose class count disagrees with the reference. The timeline
// still receives every output column in row order.
func TestObserveRecordsMatchPerCallFormulas(t *testing.T) {
	f := getFixture(t)
	mon, err := New(Config{Predictor: f.pred, Validator: f.val, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ref := f.pred.TestOutputs()
	grid := stats.PercentileGrid(f.pred.NewStreamAccumulator().PercentileStep())
	all := f.model.PredictProba(f.serving)
	rng := rand.New(rand.NewSource(5))

	for i := 0; i < 16; i++ {
		n := 1 + rng.Intn(60)
		if i%5 == 0 {
			n = 1
		}
		idx := make([]int, n)
		for j := range idx {
			idx[j] = rng.Intn(all.Rows)
		}
		proba := all.SelectRows(idx)
		switch i % 4 {
		case 1: // ties
			for j, v := range proba.Data {
				proba.Data[j] = math.Round(v*4) / 4
			}
		case 2: // NaN cells: a column holding one has KS D = 1
			for j := range proba.Data {
				if rng.Float64() < 0.1 {
					proba.Data[j] = math.NaN()
				}
			}
		case 3: // one class more than the reference: drift is skipped
			wide := linalg.NewMatrix(proba.Rows, proba.Cols+1)
			for r := 0; r < proba.Rows; r++ {
				copy(wide.Row(r), proba.Row(r))
				wide.Set(r, proba.Cols, rng.Float64())
			}
			proba = wide
		}

		rec := mon.ObserveProba(proba)

		var feats []float64
		for c := 0; c < proba.Cols; c++ {
			feats = append(feats, stats.Percentiles(proba.Col(c), grid)...)
		}
		if want := f.pred.EstimateFromFeatures(feats); !sameFloat(rec.Estimate, want) {
			t.Fatalf("batch %d: Estimate %v, per-column formula %v", i, rec.Estimate, want)
		}
		if want := f.val.ViolationProbability(proba) >= 0.5; rec.ValidatorViolation != want {
			t.Fatalf("batch %d: ValidatorViolation %v, want %v", i, rec.ValidatorViolation, want)
		}

		if proba.Cols != ref.Cols {
			if rec.KS != nil || rec.P50Shift != nil || rec.KSMax != 0 {
				t.Fatalf("batch %d: class-count mismatch still produced drift stats %+v", i, rec)
			}
		} else {
			ksMax := 0.0
			for c := 0; c < ref.Cols; c++ {
				ks := stats.KolmogorovSmirnov(proba.Col(c), ref.Col(c)).Statistic
				shift := stats.Percentile(proba.Col(c), 50) - stats.Percentile(ref.Col(c), 50)
				if !sameFloat(rec.KS[c], ks) || !sameFloat(rec.P50Shift[c], shift) {
					t.Fatalf("batch %d class %d: KS %v P50Shift %v, per-call formula %v %v",
						i, c, rec.KS[c], rec.P50Shift[c], ks, shift)
				}
				if ks > ksMax {
					ksMax = ks
				}
			}
			if !sameFloat(rec.KSMax, ksMax) {
				t.Fatalf("batch %d: KSMax %v, want %v", i, rec.KSMax, ksMax)
			}
		}

		w, ok := mon.Timeline().Last()
		if !ok {
			t.Fatalf("batch %d closed no timeline window", i)
		}
		for c := 0; c < proba.Cols; c++ {
			// A NaN cell is a missing sample: the window counts the
			// others and ends in the last of them.
			rows, last := 0, 0.0
			for r := 0; r < proba.Rows; r++ {
				if v := proba.At(r, c); !math.IsNaN(v) {
					rows, last = rows+1, v
				}
			}
			agg := w.Series[newClassSeries(c).proba]
			if agg.Count != rows || !sameFloat(agg.Last, last) {
				t.Fatalf("batch %d: %s count %d last %v, want %d rows ending in %v (row order)",
					i, newClassSeries(c).proba, agg.Count, agg.Last, rows, last)
			}
		}
	}
}

// TestObserveBatchAllocBytes guards the memory one shadow observation
// costs. The held-out reference columns are sorted once — in New for the
// drift KS and the p50 shift, and when the validator is trained or
// loaded for its KS features — and each batch's output columns are sorted
// once and shared by the estimate, the validator and the drift
// statistics. Copying the reference per batch instead — a sorted copy
// per class for the drift KS, a column copy and a sorted copy per class
// for the validator's KS features: six copies for this two-class model,
// at 8 B per reference row — about triples the bytes per 20-row batch
// and fails the 24 KB bound. So does one sorted copy per class of the
// 838-row drift reference alone.
func TestObserveBatchAllocBytes(t *testing.T) {
	f := getFixture(t)
	mon, err := New(Config{Predictor: f.pred, Validator: f.val, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, 20)
	for i := range idx {
		idx[i] = i
	}
	batch := f.serving.SelectRows(idx)
	proba := f.model.PredictProba(batch)
	observe := func() { mon.ObserveBatchProbaID(batch, proba, "alloc-guard") }

	for i := 0; i < 200; i++ { // warm-up: history and timeline rings fill
		observe()
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		observe()
	}
	runtime.ReadMemStats(&after)
	perBatch := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("ObserveBatchProbaID: %d B per 20-row batch (reference %d rows)", perBatch, f.pred.TestOutputs().Rows)
	if perBatch > 24<<10 {
		t.Fatalf("ObserveBatchProbaID allocates %d B per 20-row batch, over the 24 KB bound: is a reference column copied or sorted per batch again?", perBatch)
	}
}
