package obs

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameAggregate reports whether two closed-window aggregates are
// bit-identical: scalars by bits (NaN included), the exact sum by its
// JSON, the sketch by its binary form.
func sameAggregate(t *testing.T, a, b Aggregate) bool {
	t.Helper()
	bits := func(vs ...float64) (out []uint64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	if a.Count != b.Count || fmt.Sprint(bits(a.Sum, a.Min, a.Max, a.Last)) != fmt.Sprint(bits(b.Sum, b.Min, b.Max, b.Last)) {
		return false
	}
	for key, v := range a.Quantiles {
		if w, ok := b.Quantiles[key]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	if len(a.Quantiles) != len(b.Quantiles) || !bytes.Equal(a.SumExact.AppendJSON(nil), b.SumExact.AppendJSON(nil)) {
		return false
	}
	sa, err := a.Sketch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Sketch.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(sa, sb)
}

// TestRecordAllMatchesRecord: a window fed by RecordAll closes exactly
// as one fed the same samples by Record — count, sum, min, max, last
// (NaN first or last included), quantiles and sketch — with batches
// that cross the sketch's exact-to-bucketed cutover in the middle.
func TestRecordAllMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -2.5, 1e308}
	for trial := 0; trial < 200; trial++ {
		one, err := NewTimeSeries(TimeSeriesConfig{WindowBatches: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		bulk, _ := NewTimeSeries(TimeSeriesConfig{WindowBatches: one.WindowBatches()})
		for c := 0; c < 3*one.WindowBatches(); c++ {
			for b := rng.Intn(3); b >= 0; b-- {
				vs := make([]float64, rng.Intn(120))
				for i := range vs {
					if rng.Intn(6) == 0 {
						vs[i] = special[rng.Intn(len(special))]
					} else {
						vs[i] = rng.NormFloat64()
					}
				}
				for _, v := range vs {
					one.Record("proba", v)
				}
				bulk.RecordAll("proba", vs)
			}
			one.Commit()
			bulk.Commit()
		}
		wo, wb := one.Windows(), bulk.Windows()
		if len(wo) != len(wb) {
			t.Fatalf("trial %d: %d windows by Record, %d by RecordAll", trial, len(wo), len(wb))
		}
		for i := range wo {
			a, okA := wo[i].Series["proba"]
			b, okB := wb[i].Series["proba"]
			if okA != okB || (okA && !sameAggregate(t, a, b)) {
				t.Fatalf("trial %d window %d: RecordAll aggregate %+v != Record aggregate %+v", trial, i, b, a)
			}
		}
	}
}

// BenchmarkTimeSeriesClose records one monitor batch per op: 18 scalar
// series and two per-class output series through RecordAll, then
// commits. With one-batch windows every op closes a window (200 values
// per class); with 64-batch windows, one op in 64 does (500 values per
// class).
func BenchmarkTimeSeriesClose(b *testing.B) {
	for _, c := range []struct {
		name          string
		window, batch int
	}{{"one-batch", 1, 200}, {"64-batch", 64, 500}} {
		b.Run(c.name, func(b *testing.B) {
			ts, err := NewTimeSeries(TimeSeriesConfig{WindowBatches: c.window})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var scalars []string
			for i := 0; i < 18; i++ {
				scalars = append(scalars, fmt.Sprintf("scalar_%d", i))
			}
			proba := [2][]float64{make([]float64, c.batch), make([]float64, c.batch)}
			for i := range proba[0] {
				proba[0][i] = rng.Float64()
				proba[1][i] = 1 - proba[0][i]
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, name := range scalars {
					ts.Record(name, rng.Float64())
				}
				ts.RecordAll("proba_class_0", proba[0])
				ts.RecordAll("proba_class_1", proba[1])
				ts.Commit()
			}
		})
	}
}
