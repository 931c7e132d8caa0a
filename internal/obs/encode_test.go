package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"blackboxval/internal/stats"
)

// refAggregate and refWindow copy Aggregate and Window field for field,
// tags included, without the append encoder: json.Marshal of them is
// the reflection encoding Window.AppendJSON must reproduce.
type refAggregate struct {
	Count     int                `json:"count"`
	Sum       float64            `json:"sum"`
	Min       float64            `json:"min"`
	Max       float64            `json:"max"`
	Last      float64            `json:"last"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	SumExact  *stats.ExactSum    `json:"sum_exact,omitempty"`
	Sketch    *stats.KLL         `json:"sketch,omitempty"`
}

type refWindow struct {
	Index   int64                   `json:"index"`
	Start   time.Time               `json:"start"`
	End     time.Time               `json:"end"`
	Batches int                     `json:"batches"`
	Series  map[string]refAggregate `json:"series"`
}

func reflectJSON(w Window) ([]byte, error) {
	r := refWindow{Index: w.Index, Start: w.Start, End: w.End, Batches: w.Batches}
	if w.Series != nil {
		r.Series = make(map[string]refAggregate, len(w.Series))
		for name, a := range w.Series {
			r.Series[name] = refAggregate(a)
		}
	}
	return json.Marshal(r)
}

// checkWindowJSON asserts AppendJSON appends exactly json.Marshal's
// bytes after an existing prefix, and fails exactly when it fails.
func checkWindowJSON(t testing.TB, w Window) {
	t.Helper()
	want, wantErr := reflectJSON(w)
	prefix := []byte("prefix:")
	got, err := w.AppendJSON(append([]byte(nil), prefix...))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, json.Marshal error %v", err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendJSON diverged from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// FuzzWindowJSON pins the tsdb record payload: Window.AppendJSON writes
// byte for byte what encoding/json writes for the same window, and
// errors (NaN, ±Inf, a time RFC 3339 cannot hold) exactly where it does.
func FuzzWindowJSON(f *testing.F) {
	// Real closed windows: exact and bucketed sketches, NaN counts.
	ts, err := NewTimeSeries(TimeSeriesConfig{Quantiles: []float64{50, 99.9}})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ts.Record("proba_class_0", float64(i%37)/36-0.25)
		ts.Record("alarm", float64(i%2))
	}
	ts.Record("a<b&c>", -0.0)
	ts.Record("ks_max", 1e-9)
	ts.Record("ks_max", 0)
	ts.Commit()
	w, _ := ts.Last()
	checkWindowJSON(f, w)
	w.Start = w.Start.In(time.FixedZone("", -5*3600-30*60))
	checkWindowJSON(f, w)
	checkWindowJSON(f, Window{})
	checkWindowJSON(f, Window{Series: map[string]Aggregate{}})

	// Hand-built windows for each case the encoder branches on.
	exact, bucketed, nans := stats.NewKLL(), stats.NewKLL(), stats.NewKLL()
	for i := 0; i < 5; i++ {
		exact.Add(float64(i) - 2) // negatives and zero
	}
	for i := 0; i < 300; i++ {
		bucketed.Add(float64(i%41)/8 - 2)
	}
	nans.Add(math.NaN())
	exact.Add(math.NaN())
	negSum, flagged := stats.NewExactSum(), stats.NewExactSum()
	negSum.Add(-1e300)
	negSum.Add(-3.5)
	flagged.Add(math.Inf(1))
	flagged.Add(math.NaN())
	zone := time.FixedZone("", 9*3600+45*60)
	for i, w := range []Window{
		{Index: 3, Start: time.Date(2026, 1, 2, 3, 4, 5, 6, zone), End: time.Date(2026, 1, 2, 3, 4, 6, 0, time.UTC), Batches: 2,
			Series: map[string]Aggregate{
				"exact":     {Count: 5, Sum: math.Copysign(0, -1), Min: -2, Max: 2, Last: 2, Quantiles: map[string]float64{"p50": 0, "p99.9": 2}, SumExact: negSum, Sketch: exact},
				"bucketed":  {Count: 300, Sum: 1e21, Min: -2, Max: 3, Last: 1e-7, SumExact: flagged, Sketch: bucketed},
				"nan_only":  {Count: 1, Quantiles: map[string]float64{}, Sketch: nans},
				"a<b>&\"é": {Count: -1, Sum: 0.1},
			}},
		{Series: map[string]Aggregate{"nan": {Sum: math.NaN()}}},
		{Series: map[string]Aggregate{"inf": {Quantiles: map[string]float64{"p50": math.Inf(-1)}}}},
		{Start: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		checkWindowJSON(f, w)
		if _, err := w.AppendJSON(nil); i == 0 && err != nil {
			f.Fatalf("the finite hand-built window failed to encode: %v", err)
		}
	}

	f.Add([]byte{})
	for _, seed := range genSeeds(32, 1) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &windowGen{data: data}
		for {
			checkWindowJSON(t, g.window(len(genNames)))
			if len(g.data) == 0 {
				break
			}
		}
	})
}
