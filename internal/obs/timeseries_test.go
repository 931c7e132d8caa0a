package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestTimeSeriesSingleBatchWindows(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ts.Record("estimate", 0.9-0.1*float64(i))
		ts.Record("alarm", 0)
		ts.Commit()
	}
	windows := ts.Windows()
	if len(windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(windows))
	}
	for i, w := range windows {
		if w.Index != int64(i) {
			t.Fatalf("window %d has index %d", i, w.Index)
		}
		if w.Batches != 1 {
			t.Fatalf("window %d batches = %d, want 1", i, w.Batches)
		}
		agg, ok := w.Series["estimate"]
		if !ok {
			t.Fatalf("window %d missing estimate series", i)
		}
		want := 0.9 - 0.1*float64(i)
		if agg.Last != want || agg.Count != 1 || agg.Min != want || agg.Max != want {
			t.Fatalf("window %d estimate = %+v, want %v", i, agg, want)
		}
		if agg.Quantiles["p50"] != want {
			t.Fatalf("window %d p50 = %v, want %v", i, agg.Quantiles["p50"], want)
		}
		if w.End.Before(w.Start) {
			t.Fatalf("window %d ends before it starts", i)
		}
	}
}

func TestTimeSeriesMultiBatchAggregation(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{WindowBatches: 3, Quantiles: []float64{50}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 3, 2} {
		ts.Record("x", v)
		ts.Commit()
	}
	if ts.Len() != 1 {
		t.Fatalf("closed windows = %d, want 1", ts.Len())
	}
	w, ok := ts.Last()
	if !ok {
		t.Fatal("no last window")
	}
	agg := w.Series["x"]
	if agg.Count != 3 || agg.Sum != 6 || agg.Min != 1 || agg.Max != 3 || agg.Last != 2 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.Mean() != 2 {
		t.Fatalf("mean = %v, want 2", agg.Mean())
	}
	if agg.Quantiles["p50"] != 2 {
		t.Fatalf("p50 = %v, want 2", agg.Quantiles["p50"])
	}
	if w.Batches != 3 {
		t.Fatalf("batches = %d, want 3", w.Batches)
	}
}

func TestTimeSeriesRingEviction(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		ts.Record("v", float64(i))
		ts.Commit()
	}
	windows := ts.Windows()
	if len(windows) != 2 {
		t.Fatalf("retained = %d, want 2", len(windows))
	}
	// Indices keep counting past evicted windows.
	if windows[0].Index != 3 || windows[1].Index != 4 {
		t.Fatalf("indices = %d,%d, want 3,4", windows[0].Index, windows[1].Index)
	}
}

func TestTimeSeriesCloseWindowForcesPartial(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{WindowBatches: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ts.CloseWindow(); ok {
		t.Fatal("empty store should not close a window")
	}
	ts.Record("v", 1)
	ts.Commit()
	w, ok := ts.CloseWindow()
	if !ok || w.Batches != 1 {
		t.Fatalf("forced close = %+v ok=%v", w, ok)
	}
	if ts.Len() != 1 {
		t.Fatalf("ring length = %d, want 1", ts.Len())
	}
}

func TestTimeSeriesHooksFireInOrder(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	ts.OnWindowClose(func(w Window) { got = append(got, w.Index) })
	ts.OnWindowClose(func(w Window) {
		// Hooks may read the store (the alert engine inspects history).
		if ts.Len() == 0 {
			t.Error("hook ran before the window joined the ring")
		}
	})
	for i := 0; i < 3; i++ {
		ts.Record("v", float64(i))
		ts.Commit()
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("hook order = %v", got)
	}
}

func TestTimeSeriesQuantileSketchTracksStream(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{WindowBatches: 100, Quantiles: []float64{50, 90}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ts.Record("lat", float64(i))
		ts.Commit()
	}
	w, ok := ts.Last()
	if !ok {
		t.Fatal("no window")
	}
	q := w.Series["lat"].Quantiles
	if q["p50"] < 30 || q["p50"] > 70 {
		t.Fatalf("p50 = %v, want ~49.5", q["p50"])
	}
	if q["p90"] < 80 || q["p90"] > 99 {
		t.Fatalf("p90 = %v, want ~89.5", q["p90"])
	}
}

func TestTimeSeriesConfigValidation(t *testing.T) {
	if _, err := NewTimeSeries(TimeSeriesConfig{Quantiles: []float64{0}}); err == nil {
		t.Fatal("quantile 0 should be rejected")
	}
	if _, err := NewTimeSeries(TimeSeriesConfig{Quantiles: []float64{100}}); err == nil {
		t.Fatal("quantile 100 should be rejected")
	}
}

func TestAggregateReduce(t *testing.T) {
	a := Aggregate{Count: 2, Sum: 3, Min: 1, Max: 2, Last: 2}
	for kind, want := range map[string]float64{
		"": 1.5, "mean": 1.5, "min": 1, "max": 2, "last": 2, "sum": 3, "count": 2,
	} {
		got, err := a.Reduce(kind)
		if err != nil || got != want {
			t.Fatalf("Reduce(%q) = %v, %v; want %v", kind, got, err, want)
		}
	}
	if _, err := a.Reduce("median"); err == nil {
		t.Fatal("unknown reduce should error")
	}
}

func TestTimeSeriesJSONRoundTrips(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ts.Record("estimate", 0.8)
	ts.Commit()
	buf, err := json.Marshal(ts.Windows())
	if err != nil {
		t.Fatal(err)
	}
	var back []Window
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Series["estimate"].Last != 0.8 {
		t.Fatalf("round trip = %+v", back)
	}
}

// TestTimeSeriesConcurrentScrape pins the lock-safety contract: writers
// commit windows while readers snapshot the ring. Run under -race.
func TestTimeSeriesConcurrentScrape(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{Capacity: 16, WindowBatches: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts.OnWindowClose(func(Window) {})
	const writers, readers, perWriter = 4, 4, 200
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				ts.Record("estimate", float64(base+j))
				ts.Record("ks_max", 0.1)
				ts.Commit()
			}
		}(i * perWriter)
	}
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, w := range ts.Windows() {
					if w.Batches == 0 {
						t.Error("closed window with zero batches")
						return
					}
				}
				ts.Last()
				ts.Len()
			}
		}()
	}
	for ts.Len() < 16 {
	}
	close(stop)
	wg.Wait()
	if got := ts.Len(); got != 16 {
		t.Fatalf("ring length = %d, want 16 (capacity)", got)
	}
}

// TestTimeSeriesClosedWindowsStayImmutable pins the persistent
// accumulators: a series' sum and sketch outlive each window close, so
// the closed window must hold its own copies. Later Record calls never
// reach an already closed window, every window equals what a fresh
// store fed only its samples would close, and an idle series neither
// appears in a window nor makes an empty window closable.
func TestTimeSeriesClosedWindowsStayImmutable(t *testing.T) {
	ts, err := NewTimeSeries(TimeSeriesConfig{})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ts *TimeSeries, round int) {
		for i := 0; i < 150; i++ { // past the sketch's exact regime
			ts.Record("proba", float64((i*7+round)%50)/49)
		}
		ts.Record("estimate", 0.5+float64(round)/10)
		if round == 0 {
			ts.Record("only_first", 3)
		}
	}
	var closed []Window
	var snapshots []string
	for round := 0; round < 3; round++ {
		feed(ts, round)
		ts.Commit()
		w, _ := ts.Last()
		closed = append(closed, w)
		snapshots = append(snapshots, dumpWindow(t, w))

		fresh, err := NewTimeSeries(TimeSeriesConfig{})
		if err != nil {
			t.Fatal(err)
		}
		feed(fresh, round)
		fresh.Commit()
		want, _ := fresh.Last()
		want.Index = w.Index
		if got, want := dumpWindow(t, w), dumpWindow(t, want); got != want {
			t.Fatalf("window %d carries state across the close:\n got %s\nwant %s", round, got, want)
		}
	}
	if _, ok := closed[1].Series["only_first"]; ok {
		t.Fatal("a series idle for a whole window appears in it")
	}
	for i := 0; i < 500; i++ {
		ts.Record("proba", -float64(i))
		ts.Record("estimate", 9)
	}
	for i, w := range closed {
		if got := dumpWindow(t, w); got != snapshots[i] {
			t.Fatalf("recording into the open window changed closed window %d:\n got %s\nwant %s", i, got, snapshots[i])
		}
	}
	ts.Commit()
	if _, ok := ts.CloseWindow(); ok {
		t.Fatal("a window with no commits and no samples closed")
	}
}
