package obs

// timeseries.go is the drift timeline store: a fixed-capacity ring of
// per-window aggregates fed by a small TimeSeries API. Writers record
// named samples into the currently open window ("estimate", "ks_max",
// "alarm", ...) and commit one logical batch at a time; after
// WindowBatches commits the window closes, its aggregates (count, sum,
// min, max, last, quantile sketch) are frozen into the ring, and any
// registered OnWindowClose hooks — the alert rules engine, dashboards —
// observe the finished window. Closed windows are immutable, so
// snapshots handed to scrapers never race with the ingest path.

import (
	"fmt"
	"sync"
	"time"

	"blackboxval/internal/stats"
)

// TimeSeriesConfig configures a TimeSeries store.
type TimeSeriesConfig struct {
	// Capacity bounds the retained closed windows (default 128). The
	// oldest window is evicted when the ring is full.
	Capacity int
	// WindowBatches is the number of Commit calls aggregated into one
	// window before it closes automatically (default 1: every batch is
	// its own window).
	WindowBatches int
	// Quantiles are the percentiles in (0,100) tracked per series by a
	// mergeable deterministic quantile sketch (default 50, 90, 99).
	// Values outside (0,100) are rejected by NewTimeSeries.
	Quantiles []float64
}

func (c *TimeSeriesConfig) defaults() {
	if c.Capacity <= 0 {
		c.Capacity = 128
	}
	if c.WindowBatches <= 0 {
		c.WindowBatches = 1
	}
	if c.Quantiles == nil {
		c.Quantiles = []float64{50, 90, 99}
	}
}

// Aggregate is the frozen per-series summary of one closed window.
type Aggregate struct {
	Count int     `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Last is the most recently recorded sample of the window — the
	// value dashboards plot when one batch maps to one window.
	Last float64 `json:"last"`
	// Quantiles holds the sketch estimates keyed "p50", "p90", ...
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	// SumExact is the order-invariant exact accumulator behind Sum,
	// carried so federated merges reproduce the single-node sum
	// bit-for-bit instead of re-adding shard floats.
	SumExact *stats.ExactSum `json:"sum_exact,omitempty"`
	// Sketch is the mergeable quantile sketch behind Quantiles — the
	// sufficient statistic /federate ships so fleet quantiles and drift
	// tests are computed over merged distributions, never aggregated
	// from per-shard point estimates.
	Sketch *stats.KLL `json:"sketch,omitempty"`
}

// Mean returns the window mean (0 for an empty aggregate).
func (a Aggregate) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// Reduce collapses the aggregate to one value: "mean" (default when
// kind is empty), "min", "max", "last", "sum" or "count".
func (a Aggregate) Reduce(kind string) (float64, error) {
	switch kind {
	case "", "mean":
		return a.Mean(), nil
	case "min":
		return a.Min, nil
	case "max":
		return a.Max, nil
	case "last":
		return a.Last, nil
	case "sum":
		return a.Sum, nil
	case "count":
		return float64(a.Count), nil
	}
	return 0, fmt.Errorf("obs: unknown reduce %q (want mean, min, max, last, sum or count)", kind)
}

// Window is one closed timeline window. Windows are immutable once
// closed; the Series map must not be modified by consumers.
type Window struct {
	// Index is the 0-based position of the window in the stream (it
	// keeps growing after old windows are evicted from the ring).
	Index int64 `json:"index"`
	// Start and End bracket the wall-clock lifetime of the window.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Batches is how many Commit calls the window aggregates.
	Batches int `json:"batches"`
	// Series maps series name to its per-window aggregate.
	Series map[string]Aggregate `json:"series"`
}

// openSeries accumulates one series of the currently open window. It
// outlives the window: closing hands the window exact-size copies of
// the sum and sketch and resets them in place for the next one.
type openSeries struct {
	count          int
	min, max, last float64
	sum            stats.ExactSum
	sketch         stats.KLL
}

// TimeSeries is the windowed drift timeline store. It is safe for
// concurrent use: writers may Record/Commit while scrapers call
// Windows. Window-close hooks run synchronously on the committing
// goroutine, after the store's own lock is released.
type TimeSeries struct {
	cfg   TimeSeriesConfig
	qkeys []string // map keys of cfg.Quantiles

	mu        sync.Mutex
	open      map[string]*openSeries
	recorded  int // series with a sample in the open window
	openStart time.Time
	batches   int
	next      int64 // index assigned to the next closed window
	ring      []Window
	hooks     []func(Window)
}

// NewTimeSeries validates the configuration and returns an empty store.
func NewTimeSeries(cfg TimeSeriesConfig) (*TimeSeries, error) {
	cfg.defaults()
	for _, q := range cfg.Quantiles {
		if q <= 0 || q >= 100 {
			return nil, fmt.Errorf("obs: timeline quantile %v out of (0,100)", q)
		}
	}
	return &TimeSeries{cfg: cfg, qkeys: quantileKeys(cfg.Quantiles), open: map[string]*openSeries{}}, nil
}

// Record adds one sample to the named series of the open window.
func (ts *TimeSeries) Record(series string, v float64) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := ts.seriesLocked(series)
	ts.addLocked(s, v)
	s.sketch.Add(v)
}

// RecordAll adds a batch of samples to the named series under a single
// lock acquisition — the bulk path the monitor uses to feed per-class
// output distributions into the timeline. The sketch takes the batch in
// one AddAll; the window ends up exactly as after Record on each sample.
func (ts *TimeSeries) RecordAll(series string, vs []float64) {
	if len(vs) == 0 {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := ts.seriesLocked(series)
	for _, v := range vs {
		ts.addLocked(s, v)
	}
	s.sketch.AddAll(vs)
}

// seriesLocked returns the named series' accumulator, creating it on
// first use.
func (ts *TimeSeries) seriesLocked(series string) *openSeries {
	s := ts.open[series]
	if s == nil {
		s = new(openSeries)
		ts.open[series] = s
	}
	return s
}

// addLocked adds v to every aggregate of s but the sketch, which the
// caller feeds.
func (ts *TimeSeries) addLocked(s *openSeries, v float64) {
	if ts.openStart.IsZero() {
		ts.openStart = time.Now()
	}
	if s.count == 0 {
		ts.recorded++
	}
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum.Add(v)
	s.last = v
}

// Commit marks one logical batch as fully recorded. After WindowBatches
// commits the open window closes: its aggregates join the ring and the
// close hooks fire (on the calling goroutine, outside the store lock).
func (ts *TimeSeries) Commit() {
	ts.mu.Lock()
	ts.batches++
	if ts.batches < ts.cfg.WindowBatches {
		ts.mu.Unlock()
		return
	}
	w, hooks := ts.closeLocked()
	ts.mu.Unlock()
	for _, fn := range hooks {
		fn(w)
	}
}

// CloseWindow force-closes the open window regardless of its commit
// count, firing the hooks. It reports false (and closes nothing) when
// the window holds no commits and no samples.
func (ts *TimeSeries) CloseWindow() (Window, bool) {
	ts.mu.Lock()
	if ts.batches == 0 && ts.recorded == 0 {
		ts.mu.Unlock()
		return Window{}, false
	}
	w, hooks := ts.closeLocked()
	ts.mu.Unlock()
	for _, fn := range hooks {
		fn(w)
	}
	return w, true
}

// closeLocked freezes the open window into the ring. Callers must hold
// ts.mu; the returned hooks must be invoked after releasing it.
func (ts *TimeSeries) closeLocked() (Window, []func(Window)) {
	w := Window{
		Index:   ts.next,
		Start:   ts.openStart,
		End:     time.Now(),
		Batches: ts.batches,
		Series:  make(map[string]Aggregate, ts.recorded),
	}
	if w.Start.IsZero() {
		w.Start = w.End
	}
	for name, s := range ts.open {
		if s.count == 0 {
			// Idle for a whole window: let the accumulator go, so the
			// map holds only series recorded in the last two windows.
			delete(ts.open, name)
			continue
		}
		// The window gets its own copies: it is immutable once closed,
		// and the accumulator is reset in place for the next window.
		w.Series[name] = Aggregate{
			Count: s.count, Sum: s.sum.Value(), Min: s.min, Max: s.max, Last: s.last,
			Quantiles: quantileMap(&s.sketch, ts.cfg.Quantiles, ts.qkeys),
			SumExact:  s.sum.Clone(), Sketch: s.sketch.Clone(),
		}
		s.count = 0
		s.sum.Reset()
		s.sketch.Reset()
	}
	ts.next++
	ts.ring = append(ts.ring, w)
	if len(ts.ring) > ts.cfg.Capacity {
		ts.ring = ts.ring[len(ts.ring)-ts.cfg.Capacity:]
	}
	ts.recorded = 0
	ts.openStart = time.Time{}
	ts.batches = 0
	return w, ts.hooks
}

// quantileKeys renders each percentile of a grid as its JSON key
// ("p50", "p99.9").
func quantileKeys(percentiles []float64) []string {
	keys := make([]string, len(percentiles))
	for i, q := range percentiles {
		keys[i] = fmt.Sprintf("p%g", q)
	}
	return keys
}

// quantileMap reads the percentiles (in (0,100)) off sk, keyed by keys
// (quantileKeys of the grid).
func quantileMap(sk *stats.KLL, percentiles []float64, keys []string) map[string]float64 {
	var fracBuf, valBuf [8]float64
	fracs := fracBuf[:0]
	for _, q := range percentiles {
		fracs = append(fracs, q/100)
	}
	vals := sk.Quantiles(fracs, valBuf[:0])
	out := make(map[string]float64, len(percentiles))
	for i, key := range keys {
		out[key] = vals[i]
	}
	return out
}

// OnWindowClose registers fn to observe every closed window, in close
// order. Hooks run synchronously on the goroutine that closed the
// window; they must not call back into the closing TimeSeries methods
// (Record/Commit/CloseWindow) but may read Windows/Last.
func (ts *TimeSeries) OnWindowClose(fn func(Window)) {
	ts.mu.Lock()
	ts.hooks = append(ts.hooks, fn)
	ts.mu.Unlock()
}

// OpenIndex returns the index the currently open window will carry
// when it closes. Batch observers use it to stamp served batches with
// their timeline window, so late label joins can compute lag in
// windows instead of inferring time from request-id sequence numbers.
func (ts *TimeSeries) OpenIndex() int64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.next
}

// Windows returns a snapshot of the retained closed windows, oldest
// first. The Window structs (and their Series maps) are immutable.
func (ts *TimeSeries) Windows() []Window {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]Window(nil), ts.ring...)
}

// Last returns the most recently closed window.
func (ts *TimeSeries) Last() (Window, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(ts.ring) == 0 {
		return Window{}, false
	}
	return ts.ring[len(ts.ring)-1], true
}

// Len returns the number of retained closed windows.
func (ts *TimeSeries) Len() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.ring)
}

// Capacity returns the configured ring capacity.
func (ts *TimeSeries) Capacity() int { return ts.cfg.Capacity }

// WindowBatches returns the configured commits-per-window.
func (ts *TimeSeries) WindowBatches() int { return ts.cfg.WindowBatches }

// Quantiles returns a copy of the configured percentile grid.
func (ts *TimeSeries) Quantiles() []float64 {
	return append([]float64(nil), ts.cfg.Quantiles...)
}
