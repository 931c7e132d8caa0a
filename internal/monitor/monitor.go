// Package monitor implements the serving-side integration the paper's
// introduction motivates: "end users and serving systems can raise alarms
// if this estimate is significantly below the expected prediction quality
// of the black box model". A Monitor consumes a stream of serving
// batches, records the performance predictor's estimate for each, applies
// an alarm policy with optional hysteresis (k consecutive violating
// batches before an alarm fires, suppressing one-off flukes), and keeps a
// bounded history for dashboards and postmortems.
package monitor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"blackboxval/internal/core"
	"blackboxval/internal/data"
	"blackboxval/internal/linalg"
	"blackboxval/internal/obs"
	"blackboxval/internal/stats"
)

// Config configures a Monitor.
type Config struct {
	// Predictor estimates the score per batch. Required.
	Predictor *core.Predictor
	// Validator optionally contributes its binary decision per batch; when
	// set, a batch counts as violating if EITHER the estimate drops below
	// the threshold line or the validator raises an alarm.
	Validator *core.Validator
	// Threshold is the tolerated relative score drop for the
	// estimate-based alarm (default 0.05).
	Threshold float64
	// Hysteresis is the number of consecutive violating batches required
	// before Alarming flips to true (default 1: alarm immediately).
	Hysteresis int
	// HistoryLimit bounds the retained per-batch records (default 1024).
	HistoryLimit int
	// WindowSize is the number of single predictions per evaluation
	// window for row-level observation via ObserveRow (default 500).
	// Batch-level Observe/ObserveProba ignore it.
	WindowSize int
	// TimelineWindow is how many observed batches aggregate into one
	// drift-timeline window (default 1: one window per batch).
	TimelineWindow int
	// TimelineCapacity bounds the retained closed timeline windows
	// (default 128).
	TimelineCapacity int
	// DashboardRefresh is the auto-refresh interval of the HTML
	// dashboard's /timeline poll (default 5s; <0 disables auto-refresh).
	DashboardRefresh time.Duration
	// Tracer records the monitor_observe spans of sampled traces (nil =
	// obs.DefaultTracer()). A monitor embedded in a gateway process may
	// share the gateway's tracer or, behind its own journal, keep a
	// separate per-component trace stream.
	Tracer *obs.Tracer
}

func (c *Config) defaults() {
	if c.Threshold == 0 {
		c.Threshold = 0.05
	}
	if c.Hysteresis == 0 {
		c.Hysteresis = 1
	}
	if c.HistoryLimit == 0 {
		c.HistoryLimit = 1024
	}
	if c.WindowSize == 0 {
		c.WindowSize = 500
	}
	if c.TimelineWindow <= 0 {
		c.TimelineWindow = 1
	}
	if c.TimelineCapacity <= 0 {
		c.TimelineCapacity = 128
	}
	if c.DashboardRefresh == 0 {
		c.DashboardRefresh = 5 * time.Second
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer()
	}
}

// Record is the monitoring outcome for one serving batch.
type Record struct {
	// Seq is the 0-based index of the batch in the stream.
	Seq int
	// Size is the number of examples in the batch.
	Size int
	// Estimate is the predictor's score estimate.
	Estimate float64
	// EstimateViolation is true when Estimate fell below (1-t)*testScore.
	EstimateViolation bool
	// ValidatorViolation is the validator's decision (false when no
	// validator is configured).
	ValidatorViolation bool
	// Violating is the combined per-batch verdict.
	Violating bool
	// Alarming reports the monitor state after this batch, i.e. whether
	// the hysteresis run length has been reached.
	Alarming bool
	// RequestID is the end-to-end correlation id of the serving request
	// that produced this batch (empty when the caller did not carry one,
	// e.g. file-watch batches or ObserveRow windows).
	RequestID string `json:",omitempty"`
	// TraceID is the W3C trace id of the serving request (empty for
	// untraced batches): the key that opens the cross-process waterfall
	// at /debug/traces/{traceid} or via ppm-diagnose -trace.
	TraceID string `json:",omitempty"`
	// Window is the drift-timeline window index this batch lands in —
	// the served-at timestamp label feedback joins against, so label lag
	// is measured in windows rather than inferred from Seq.
	Window int64
	// KS holds the per-class two-sample Kolmogorov–Smirnov D statistic
	// between this batch's output column and the held-out test outputs.
	// Nil for row-streamed windows (no full output sample available).
	KS []float64 `json:",omitempty"`
	// KSMax is the largest per-class KS statistic — the headline drift
	// signal for the timeline.
	KSMax float64 `json:",omitempty"`
	// P50Shift is the per-class shift of the output median against the
	// test outputs (serving p50 minus test p50). Nil for row-streamed
	// windows.
	P50Shift []float64 `json:",omitempty"`
}

// Monitor tracks the estimated performance of one deployed model. It is
// safe for concurrent use.
type Monitor struct {
	cfg  Config
	line float64 // alarm line: (1-t) * testScore

	// timeline is the windowed drift store fed by commit; it has its own
	// lock and is fed outside m.mu, so OnWindowClose hooks (the alert
	// engine) may call back into the monitor.
	timeline *obs.TimeSeries
	// refCols / refP50 are the per-class reference distributions (held-out
	// test outputs, sorted once here) that serving batches drift against.
	// refSketches are the same distributions as mergeable sketches — the
	// static half of the drift-test sufficient statistics /federate ships,
	// so a fleet aggregator can recompute KS against merged serving
	// distributions.
	refCols     [][]float64
	refP50      []float64
	refSketches map[string]*stats.KLL

	mu        sync.Mutex
	seq       int
	run       int // current consecutive-violation run length
	alarms    int
	history   []Record
	window    *core.StreamAccumulator // lazily created by ObserveRow
	observers []BatchObserver

	// Counter families wired by RegisterMetrics (nil until then).
	batchesMetric    *obs.Counter
	violationsMetric *obs.Counter
	alarmsMetric     *obs.Counter
}

// New validates the configuration and returns a ready monitor.
func New(cfg Config) (*Monitor, error) {
	cfg.defaults()
	if cfg.Predictor == nil {
		return nil, fmt.Errorf("monitor: a predictor is required")
	}
	if cfg.Threshold < 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("monitor: threshold %v out of [0,1)", cfg.Threshold)
	}
	if cfg.Hysteresis < 1 {
		return nil, fmt.Errorf("monitor: hysteresis must be >= 1")
	}
	timeline, err := obs.NewTimeSeries(obs.TimeSeriesConfig{
		Capacity:      cfg.TimelineCapacity,
		WindowBatches: cfg.TimelineWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("monitor: %w", err)
	}
	m := &Monitor{
		cfg:      cfg,
		line:     (1 - cfg.Threshold) * cfg.Predictor.TestScore(),
		timeline: timeline,
	}
	if ref := cfg.Predictor.TestOutputs(); ref != nil && ref.Rows > 0 {
		m.refCols = core.SortedColumns(ref)
		m.refP50 = make([]float64, ref.Cols)
		m.refSketches = make(map[string]*stats.KLL, ref.Cols)
		for c := 0; c < ref.Cols; c++ {
			m.refP50[c] = stats.PercentileSorted(m.refCols[c], 50)
			sk := stats.NewKLL()
			sk.AddAll(m.refCols[c]) // the sketch is a function of the multiset
			m.refSketches[probaSeries(c)] = sk
		}
	}
	return m, nil
}

// BatchObserver receives every observed batch after its record is
// committed: the raw serving rows (nil when the caller only had model
// outputs, or for row-streamed windows), the model outputs (nil for
// row-streamed windows) and the committed record. Observers run
// synchronously on the observing goroutine, before the batch's signals
// feed the drift timeline — so by the time a window close fires an
// alert hook, observers (e.g. the incident flight recorder's
// reservoir) have already seen the triggering batch.
//
// batch and proba are borrowed: they are valid only during the call
// (the gateway's shadow worker decodes the next batch into the same
// storage), so an observer copies whatever it keeps, as the incident
// reservoir and the label store do.
type BatchObserver func(batch *data.Dataset, proba *linalg.Matrix, rec Record)

// OnObserve registers fn as a batch observer. Register before traffic
// starts.
func (m *Monitor) OnObserve(fn BatchObserver) {
	m.mu.Lock()
	m.observers = append(m.observers, fn)
	m.mu.Unlock()
}

func (m *Monitor) notifyObservers(batch *data.Dataset, proba *linalg.Matrix, rec Record) {
	m.mu.Lock()
	observers := m.observers
	m.mu.Unlock()
	for _, fn := range observers {
		fn(batch, proba, rec)
	}
}

// Observe runs the black box on the batch and records the outcome. Use
// ObserveProba when the model outputs are already available (e.g. logged
// by the serving system).
func (m *Monitor) Observe(batch *data.Dataset) Record {
	return m.ObserveBatchProbaID(batch, m.cfg.Predictor.Model().PredictProba(batch), "")
}

// ObserveProba records the outcome for a batch of model outputs.
func (m *Monitor) ObserveProba(proba *linalg.Matrix) Record {
	return m.ObserveBatchProbaID(nil, proba, "")
}

// ObserveProbaID is ObserveProba with an end-to-end correlation id: the
// gateway passes the request's X-Request-ID so a serving request can be
// traced from proxy log to shadow-validation verdict.
func (m *Monitor) ObserveProbaID(proba *linalg.Matrix, requestID string) Record {
	return m.ObserveBatchProbaID(nil, proba, requestID)
}

// ObserveBatchProbaID is the full observation entry point: model
// outputs plus, when the caller has them, the raw serving rows that
// produced them (handed to batch observers for incident forensics) and
// the end-to-end correlation id. batch may be nil.
func (m *Monitor) ObserveBatchProbaID(batch *data.Dataset, proba *linalg.Matrix, requestID string) Record {
	return m.ObserveBatchProbaCtx(context.Background(), batch, proba, requestID)
}

// ObserveBatchProbaCtx is ObserveBatchProbaID under a context that may
// carry a W3C trace context (the gateway's shadow tap forwards the
// serving request's): sampled traces get a monitor_observe span —
// estimate, drift statistics and verdict attached — recorded into the
// monitor's tracer, and the record carries the trace id so /history
// rows link to their waterfalls.
func (m *Monitor) ObserveBatchProbaCtx(ctx context.Context, batch *data.Dataset, proba *linalg.Matrix, requestID string) Record {
	if tc, traced := obs.TraceFromContext(ctx); traced && tc.Sampled() {
		_, span := obs.StartSpan(obs.WithTracer(obs.ContextWithTrace(ctx, tc), m.cfg.Tracer), "monitor_observe")
		if requestID != "" {
			span.SetAttr("request_id", requestID)
		}
		rec := m.observeBatchProba(batch, proba, requestID, tc.TraceID.String())
		span.SetMetric("estimate", rec.Estimate)
		span.SetMetric("rows", float64(rec.Size))
		if rec.KSMax > 0 {
			span.SetMetric("ks_max", rec.KSMax)
		}
		span.SetAttr("violating", fmt.Sprintf("%t", rec.Violating))
		span.End()
		return rec
	}
	return m.observeBatchProba(batch, proba, requestID, "")
}

// observeScratch is one observation's working storage: the sorted view
// and the row-order column feedTimeline records. It is pooled, so each
// observing goroutine has its own and a stream of batches allocates
// none.
type observeScratch struct {
	sorter core.ColumnSorter
	col    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(observeScratch) }}

// maxPooledCells bounds the batch (rows × classes) whose scratch goes
// back to the pool; a bigger batch's is left to the GC.
const maxPooledCells = 1 << 16

func (m *Monitor) observeBatchProba(batch *data.Dataset, proba *linalg.Matrix, requestID, traceID string) Record {
	s := scratchPool.Get().(*observeScratch)
	defer func() {
		if proba.Rows*proba.Cols <= maxPooledCells {
			scratchPool.Put(s)
		}
	}()
	// One sorted view serves every order statistic below; proba itself
	// stays in row order for the observers and the timeline.
	cols := s.sorter.Sort(proba)
	estimate := m.cfg.Predictor.EstimateFromSorted(cols)
	rec := Record{
		Size:              proba.Rows,
		Estimate:          estimate,
		EstimateViolation: estimate < m.line,
		RequestID:         requestID,
		TraceID:           traceID,
		Window:            m.timeline.OpenIndex(),
	}
	if m.cfg.Validator != nil {
		rec.ValidatorViolation = m.cfg.Validator.ViolationFromSorted(cols)
	}
	rec.Violating = rec.EstimateViolation || rec.ValidatorViolation
	m.drift(&rec, cols)
	m.commitState(&rec)
	m.notifyObservers(batch, proba, rec)
	m.feedTimeline(&rec, proba, s)
	return rec
}

// drift fills the per-class distribution-shift statistics from the
// batch's sorted columns: the two-sample KS D between each serving output
// column and the held-out test outputs, and the shift of the column
// median. Skipped when the predictor kept no test outputs or the batch's
// class count disagrees with the reference (a misconfigured backend
// should not panic the monitor).
func (m *Monitor) drift(rec *Record, cols [][]float64) {
	if m.refCols == nil || len(cols) != len(m.refCols) || rec.Size == 0 {
		return
	}
	rec.KS = make([]float64, len(cols))
	rec.P50Shift = make([]float64, len(cols))
	for c, col := range cols {
		rec.KS[c] = stats.KolmogorovSmirnovSorted(col, m.refCols[c]).Statistic
		rec.P50Shift[c] = stats.PercentileSorted(col, 50) - m.refP50[c]
		if rec.KS[c] > rec.KSMax {
			rec.KSMax = rec.KS[c]
		}
	}
}

// commitState applies the hysteresis state machine and appends to
// history under m.mu. Callers feed the drift timeline afterwards (see
// feedTimeline), outside the lock: window-close hooks run on this
// goroutine and may read the monitor.
func (m *Monitor) commitState(rec *Record) {
	m.mu.Lock()
	rec.Seq = m.seq
	m.seq++
	if rec.Violating {
		m.run++
	} else {
		m.run = 0
	}
	rec.Alarming = m.run >= m.cfg.Hysteresis
	if rec.Alarming {
		m.alarms++
	}
	m.history = append(m.history, *rec)
	if len(m.history) > m.cfg.HistoryLimit {
		m.history = m.history[len(m.history)-m.cfg.HistoryLimit:]
	}
	if m.batchesMetric != nil {
		m.batchesMetric.Inc()
		if rec.Violating {
			m.violationsMetric.Inc()
		}
		if rec.Alarming {
			m.alarmsMetric.Inc()
		}
	}
	m.mu.Unlock()
}

// feedTimeline appends one record's signals to the drift timeline as a
// committed batch. Series names are stable API: dashboards and alert
// rules address them. When the batch's raw model outputs are available
// they feed per-class proba_class_<c> series, whose window sketches are
// the serving-side drift-test sufficient statistics the federation
// layer merges across replicas. Each class column is copied in row
// order into s.col, which the timeline reads and does not keep.
func (m *Monitor) feedTimeline(rec *Record, proba *linalg.Matrix, s *observeScratch) {
	m.timeline.Record("estimate", rec.Estimate)
	m.timeline.Record("alarm", boolSeries(rec.Alarming))
	m.timeline.Record("violation", boolSeries(rec.Violating))
	m.timeline.Record("batch_size", float64(rec.Size))
	if rec.KS != nil {
		m.timeline.Record("ks_max", rec.KSMax)
		for c := range rec.KS {
			m.timeline.Record(fmt.Sprintf("ks_class_%d", c), rec.KS[c])
			m.timeline.Record(fmt.Sprintf("p50_shift_class_%d", c), rec.P50Shift[c])
		}
	}
	if proba != nil {
		for c := 0; c < proba.Cols; c++ {
			s.col = proba.AppendCol(s.col[:0], c)
			m.timeline.RecordAll(probaSeries(c), s.col)
		}
	}
	m.timeline.Commit()
}

// probaSeries names the timeline series carrying the model's output
// distribution for one class.
func probaSeries(class int) string {
	return fmt.Sprintf("proba_class_%d", class)
}

func boolSeries(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ObserveRow consumes a single model output (one prediction's probability
// vector) for deployments that cannot batch. Rows accumulate in a KLL
// streaming window of Config.WindowSize predictions; when the window
// fills, the monitor evaluates it like a batch and returns the resulting
// record with done=true. Streaming windows use only the estimate-based
// alarm: the validator's hypothesis-test features need the full output
// sample and are skipped.
func (m *Monitor) ObserveRow(probaRow []float64) (rec Record, done bool) {
	m.mu.Lock()
	if m.window == nil {
		m.window = m.cfg.Predictor.NewStreamAccumulator()
	}
	m.window.Add(probaRow)
	if m.window.Count() < m.cfg.WindowSize {
		m.mu.Unlock()
		return Record{}, false
	}
	feats := m.window.Features()
	size := m.window.Count()
	m.window.Reset()
	m.mu.Unlock()

	estimate := m.cfg.Predictor.EstimateFromFeatures(feats)
	rec = Record{
		Size:              size,
		Estimate:          estimate,
		EstimateViolation: estimate < m.line,
		Window:            m.timeline.OpenIndex(),
	}
	rec.Violating = rec.EstimateViolation
	m.commitState(&rec)
	m.notifyObservers(nil, nil, rec)
	m.feedTimeline(&rec, nil, nil)
	return rec, true
}

// Alarming reports whether the monitor is currently in the alarm state.
func (m *Monitor) Alarming() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.run >= m.cfg.Hysteresis
}

// AlarmLine returns the score below which a batch counts as violating.
func (m *Monitor) AlarmLine() float64 { return m.line }

// Predictor returns the performance predictor the monitor estimates
// with (its retained test outputs are the reference distribution the
// incident flight recorder attributes drift against).
func (m *Monitor) Predictor() *core.Predictor { return m.cfg.Predictor }

// Timeline returns the windowed drift store. Register alert engines on
// it with Timeline().OnWindowClose(engine.Evaluate) before traffic
// starts.
func (m *Monitor) Timeline() *obs.TimeSeries { return m.timeline }

// ReferenceSketches returns the per-class reference output
// distributions (held-out test outputs) as mergeable sketches, keyed by
// the proba_class_<c> series names they drift against. Nil when the
// predictor retained no test outputs. The sketches are shared and must
// be treated as immutable.
func (m *Monitor) ReferenceSketches() map[string]*stats.KLL { return m.refSketches }

// Observed returns the number of batches (or streamed windows) the
// monitor has committed — the replica-side progress counter /federate
// exposes so aggregators and tests can tell when traffic has drained.
func (m *Monitor) Observed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// DashboardRefresh returns the configured dashboard auto-refresh
// interval (<= 0 means auto-refresh is disabled).
func (m *Monitor) DashboardRefresh() time.Duration {
	if m.cfg.DashboardRefresh < 0 {
		return 0
	}
	return m.cfg.DashboardRefresh
}

// History returns a copy of the retained per-batch records, oldest first.
func (m *Monitor) History() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Record(nil), m.history...)
}

// Summary aggregates the monitoring history.
type Summary struct {
	Batches        int
	Violations     int
	AlarmedBatches int
	MeanEstimate   float64
	MinEstimate    float64
	LastEstimate   float64
}

// Summarize aggregates the retained history.
func (m *Monitor) Summarize() Summary {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Summary{Batches: len(m.history)}
	if len(m.history) == 0 {
		return s
	}
	s.MinEstimate = m.history[0].Estimate
	sum := 0.0
	for _, rec := range m.history {
		sum += rec.Estimate
		if rec.Estimate < s.MinEstimate {
			s.MinEstimate = rec.Estimate
		}
		if rec.Violating {
			s.Violations++
		}
		if rec.Alarming {
			s.AlarmedBatches++
		}
	}
	s.MeanEstimate = sum / float64(len(m.history))
	s.LastEstimate = m.history[len(m.history)-1].Estimate
	return s
}
