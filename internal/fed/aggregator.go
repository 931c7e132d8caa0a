package fed

// aggregator.go: the fleet-side half of the federation layer. An
// Aggregator scrapes N replicas' /federate documents on an interval
// (per-replica timeouts, failures isolated per shard), aligns their
// timeline windows by index, and merges each aligned set — in the
// configured replica order, which is the round-robin stream order —
// into one fleet window via obs.MergeWindowSet. The merged window is
// enriched with fleet-level drift statistics (KS of merged per-class
// serving distributions against the shipped references) and appended
// to a fleet ring that behaves exactly like a replica timeline:
// OnWindowClose hooks drive the stock alert engine, the dashboard
// reads Windows(), and /federate re-exports the merged view so
// aggregators compose hierarchically.
//
// Degradation policy: a replica that has not answered within
// StaleAfter is stale. Stale shards stop gating emission — the fleet
// timeline keeps advancing on the live shards (their last-good
// documents still contribute whatever windows they already shipped) —
// and the gap is surfaced through the ppm_federate_stale_shards gauge
// and the fleet_stale_shards timeline series, not through a false
// alarm.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"blackboxval/internal/labels"
	"blackboxval/internal/obs"
	"blackboxval/internal/stats"
)

// ReplicaConfig names one replica and its /federate URL.
type ReplicaConfig struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// Config configures an Aggregator.
type Config struct {
	// Replicas are the shards to scrape, in stream (round-robin) order —
	// the order windows merge in, which the determinism contract pins.
	Replicas []ReplicaConfig
	// Interval is the scrape cadence of Run (default 2s).
	Interval time.Duration
	// Timeout bounds each per-replica scrape (default 1s).
	Timeout time.Duration
	// StaleAfter is how long a replica may go unanswered before it stops
	// gating fleet window emission (default 5×Interval).
	StaleAfter time.Duration
	// Capacity bounds the fleet window ring (default 128).
	Capacity int
	// RefreshMillis is the fleet dashboard's poll interval (default
	// 2000; <0 disables auto-refresh).
	RefreshMillis int
	// HTTPClient overrides the scrape client (default http.Client with
	// Timeout as its deadline backstop).
	HTTPClient *http.Client
	// Logger receives structured scrape/merge events (nil = slog.Default()).
	Logger *slog.Logger
	// TraceSampleRate head-samples the scrape cycles' traces (<=0 or
	// >1 = 1.0): each sampled cycle mints one trace with a
	// federate_scrape root span and one child per replica fetch, and
	// the traceparent rides the /federate GETs so replica-side spans
	// join the same waterfall.
	TraceSampleRate float64
	// Tracer records the scrape spans (nil = obs.DefaultTracer()).
	Tracer *obs.Tracer
}

func (c *Config) defaults() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 5 * c.Interval
	}
	if c.Capacity <= 0 {
		c.Capacity = 128
	}
	if c.RefreshMillis == 0 {
		c.RefreshMillis = 2000
	}
	if c.TraceSampleRate <= 0 || c.TraceSampleRate > 1 {
		c.TraceSampleRate = 1
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer()
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
}

// shard is the aggregator's live state for one replica.
type shard struct {
	cfg     ReplicaConfig
	doc     *Doc
	lastOK  time.Time
	lastErr string
	fails   int64
}

// Aggregator merges N replicas' drift timelines into one fleet
// timeline. Safe for concurrent use: Run/ScrapeOnce write under the
// aggregator lock while HTTP handlers snapshot.
type Aggregator struct {
	cfg    Config
	client *http.Client
	log    *slog.Logger

	mu        sync.Mutex
	start     time.Time // first scrape; seeds staleness for never-seen shards
	shards    []*shard
	fleet     []obs.Window
	next      int64 // index of the next fleet window to emit
	primed    bool  // next has been aligned to the replicas' rings
	hooks     []func(obs.Window)
	alarmFn   func() bool
	quantiles []float64
	alarmLine float64
	refs      map[string]*stats.KLL
	refsWire  map[string]string // canonical encoding, for mismatch detection

	// metric families wired by RegisterMetrics (nil until then)
	scrapesMetric  *obs.Counter
	errorsMetric   *obs.Counter
	mergedMetric   *obs.Counter
	missedMetric   *obs.Counter
	mismatchMetric *obs.Counter
}

// New validates the configuration and returns a ready aggregator.
func New(cfg Config) (*Aggregator, error) {
	cfg.defaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fed: at least one replica is required")
	}
	seen := map[string]bool{}
	a := &Aggregator{cfg: cfg, client: cfg.HTTPClient, log: cfg.Logger}
	for _, r := range cfg.Replicas {
		if r.Name == "" || r.URL == "" {
			return nil, fmt.Errorf("fed: replica needs both name and url, got %+v", r)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("fed: duplicate replica name %q", r.Name)
		}
		seen[r.Name] = true
		a.shards = append(a.shards, &shard{cfg: r})
	}
	if a.client == nil {
		a.client = &http.Client{Timeout: cfg.Timeout}
	}
	return a, nil
}

// OnWindowClose registers fn to observe every merged fleet window, in
// emission order — the same contract as obs.TimeSeries.OnWindowClose,
// so the stock alert engine wires on unchanged.
func (a *Aggregator) OnWindowClose(fn func(obs.Window)) {
	a.mu.Lock()
	a.hooks = append(a.hooks, fn)
	a.mu.Unlock()
}

// SetAlarming installs the fleet alarm predicate surfaced by /healthz
// and the dashboard (typically: the alert engine has active alerts).
func (a *Aggregator) SetAlarming(fn func() bool) {
	a.mu.Lock()
	a.alarmFn = fn
	a.mu.Unlock()
}

// Alarming reports the fleet alarm state (false until SetAlarming).
func (a *Aggregator) Alarming() bool {
	a.mu.Lock()
	fn := a.alarmFn
	a.mu.Unlock()
	return fn != nil && fn()
}

// scrapeResult is one replica fetch outcome.
type scrapeResult struct {
	doc *Doc
	err error
}

// fetch retrieves and decodes one replica's document, injecting the
// scrape cycle's traceparent when the context carries one.
func (a *Aggregator) fetch(ctx context.Context, url string) (*Doc, error) {
	ctx, cancel := context.WithTimeout(ctx, a.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if tc, traced := obs.TraceFromContext(ctx); traced {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return decodeFederate(resp.Body)
}

// maxFederateBytes bounds one replica's /federate body, matching the
// tsdb's bound on one decoded window record. A 128-window document of
// 200-row batches measures ~0.76 MiB.
const maxFederateBytes = 64 << 20

// decodeFederate decodes one replica's /federate body. A body over
// maxFederateBytes fails like any other scrape failure: the shard goes
// stale and no data is fabricated.
func decodeFederate(r io.Reader) (*Doc, error) {
	lr := &io.LimitedReader{R: r, N: maxFederateBytes}
	var doc Doc
	if err := json.NewDecoder(lr).Decode(&doc); err != nil {
		if lr.N == 0 {
			return nil, fmt.Errorf("federate body exceeds %d bytes", maxFederateBytes)
		}
		return nil, err
	}
	if doc.Version != DocVersion {
		return nil, fmt.Errorf("federate version %d, want %d", doc.Version, DocVersion)
	}
	return &doc, nil
}

// ScrapeReport summarizes one scrape cycle.
type ScrapeReport struct {
	// Errors maps replica name to its failure (healthy replicas absent).
	Errors map[string]string
	// Emitted is how many fleet windows this cycle merged and emitted.
	Emitted int
	// Stale is the number of stale shards after the cycle.
	Stale int
}

// ScrapeOnce runs one synchronous scrape-and-merge cycle: fetch every
// replica concurrently, update shard states, emit every fleet window
// that is ready, fire hooks (outside the lock, in order). It is the
// deterministic core Run loops over — tests drive it directly.
func (a *Aggregator) ScrapeOnce(ctx context.Context) ScrapeReport {
	// One trace per scrape cycle, head-sampled deterministically from
	// the minted trace id: the federate_scrape root spans the cycle,
	// one scrape_replica child per shard, and the traceparent rides
	// every /federate GET. The trace ids are random (scrape cycles are
	// wall-clock driven, outside the §8 replay contract), but the
	// keep/drop decision still uses the shared pure function.
	if tc, err := obs.NewTraceContext(a.cfg.TraceSampleRate); err == nil && tc.Sampled() {
		cycleCtx, cycle := obs.StartSpan(obs.WithTracer(obs.ContextWithTrace(ctx, tc), a.cfg.Tracer), "federate_scrape")
		cycle.SetMetric("replicas", float64(len(a.shards)))
		defer cycle.End()
		ctx = cycleCtx
	}
	results := make([]scrapeResult, len(a.shards))
	var wg sync.WaitGroup
	for i, sh := range a.shards {
		wg.Add(1)
		go func(i int, name, url string) {
			defer wg.Done()
			fetchCtx := ctx
			if _, traced := obs.TraceFromContext(ctx); traced {
				var span *obs.Span
				fetchCtx, span = obs.StartSpan(ctx, "scrape_replica")
				span.SetAttr("replica", name)
				defer span.End()
			}
			doc, err := a.fetch(fetchCtx, url)
			results[i] = scrapeResult{doc: doc, err: err}
		}(i, sh.cfg.Name, sh.cfg.URL)
	}
	wg.Wait()

	now := time.Now()
	report := ScrapeReport{Errors: map[string]string{}}
	a.mu.Lock()
	if a.start.IsZero() {
		a.start = now
	}
	if a.scrapesMetric != nil {
		a.scrapesMetric.Inc()
	}
	for i, sh := range a.shards {
		res := results[i]
		if res.err != nil {
			sh.fails++
			sh.lastErr = res.err.Error()
			report.Errors[sh.cfg.Name] = sh.lastErr
			if a.errorsMetric != nil {
				a.errorsMetric.Inc()
			}
			a.log.Warn("federate scrape failed", "replica", sh.cfg.Name, "err", res.err)
			continue
		}
		sh.doc = res.doc
		sh.lastOK = now
		sh.lastErr = ""
		a.adoptMetadataLocked(sh.cfg.Name, res.doc)
	}
	emitted := a.emitReadyLocked(now)
	report.Emitted = len(emitted)
	report.Stale = a.staleShardsLocked(now)
	hooks := a.hooks
	a.mu.Unlock()

	for _, w := range emitted {
		for _, fn := range hooks {
			fn(w)
		}
	}
	return report
}

// adoptMetadataLocked takes alarm geometry, the quantile grid and the
// reference sketches from the first replica that supplies them, and
// flags replicas whose references disagree — shards validating against
// different held-out distributions would make the fleet drift
// statistics meaningless.
func (a *Aggregator) adoptMetadataLocked(name string, doc *Doc) {
	if a.quantiles == nil && len(doc.Quantiles) > 0 {
		a.quantiles = append([]float64(nil), doc.Quantiles...)
	}
	if a.alarmLine == 0 && doc.AlarmLine != 0 {
		a.alarmLine = doc.AlarmLine
	}
	if doc.References == nil {
		return
	}
	wire := make(map[string]string, len(doc.References))
	for series, sk := range doc.References {
		buf, err := json.Marshal(sk)
		if err != nil {
			continue
		}
		wire[series] = string(buf)
	}
	if a.refs == nil {
		a.refs = doc.References
		a.refsWire = wire
		return
	}
	for series, enc := range wire {
		if prev, ok := a.refsWire[series]; ok && prev != enc {
			if a.mismatchMetric != nil {
				a.mismatchMetric.Inc()
			}
			a.log.Warn("federate reference distribution mismatch",
				"replica", name, "series", series)
			return
		}
	}
}

// staleLocked reports whether a shard is stale at now: it has never
// answered (measured from the first scrape) or its last answer is older
// than StaleAfter.
func (a *Aggregator) staleLocked(sh *shard, now time.Time) bool {
	since := sh.lastOK
	if since.IsZero() {
		since = a.start
	}
	if since.IsZero() {
		return false
	}
	return now.Sub(since) > a.cfg.StaleAfter
}

func (a *Aggregator) staleShardsLocked(now time.Time) int {
	n := 0
	for _, sh := range a.shards {
		if a.staleLocked(sh, now) {
			n++
		}
	}
	return n
}

// emitReadyLocked advances the fleet timeline: window index a.next is
// emitted once every non-stale replica has shipped it, merged in
// replica-config order. Stale replicas contribute whatever their
// last-good document retains but never block emission. Emission stops
// at the first index some live replica has yet to close.
func (a *Aggregator) emitReadyLocked(now time.Time) []obs.Window {
	if !a.primed {
		// Start at the highest first-retained index across available
		// documents, so every shard can still contribute window one.
		aligned := false
		for _, sh := range a.shards {
			if min, ok := minWindowIndex(sh.doc); ok {
				if !aligned || min > a.next {
					a.next = min
				}
				aligned = true
			}
		}
		if !aligned {
			return nil
		}
		a.primed = true
	}
	var emitted []obs.Window
	for {
		ready := true
		contributors := make([]obs.Window, 0, len(a.shards))
		for _, sh := range a.shards {
			stale := a.staleLocked(sh, now)
			if sh.doc == nil {
				if !stale {
					ready = false
					break
				}
				continue
			}
			w, ok := findWindow(sh.doc, a.next)
			if ok {
				contributors = append(contributors, w)
				continue
			}
			if max, hasMax := maxWindowIndex(sh.doc); hasMax && a.next <= max {
				// The shard's ring already evicted this index: its
				// share of the window is lost, not pending.
				if a.missedMetric != nil {
					a.missedMetric.Inc()
				}
				a.log.Warn("federate window evicted before merge",
					"replica", sh.cfg.Name, "window", a.next)
				continue
			}
			if !stale {
				ready = false
				break
			}
		}
		if !ready || len(contributors) == 0 {
			break
		}
		merged, ok := obs.MergeWindowSet(contributors, a.quantiles)
		if !ok {
			break
		}
		merged.Index = a.next
		a.enrichLocked(&merged, now)
		a.fleet = append(a.fleet, merged)
		if len(a.fleet) > a.cfg.Capacity {
			a.fleet = a.fleet[len(a.fleet)-a.cfg.Capacity:]
		}
		a.next++
		if a.mergedMetric != nil {
			a.mergedMetric.Inc()
		}
		emitted = append(emitted, merged)
	}
	return emitted
}

// scalarAggregate wraps a single derived value as a timeline aggregate.
func scalarAggregate(v float64) obs.Aggregate {
	return obs.Aggregate{Count: 1, Sum: v, Min: v, Max: v, Last: v}
}

// enrichLocked appends fleet-level series to a merged window: the KS
// drift statistics of the merged per-class serving distributions
// against the reference sketches (fleet_ks_class_<c>, fleet_ks_max) —
// computed over the true merged distributions, never aggregated from
// per-shard statistics — and the stale-shard count at emission time.
func (a *Aggregator) enrichLocked(w *obs.Window, now time.Time) {
	if a.refs != nil {
		ksMax := 0.0
		found := false
		series := make([]string, 0, len(a.refs))
		for name := range a.refs {
			series = append(series, name)
		}
		sort.Strings(series)
		for _, name := range series {
			agg, ok := w.Series[name]
			if !ok || agg.Sketch == nil {
				continue
			}
			ks := stats.KSDistance(agg.Sketch, a.refs[name])
			w.Series["fleet_ks_"+trimProba(name)] = scalarAggregate(ks)
			if ks > ksMax {
				ksMax = ks
			}
			found = true
		}
		if found {
			w.Series["fleet_ks_max"] = scalarAggregate(ksMax)
		}
	}
	// Fleet label-feedback posterior: the labeled_correct series carries
	// per-row 0/1 samples, so its merged Count/Sum are exact fleet-wide
	// label counts (shard-invariant via ExactSum) and the Beta posterior
	// over them is identical to the one a single process joining every
	// label would hold. Uniform Beta(1,1) prior, matching labels.Config.
	if agg, ok := w.Series[labels.SeriesCorrect]; ok && agg.Count > 0 {
		sum := agg.Sum
		if agg.SumExact != nil {
			sum = agg.SumExact.Value()
		}
		alpha := 1 + sum
		beta := 1 + float64(agg.Count) - sum
		lo, hi := stats.BetaInterval(alpha, beta, 0.95)
		w.Series["fleet_labeled_acc_mean"] = scalarAggregate(stats.BetaMean(alpha, beta))
		w.Series["fleet_labeled_acc_lo95"] = scalarAggregate(lo)
		w.Series["fleet_labeled_acc_hi95"] = scalarAggregate(hi)
	}
	w.Series["fleet_stale_shards"] = scalarAggregate(float64(a.staleShardsLocked(now)))
}

// trimProba turns "proba_class_0" into "class_0" for the fleet KS
// series names.
func trimProba(series string) string {
	const prefix = "proba_"
	if len(series) > len(prefix) && series[:len(prefix)] == prefix {
		return series[len(prefix):]
	}
	return series
}

// Run scrapes on the configured interval until ctx is done. The first
// cycle runs immediately.
func (a *Aggregator) Run(ctx context.Context) {
	a.ScrapeOnce(ctx)
	ticker := time.NewTicker(a.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			a.ScrapeOnce(ctx)
		}
	}
}

// Windows returns a snapshot of the merged fleet windows, oldest first.
func (a *Aggregator) Windows() []obs.Window {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]obs.Window(nil), a.fleet...)
}

// Last returns the most recently merged fleet window.
func (a *Aggregator) Last() (obs.Window, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.fleet) == 0 {
		return obs.Window{}, false
	}
	return a.fleet[len(a.fleet)-1], true
}

// StaleShards returns the number of currently stale replicas.
func (a *Aggregator) StaleShards() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.staleShardsLocked(time.Now())
}

// AlarmLine returns the fleet alarm line (adopted from the replicas; 0
// before the first successful scrape).
func (a *Aggregator) AlarmLine() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.alarmLine
}

// Quantiles returns the adopted percentile grid (nil before the first
// successful scrape).
func (a *Aggregator) Quantiles() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]float64(nil), a.quantiles...)
}

// ShardStatus is one replica's health snapshot.
type ShardStatus struct {
	Name         string `json:"name"`
	URL          string `json:"url"`
	Stale        bool   `json:"stale"`
	Fails        int64  `json:"fails"`
	LastError    string `json:"last_error,omitempty"`
	LastOKMillis int64  `json:"last_ok_age_ms"` // -1 when never scraped
	Observed     int    `json:"observed"`
	Alarming     bool   `json:"alarming"`
	MaxWindow    int64  `json:"max_window"` // -1 when no windows retained
}

// Status is the aggregator's health document served at /status.
type Status struct {
	Replicas    []ShardStatus `json:"replicas"`
	StaleShards int           `json:"stale_shards"`
	FleetAlarm  bool          `json:"fleet_alarm"`
	Windows     int           `json:"windows"`
	NextIndex   int64         `json:"next_index"`
}

// Status snapshots the aggregator's shard health.
func (a *Aggregator) Status() Status {
	alarm := a.Alarming() // outside a.mu: the predicate may take other locks
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	st := Status{FleetAlarm: alarm, Windows: len(a.fleet), NextIndex: a.next}
	for _, sh := range a.shards {
		s := ShardStatus{
			Name:         sh.cfg.Name,
			URL:          sh.cfg.URL,
			Stale:        a.staleLocked(sh, now),
			Fails:        sh.fails,
			LastError:    sh.lastErr,
			LastOKMillis: -1,
			MaxWindow:    -1,
		}
		if !sh.lastOK.IsZero() {
			s.LastOKMillis = now.Sub(sh.lastOK).Milliseconds()
		}
		if sh.doc != nil {
			s.Observed = sh.doc.Observed
			s.Alarming = sh.doc.Alarming
			if max, ok := maxWindowIndex(sh.doc); ok {
				s.MaxWindow = max
			}
		}
		if s.Stale {
			st.StaleShards++
		}
		st.Replicas = append(st.Replicas, s)
	}
	return st
}

// FleetDoc re-exports the merged timeline in the /federate wire format
// (gateway-of-gateways: aggregators can scrape aggregators). The
// fleet's WindowBatches is the per-window batch total across live
// shards, and Observed sums the replicas' watermarks.
func (a *Aggregator) FleetDoc() Doc {
	alarm := a.Alarming()
	serving := a.FleetServing() // outside a.mu: FleetServing locks too
	a.mu.Lock()
	defer a.mu.Unlock()
	doc := Doc{
		Serving:    serving,
		Version:    DocVersion,
		Replica:    "fleet",
		Capacity:   a.cfg.Capacity,
		Quantiles:  append([]float64(nil), a.quantiles...),
		AlarmLine:  a.alarmLine,
		Alarming:   alarm,
		Windows:    append([]obs.Window(nil), a.fleet...),
		References: a.refs,
	}
	for _, sh := range a.shards {
		if sh.doc != nil {
			doc.WindowBatches += sh.doc.WindowBatches
			doc.Observed += sh.doc.Observed
		}
	}
	return doc
}

// RegisterMetrics registers the ppm_federate_* families on reg:
//
//	ppm_federate_replicas                 gauge   configured replicas
//	ppm_federate_stale_shards             gauge   replicas currently stale
//	ppm_federate_fleet_windows            gauge   merged windows retained
//	ppm_federate_scrapes_total            counter scrape cycles
//	ppm_federate_scrape_errors_total      counter failed replica fetches
//	ppm_federate_windows_merged_total     counter fleet windows emitted
//	ppm_federate_missed_windows_total     counter shard windows evicted before merge
//	ppm_federate_reference_mismatch_total counter replicas with divergent references
func (a *Aggregator) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("ppm_federate_replicas",
		"Number of replicas this aggregator scrapes.",
		func() float64 { return float64(len(a.cfg.Replicas)) })
	reg.GaugeFunc("ppm_federate_stale_shards",
		"Replicas whose last successful /federate scrape is older than the staleness bound.",
		func() float64 { return float64(a.StaleShards()) })
	reg.GaugeFunc("ppm_federate_fleet_windows",
		"Merged fleet windows currently retained in the ring.",
		func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return float64(len(a.fleet))
		})
	a.scrapesMetric = reg.Counter("ppm_federate_scrapes_total",
		"Completed scrape cycles across all replicas.")
	a.errorsMetric = reg.Counter("ppm_federate_scrape_errors_total",
		"Failed per-replica /federate fetches.")
	a.mergedMetric = reg.Counter("ppm_federate_windows_merged_total",
		"Fleet windows merged and emitted to the fleet timeline.")
	a.missedMetric = reg.Counter("ppm_federate_missed_windows_total",
		"Shard windows evicted from a replica ring before the fleet could merge them.")
	a.mismatchMetric = reg.Counter("ppm_federate_reference_mismatch_total",
		"Scrapes that found a replica with reference distributions diverging from the fleet's.")
}
