// Package gateway implements the shadow-validation serving proxy: the
// single production path between clients and a black box model server.
// It forwards POST /predict_proba traffic through a hardened client
// path — per-request timeouts, retries with exponential backoff and
// jitter on transient failures, and a circuit breaker that sheds load
// with 503/Retry-After while the backend is down — and, off the hot
// path, taps every successful response batch into a performance
// Predictor + Monitor (Schelter et al., SIGMOD 2020) so the model's
// estimated accuracy and alarm state are maintained continuously
// without labels. Observability: Prometheus text metrics at /metrics,
// a JSON /status, and a /healthz that turns 503 when the performance
// alarm fires, so orchestrators can act on model-quality health rather
// than mere liveness.
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/fed"
	"blackboxval/internal/labels"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// Config configures a Gateway.
type Config struct {
	// Backend is the base URL of the model server, e.g.
	// "http://127.0.0.1:8080". Required.
	Backend string
	// Monitor receives the shadow traffic tap. Optional: without it the
	// gateway is a pure resilience proxy (no estimates, /healthz is
	// liveness-only).
	Monitor *monitor.Monitor
	// Labels, when set, mounts the label-feedback endpoints (/labels,
	// /labels/requests, /labels/status) so delayed ground truth posted by
	// labeling systems joins the shadow traffic this gateway served. The
	// store must be registered as a batch observer on the same Monitor.
	Labels *labels.Store
	// HTTPClient overrides the client used to reach the backend
	// (default: the gateway's own, see relayClient).
	HTTPClient *http.Client
	// RequestTimeout bounds each backend attempt (default 10s).
	RequestTimeout time.Duration
	// MaxRetries is the number of re-attempts after the first try on
	// transient failures (default 2).
	MaxRetries int
	// RetryBaseDelay seeds the exponential backoff schedule: attempt i
	// waits ~ RetryBaseDelay * 2^i with jitter (default 50ms).
	RetryBaseDelay time.Duration
	// Breaker tunes the circuit breaker.
	Breaker BreakerConfig
	// ShadowQueueSize bounds the async validation queue (default 256).
	ShadowQueueSize int
	// RawClasses, when set alongside Monitor, names the model's classes
	// (the bundle's class list) for decoding each tapped request body
	// back into the raw serving rows, so the monitor's batch observers —
	// the incident flight recorder's reservoir — see the features that
	// produced the outputs. The shadow worker decodes with a
	// cloud.RequestDecoder of its own. Nil disables raw capture: the tap
	// then carries response bodies only.
	RawClasses []string
	// MaxBodyBytes caps accepted request bodies (default 256 MiB, the
	// same cap the model server applies).
	MaxBodyBytes int64
	// ReplicaName identifies this gateway in /federate documents and on
	// fleet dashboards (default: the request-id prefix, which is unique
	// per process).
	ReplicaName string
	// SLO tunes the serving SLO observatory (latency budget, burn-rate
	// windows, exemplar slots). The zero value enables it with
	// production defaults; see SLOConfig.
	SLO SLOConfig
	// Logger receives operational messages (nil = standard logger).
	Logger *log.Logger
	// Tracer retains per-request span trees for /debug/spans (nil =
	// obs.DefaultTracer()). Tests inject private tracers here.
	Tracer *obs.Tracer
	// TraceSampleRate is the deterministic head-sampling rate applied
	// to traces this gateway mints for clients that arrive without a
	// traceparent (<=0 or unset = 1.0, sample everything). Requests
	// that do carry a traceparent keep the caller's sampled flag — the
	// caller computed it with the same pure function of the trace-id
	// bits, so the fleet agrees on every keep/drop verdict.
	TraceSampleRate float64
}

func (c *Config) defaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	if c.Tracer == nil {
		c.Tracer = obs.DefaultTracer()
	}
	if c.TraceSampleRate <= 0 || c.TraceSampleRate > 1 {
		c.TraceSampleRate = 1
	}
}

// Request outcomes used as metric label values.
const (
	outcomeOK          = "ok"
	outcomeUpstream4xx = "upstream_4xx"
	outcomeUpstream5xx = "upstream_5xx"
	outcomeBackendDown = "backend_unavailable"
	outcomeBreakerOpen = "breaker_open"
	outcomeBadRequest  = "bad_request"
)

// Gateway is the shadow-validation reverse proxy. Create with New,
// mount Handler, and Close when done.
type Gateway struct {
	cfg     Config
	client  *http.Client // Config.HTTPClient, else relayClient()
	breaker *Breaker
	metrics *Metrics
	shadow  *shadowTap
	slo     *sloTracker

	// Request-id mint: a random per-process prefix plus a sequence, so
	// ids from gateway restarts never collide in aggregated logs.
	idPrefix string
	idSeq    atomic.Int64
	// lastFailID remembers the request id of the most recent backend
	// failure, so a breaker trip can be correlated to the request that
	// caused it.
	lastFailID atomic.Value // string

	jitterMu sync.Mutex
	jitter   *rand.Rand
}

// New validates the configuration and returns a ready gateway.
func New(cfg Config) (*Gateway, error) {
	cfg.defaults()
	if cfg.Backend == "" {
		return nil, fmt.Errorf("gateway: a backend URL is required")
	}
	g := &Gateway{
		cfg:     cfg,
		client:  cfg.HTTPClient,
		metrics: newMetrics(),
		jitter:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	if g.client == nil {
		g.client = relayClient()
	}
	g.idPrefix = fmt.Sprintf("gw-%04x", g.jitter.Intn(1<<16))
	g.lastFailID.Store("")
	g.slo = newSLOTracker(cfg.SLO, g.metrics.reg)
	g.breaker = NewBreaker(cfg.Breaker)
	g.breaker.onTransition = func(to BreakerState) {
		g.metrics.breakerState.Set(float64(breakerGaugeValue(to)))
		g.metrics.breakerTransitions.Add(1, to.String())
		g.cfg.Logger.Printf("gateway: circuit breaker -> %s", to)
		// Structured trip event with the request id of the most recent
		// backend failure (empty on success-driven transitions), so a
		// trip can be traced back to the request that caused it.
		id, _ := g.lastFailID.Load().(string)
		slog.Warn("gateway breaker transition", "state", to.String(), "request_id", id)
	}
	if cfg.Monitor != nil {
		g.shadow = newShadowTap(cfg.Monitor, cfg.ShadowQueueSize, cfg.Logger, g.metrics, func(rec monitor.Record) {
			g.metrics.estimate.Set(rec.Estimate)
			g.metrics.alarm.Set(boolGauge(cfg.Monitor.Alarming()))
		}, cfg.RawClasses)
		g.shadow.observeStage = g.slo.observeStage
		g.metrics.shadowDepth.SetFunc(func() float64 { return float64(g.shadow.Depth()) })
	}
	return g, nil
}

// relayClient returns the backend client the gateway builds for
// itself: the default transport with a 64 KiB write buffer. net/http
// sends a body of known length through io.LimitReader, which hides
// bytes.Reader's WriteTo, so once the transport's write buffer (4 KiB
// by default) fills, the rest of the body goes through io.Copy and a
// fresh buffer of up to 32 KiB per request. With 64 KiB, bodies up to
// about 60 KiB reach the socket from the buffer the connection owns.
func relayClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.WriteBufferSize = 64 << 10
	return &http.Client{Transport: t}
}

// Close releases the gateway's background resources (the shadow worker
// drains its queue first) and the idle backend connections of the
// client it built.
func (g *Gateway) Close() {
	if g.shadow != nil {
		g.shadow.Close()
	}
	if g.cfg.HTTPClient == nil {
		g.client.CloseIdleConnections()
	}
}

// Metrics exposes the registry (used by tests and the status handler).
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// Breaker exposes the circuit breaker state.
func (g *Gateway) Breaker() *Breaker { return g.breaker }

// ShadowObserved reports how many batches the shadow tap has fed to the
// monitor so far (0 without a monitor). Useful for tests and draining.
func (g *Gateway) ShadowObserved() int64 {
	if g.shadow == nil {
		return 0
	}
	return g.shadow.Observed()
}

// Handler returns the gateway's HTTP surface:
//
//	POST /predict_proba  — proxied to the backend, bit-identical body
//	GET  /metrics        — Prometheus text exposition
//	GET  /slo            — JSON: per-stage latency quantiles, burn
//	                       rates, top exemplars (the SLO observatory)
//	GET  /status         — JSON: breaker state, monitor summary
//	GET  /healthz        — 200 while healthy, 503 while the performance
//	                       alarm fires
//	GET  /debug/pprof/*  — Go profiling endpoints
//	GET  /debug/spans    — recent span trees as JSON
//	     /monitor/*      — the monitor's own dashboard (when configured)
//	GET  /federate       — mergeable drift state for fleet aggregation
//	                       (when a monitor is configured)
//	     /labels*        — delayed ground-truth ingestion, the active
//	                       sampling worklist, and assessment status
//	                       (when a label store is configured)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict_proba", g.handleProxy)
	mux.Handle("/metrics", g.metrics.Handler())
	mux.HandleFunc("/slo", g.handleSLO)
	mux.HandleFunc("/status", g.handleStatus)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.Handle("/debug/spans", g.cfg.Tracer.Handler())
	traceService := g.cfg.ReplicaName
	if traceService == "" {
		traceService = g.idPrefix
	}
	mux.Handle("/debug/traces", g.cfg.Tracer.TraceHandler(traceService))
	mux.Handle("/debug/traces/", g.cfg.Tracer.TraceHandler(traceService))
	obs.MountPprof(mux)
	if g.cfg.Monitor != nil {
		mux.Handle("/monitor/", http.StripPrefix("/monitor", g.cfg.Monitor.Handler()))
		replica := g.cfg.ReplicaName
		if replica == "" {
			replica = g.idPrefix
		}
		mux.Handle("/federate", fed.ReplicaHandlerServing(g.cfg.Monitor, replica, g.servingDoc))
	}
	if g.cfg.Labels != nil {
		mux.Handle("/labels", g.cfg.Labels.Handler())
		mux.Handle("/labels/", g.cfg.Labels.Handler())
	}
	return mux
}

// mintRequestID returns the next correlation id, e.g. "gw-3f2a-00000017".
func (g *Gateway) mintRequestID() string {
	return fmt.Sprintf("%s-%08d", g.idPrefix, g.idSeq.Add(1))
}

func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	g.slo.inflight.Add(1)
	defer g.slo.inflight.Add(-1)

	// Correlate before anything can fail: reuse the client's id or mint
	// one, pin it on the response header (every status class, including
	// the error paths below), and carry it on the request span.
	id := r.Header.Get(obs.RequestIDHeader)
	if id == "" {
		id = g.mintRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, id)

	// Trace context: extract the client's traceparent (a traced load
	// generator or an upstream hop) or mint a fresh trace, head-sampled
	// deterministically from its id bits. The span joins the trace and
	// the response echoes the traceparent so the caller can open
	// /debug/traces/{traceid} — trace id and X-Request-ID are linked
	// 1:1 through the span's request_id attribute.
	tc, traced := g.extractTrace(r)
	ctx := r.Context()
	if traced {
		ctx = obs.ContextWithTrace(ctx, tc)
	}
	ctx, span := obs.StartSpan(obs.WithTracer(ctx, g.cfg.Tracer), "gateway_request")
	span.SetAttr("request_id", id)
	if traced {
		w.Header().Set(obs.TraceparentHeader, span.TraceContext().Traceparent())
	}

	outcome := outcomeBadRequest
	status := http.StatusOK
	defer func() {
		span.SetAttr("outcome", outcome)
		span.SetMetric("status", float64(status))
		span.End()
		g.finish(outcome, start, id)
		slog.Debug("gateway request", "request_id", id, "outcome", outcome,
			"status", status, "duration", time.Since(start))
	}()

	if r.Method != http.MethodPost {
		status = http.StatusMethodNotAllowed
		http.Error(w, "POST required", status)
		return
	}
	decodeStart := time.Now()
	body, err := cloud.ReadBody(http.MaxBytesReader(w, r.Body, g.cfg.MaxBodyBytes))
	g.slo.observeStage(StageDecode, time.Since(decodeStart).Seconds(), id)
	if err != nil {
		status = http.StatusBadRequest
		http.Error(w, err.Error(), status)
		return
	}

	allowed, retryAfter := g.breaker.Allow()
	if !allowed {
		outcome, status = outcomeBreakerOpen, http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
		http.Error(w, "backend circuit breaker open", status)
		return
	}

	relayStart := time.Now()
	resp, err := g.forward(ctx, body, id)
	g.slo.observeStage(StageRelay, time.Since(relayStart).Seconds(), id)
	if err != nil {
		g.lastFailID.Store(id)
		g.breaker.Failure()
		outcome, status = outcomeBackendDown, http.StatusBadGateway
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			status = http.StatusGatewayTimeout
		}
		http.Error(w, fmt.Sprintf("backend unavailable: %v", err), status)
		return
	}
	g.breaker.Success()

	// Relay the backend response bit-identically: headers, status, body.
	// The correlation header is already pinned above; skip the backend's
	// echo of it so the client never sees a duplicate.
	for k, vs := range resp.header {
		if http.CanonicalHeaderKey(k) == http.CanonicalHeaderKey(obs.RequestIDHeader) {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	status = resp.status
	w.WriteHeader(resp.status)
	w.Write(resp.body)

	outcome = outcomeOK
	switch {
	case resp.status >= 500:
		outcome = outcomeUpstream5xx
	case resp.status >= 400:
		outcome = outcomeUpstream4xx
	case g.shadow != nil:
		// Tap the successful batch for shadow validation, off the hot
		// path; the id and the trace context ride along into the monitor
		// observation, and the request body too when raw capture is on.
		enqueueStart := time.Now()
		g.shadow.EnqueueWithTrace(body, resp.body, id, span.TraceContext())
		g.slo.observeStage(StageShadowEnqueue, time.Since(enqueueStart).Seconds(), id)
	}
}

// extractTrace parses the request's traceparent, or mints a new trace
// context under the configured head-sampling rate when none (or a
// malformed one) arrived. The second return is false only when minting
// failed, in which case the request proceeds untraced.
func (g *Gateway) extractTrace(r *http.Request) (obs.TraceContext, bool) {
	if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
		if tc, err := obs.ParseTraceparent(tp); err == nil {
			return tc, true
		}
	}
	tc, err := obs.NewTraceContext(g.cfg.TraceSampleRate)
	if err != nil {
		return obs.TraceContext{}, false
	}
	return tc, true
}

// backendResponse is a fully buffered backend reply.
type backendResponse struct {
	status int
	header http.Header
	body   []byte
}

// transientStatus reports backend statuses worth retrying: the backend
// is overloaded or restarting, not rejecting the request itself.
func transientStatus(code int) bool {
	return code == http.StatusBadGateway || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout
}

// forward relays the request body to the backend with per-attempt
// timeouts and exponential backoff on transient failures (network
// errors and 502/503/504 statuses). It returns the first non-transient
// response, or the last failure once the retry budget is exhausted —
// a persistent transient failure surfaces as an error so the breaker
// counts it.
func (g *Gateway) forward(ctx context.Context, body []byte, id string) (*backendResponse, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, err := g.attempt(ctx, body, id)
		var reason string
		switch {
		case err != nil:
			lastErr = err
			reason = "network_error"
			if ctx.Err() != nil {
				return nil, err
			}
		case transientStatus(resp.status):
			lastErr = fmt.Errorf("backend returned transient status %d", resp.status)
			reason = "upstream_transient"
		default:
			return resp, nil
		}
		if attempt >= g.cfg.MaxRetries {
			return nil, lastErr
		}
		g.metrics.retries.Add(1, reason)
		if err := g.sleep(ctx, g.backoff(attempt+1)); err != nil {
			return nil, err
		}
	}
}

func (g *Gateway) attempt(ctx context.Context, body []byte, id string) (*backendResponse, error) {
	// Propagate trace context across the hop: sampled requests get a
	// relay child span (the parent the backend's spans attach to);
	// unsampled ones skip the span but still carry the traceparent so
	// the whole fleet keeps agreeing on the keep/drop verdict.
	tc, traced := obs.TraceFromContext(ctx)
	if traced && tc.Sampled() {
		relayCtx, relay := obs.StartSpan(ctx, "gateway_relay")
		relay.SetAttr("request_id", id)
		defer relay.End()
		ctx = relayCtx
		tc = relay.TraceContext()
	}
	attemptCtx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, g.cfg.Backend+"/predict_proba", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("building backend request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, id)
	if traced {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := cloud.ReadBody(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading backend response: %w", err)
	}
	return &backendResponse{status: resp.StatusCode, header: resp.Header.Clone(), body: respBody}, nil
}

// backoff returns the delay before the given (1-based) retry attempt:
// full jitter over an exponentially growing window.
func (g *Gateway) backoff(attempt int) time.Duration {
	window := g.cfg.RetryBaseDelay << (attempt - 1)
	g.jitterMu.Lock()
	defer g.jitterMu.Unlock()
	return window/2 + time.Duration(g.jitter.Int63n(int64(window/2)+1))
}

func (g *Gateway) sleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *Gateway) finish(outcome string, start time.Time, id string) {
	elapsed := time.Since(start).Seconds()
	g.metrics.requests.Add(1, outcome)
	g.metrics.latency.Observe(elapsed, outcome)
	g.slo.observeRequest(elapsed, id)
}

// SLOTimeline exposes the per-request SLO timeline, so callers can
// wire the stock alert engine (cli.WireAlertEngine / OnWindowClose)
// onto the burn-rate series.
func (g *Gateway) SLOTimeline() *obs.TimeSeries { return g.slo.timeline }

// SLO returns the current serving SLO document (the /slo payload).
func (g *Gateway) SLO() SLODoc { return g.slo.doc(5) }

// servingDoc snapshots the SLO tracker into the /federate serving
// section: cloned per-stage histograms the aggregator can merge into
// fleet quantiles bit-equal to a single-node union stream.
func (g *Gateway) servingDoc() *fed.ServingDoc {
	hists, total, over, _, _, _ := g.slo.snapshot()
	return &fed.ServingDoc{
		BudgetSeconds: g.slo.cfg.Budget.Seconds(),
		Target:        g.slo.cfg.Target,
		Requests:      total,
		OverBudget:    over,
		Stages:        hists,
	}
}

func (g *Gateway) handleSLO(w http.ResponseWriter, r *http.Request) {
	if obs.RequireGet(w, r) {
		obs.WriteJSON(w, g.SLO())
	}
}

// Status is the JSON document served at /status.
type Status struct {
	Backend       string           `json:"backend"`
	BreakerState  string           `json:"breaker_state"`
	ShadowEnabled bool             `json:"shadow_enabled"`
	ShadowDepth   int              `json:"shadow_queue_depth,omitempty"`
	Alarming      bool             `json:"alarming"`
	AlarmLine     float64          `json:"alarm_line,omitempty"`
	Monitor       *monitor.Summary `json:"monitor,omitempty"`
}

func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !obs.RequireGet(w, r) {
		return
	}
	st := Status{
		Backend:       g.cfg.Backend,
		BreakerState:  g.breaker.State().String(),
		ShadowEnabled: g.shadow != nil,
	}
	if g.cfg.Monitor != nil {
		st.ShadowDepth = g.shadow.Depth()
		st.Alarming = g.cfg.Monitor.Alarming()
		st.AlarmLine = g.cfg.Monitor.AlarmLine()
		summary := g.cfg.Monitor.Summarize()
		st.Monitor = &summary
	}
	obs.WriteJSON(w, st)
}

// handleHealthz reports model-quality health: 503 while the performance
// alarm fires so orchestrators can route away from a degraded model,
// 200 otherwise.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.cfg.Monitor != nil && g.cfg.Monitor.Alarming() {
		http.Error(w, "performance alarm: estimated score below alarm line", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

func breakerGaugeValue(s BreakerState) int {
	switch s {
	case BreakerClosed:
		return 0
	case BreakerHalfOpen:
		return 1
	default:
		return 2
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
