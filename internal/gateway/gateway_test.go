package gateway

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/core"
	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/models"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// fixture trains one small black box + predictor + validator shared by
// every integration test in the package.
type fixture struct {
	model   data.Model
	pred    *core.Predictor
	val     *core.Validator
	serving *data.Dataset
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(t *testing.T) fixture {
	t.Helper()
	fixOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		ds := datagen.Income(3000, 1).Balance(rng)
		source, serving := ds.Split(0.7, rng)
		train, test := source.Split(0.6, rng)
		model, err := models.TrainPipeline(train, &models.GBDTClassifier{Trees: 20, Seed: 1}, 64)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := core.TrainPredictor(model, test, core.PredictorConfig{
			Generators:  errorgen.KnownTabular(),
			Repetitions: 40,
			ForestSizes: []int{30},
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		val, err := core.TrainValidator(model, test, core.ValidatorConfig{
			Generators: errorgen.KnownTabular(),
			Threshold:  0.05,
			Batches:    80,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fix = fixture{model: model, pred: pred, val: val, serving: serving}
	})
	return fix
}

func newMonitor(t *testing.T, f fixture) *monitor.Monitor {
	t.Helper()
	mon, err := monitor.New(monitor.Config{Predictor: f.pred, Validator: f.val, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// newGateway boots a gateway in front of handler and returns it with
// its test server.
func newGateway(t *testing.T, cfg Config, backend http.Handler) (*Gateway, *httptest.Server) {
	t.Helper()
	backendSrv := httptest.NewServer(backend)
	t.Cleanup(backendSrv.Close)
	cfg.Backend = backendSrv.URL
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gwSrv := httptest.NewServer(g.Handler())
	t.Cleanup(gwSrv.Close)
	return g, gwSrv
}

func encodeBatch(t *testing.T, ds *data.Dataset) []byte {
	t.Helper()
	body, err := cloud.EncodeRequest(ds)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/predict_proba", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, respBody
}

func waitObserved(t *testing.T, g *Gateway, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.ShadowObserved() < want {
		if time.Now().After(deadline) {
			t.Fatalf("shadow tap observed %d batches, want %d", g.ShadowObserved(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getStatus(t *testing.T, url string) Status {
	t.Helper()
	resp, err := http.Get(url + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("/status Cache-Control = %q, want no-store", cc)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func scrapeURL(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parsePrometheus(t, string(body))
}

// TestProxyBitIdentical proves acceptance criterion (a): the gateway
// relays backend responses byte for byte.
func TestProxyBitIdentical(t *testing.T) {
	f := getFixture(t)
	backend := cloud.NewServer(f.model).Handler()
	backendSrv := httptest.NewServer(backend)
	defer backendSrv.Close()

	g, err := New(Config{Backend: backendSrv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gwSrv := httptest.NewServer(g.Handler())
	defer gwSrv.Close()

	body := encodeBatch(t, f.serving)
	directResp, direct := post(t, backendSrv.URL, body)
	gwResp, proxied := post(t, gwSrv.URL, body)

	if gwResp.StatusCode != directResp.StatusCode {
		t.Fatalf("status: gateway %d, direct %d", gwResp.StatusCode, directResp.StatusCode)
	}
	if !bytes.Equal(direct, proxied) {
		t.Fatalf("response bodies differ: direct %d bytes, proxied %d bytes", len(direct), len(proxied))
	}
	if got, want := gwResp.Header.Get("Content-Type"), directResp.Header.Get("Content-Type"); got != want {
		t.Fatalf("content type: gateway %q, direct %q", got, want)
	}
	// Errors relay bit-identically too.
	directResp, direct = post(t, backendSrv.URL, []byte("{nope"))
	gwResp, proxied = post(t, gwSrv.URL, []byte("{nope"))
	if gwResp.StatusCode != directResp.StatusCode || !bytes.Equal(direct, proxied) {
		t.Fatalf("bad-request relay: gateway %d %q, direct %d %q", gwResp.StatusCode, proxied, directResp.StatusCode, direct)
	}
}

// TestBreakerTripsAndRecovers proves acceptance criterion (b): a backend
// outage trips the breaker to 503/Retry-After; a successful probe after
// the cooldown closes it again.
func TestBreakerTripsAndRecovers(t *testing.T) {
	f := getFixture(t)
	real := cloud.NewServer(f.model).Handler()
	var down atomic.Bool
	backend := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "backend restarting", http.StatusServiceUnavailable)
			return
		}
		real.ServeHTTP(w, r)
	})
	g, gwSrv := newGateway(t, Config{
		MaxRetries:     1,
		RetryBaseDelay: time.Millisecond,
		RequestTimeout: 5 * time.Second,
		Breaker:        BreakerConfig{FailureThreshold: 2, Cooldown: 150 * time.Millisecond},
	}, backend)

	body := encodeBatch(t, f.serving)

	// Healthy path first.
	if resp, _ := post(t, gwSrv.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy proxy status = %d", resp.StatusCode)
	}

	// Outage: two failed exchanges trip the breaker.
	down.Store(true)
	for i := 0; i < 2; i++ {
		if resp, _ := post(t, gwSrv.URL, body); resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("outage request %d status = %d, want 502", i, resp.StatusCode)
		}
	}
	if g.Breaker().State() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", g.Breaker().State())
	}

	// While open the gateway sheds load without touching the backend.
	resp, _ := post(t, gwSrv.URL, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d, want 503", resp.StatusCode)
	}
	retryAfter, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retryAfter < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if st := getStatus(t, gwSrv.URL); st.BreakerState != "open" {
		t.Fatalf("/status breaker_state = %q, want open", st.BreakerState)
	}

	// Recovery: backend returns, the cooldown elapses, the probe succeeds.
	down.Store(false)
	time.Sleep(200 * time.Millisecond)
	if resp, _ := post(t, gwSrv.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status = %d, want 200", resp.StatusCode)
	}
	if g.Breaker().State() != BreakerClosed {
		t.Fatalf("breaker state after recovery = %v, want closed", g.Breaker().State())
	}
	if resp, _ := post(t, gwSrv.URL, body); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery status = %d", resp.StatusCode)
	}

	s := scrapeURL(t, gwSrv.URL)
	if s[`gateway_breaker_transitions_total{to="open"}`] < 1 {
		t.Fatal("breaker open transition not counted")
	}
	if s[`gateway_breaker_transitions_total{to="closed"}`] < 1 {
		t.Fatal("breaker close transition not counted")
	}
	if s[`gateway_requests_total{outcome="breaker_open"}`] != 1 {
		t.Fatalf("shed requests = %v, want 1", s[`gateway_requests_total{outcome="breaker_open"}`])
	}
	if s[`gateway_backend_retries_total{reason="upstream_transient"}`] < 1 {
		t.Fatal("transient retries not counted")
	}
}

// TestShadowValidationFlipsHealthz proves acceptance criterion (c): an
// error-corrupted traffic stream drives the monitor's estimate down and
// turns /healthz into a 503.
func TestShadowValidationFlipsHealthz(t *testing.T) {
	f := getFixture(t)
	mon := newMonitor(t, f)
	g, gwSrv := newGateway(t, Config{Monitor: mon}, cloud.NewServer(f.model).Handler())

	healthz := func() int {
		resp, err := http.Get(gwSrv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Clean traffic: estimate healthy, healthz green.
	if resp, _ := post(t, gwSrv.URL, encodeBatch(t, f.serving)); resp.StatusCode != http.StatusOK {
		t.Fatal("clean batch not proxied")
	}
	waitObserved(t, g, 1)
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("healthz on clean traffic = %d", code)
	}

	// Catastrophically corrupted traffic (same recipe as the monitor's
	// own alarm tests) must flip the health signal.
	rng := rand.New(rand.NewSource(2))
	broken := errorgen.Scaling{}.Corrupt(f.serving, 0.95, rng)
	if resp, _ := post(t, gwSrv.URL, encodeBatch(t, broken)); resp.StatusCode != http.StatusOK {
		t.Fatal("corrupted batch not proxied")
	}
	waitObserved(t, g, 2)
	if !mon.Alarming() {
		t.Fatal("monitor did not alarm on corrupted traffic")
	}
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz under alarm = %d, want 503", code)
	}
	st := getStatus(t, gwSrv.URL)
	if !st.Alarming || st.Monitor == nil || st.Monitor.Batches != 2 {
		t.Fatalf("/status = %+v", st)
	}
	if st.Monitor.LastEstimate >= st.AlarmLine {
		t.Fatalf("estimate %v not below alarm line %v", st.Monitor.LastEstimate, st.AlarmLine)
	}

	s := scrapeURL(t, gwSrv.URL)
	if s[`gateway_alarm`] != 1 {
		t.Fatalf("gateway_alarm = %v, want 1", s[`gateway_alarm`])
	}
	if est := s[`gateway_estimated_score`]; est >= st.AlarmLine {
		t.Fatalf("gateway_estimated_score = %v, want < %v", est, st.AlarmLine)
	}
	if s[`gateway_shadow_batches_total{fate="observed"}`] != 2 {
		t.Fatalf("observed batches = %v, want 2", s[`gateway_shadow_batches_total{fate="observed"}`])
	}

	// The monitor dashboard is mounted under /monitor/.
	resp, err := http.Get(gwSrv.URL + "/monitor/summary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var summary monitor.Summary
	if err := json.NewDecoder(resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if summary.Batches != 2 {
		t.Fatalf("mounted dashboard summary = %+v", summary)
	}
}

// TestMetricsMatchTraffic proves acceptance criterion (d): the scrape
// parses as Prometheus text and the counters match observed traffic.
func TestMetricsMatchTraffic(t *testing.T) {
	f := getFixture(t)
	mon := newMonitor(t, f)
	g, gwSrv := newGateway(t, Config{Monitor: mon}, cloud.NewServer(f.model).Handler())

	const okRequests = 3
	body := encodeBatch(t, f.serving)
	for i := 0; i < okRequests; i++ {
		if resp, _ := post(t, gwSrv.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d failed", i)
		}
	}
	// One request the backend rejects (still proxied, not shadowed).
	if resp, _ := post(t, gwSrv.URL, []byte("{}")); resp.StatusCode != http.StatusBadRequest {
		t.Fatal("backend should reject the empty request")
	}
	// One request the gateway itself rejects.
	resp, err := http.Get(gwSrv.URL + "/predict_proba")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitObserved(t, g, okRequests)

	s := scrapeURL(t, gwSrv.URL)
	if got := s[`gateway_requests_total{outcome="ok"}`]; got != okRequests {
		t.Fatalf(`requests{ok} = %v, want %d`, got, okRequests)
	}
	if got := s[`gateway_requests_total{outcome="upstream_4xx"}`]; got != 1 {
		t.Fatalf(`requests{upstream_4xx} = %v, want 1`, got)
	}
	if got := s[`gateway_requests_total{outcome="bad_request"}`]; got != 1 {
		t.Fatalf(`requests{bad_request} = %v, want 1`, got)
	}
	if got := s[`gateway_request_duration_seconds_count{outcome="ok"}`]; got != okRequests {
		t.Fatalf(`latency count{ok} = %v, want %d`, got, okRequests)
	}
	if got := s[`gateway_shadow_batches_total{fate="observed"}`]; got != okRequests {
		t.Fatalf(`shadow observed = %v, want %d`, got, okRequests)
	}
	if got := s[`gateway_breaker_state`]; got != 0 {
		t.Fatalf("breaker gauge = %v, want 0 (closed)", got)
	}
	if got := s[`gateway_shadow_queue_depth`]; got != 0 {
		t.Fatalf("queue depth = %v, want 0 after drain", got)
	}
	if est := s[`gateway_estimated_score`]; est <= 0 || est > 1 {
		t.Fatalf("estimated score gauge = %v", est)
	}
}

// TestShadowQueueDropsOldest pins the bounded-queue semantics: under
// pressure the tap evicts the oldest batch rather than blocking.
func TestShadowQueueDropsOldest(t *testing.T) {
	// Build the tap without its worker so the queue state is inspectable.
	tap := &shadowTap{
		cap:     2,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		metrics: newMetrics(),
	}
	for _, id := range []string{"a", "b", "c"} {
		body := pooled(t, []byte(id))
		tap.Enqueue(nil, body, "id-"+id, obs.TraceContext{})
		body.Release()
	}
	if tap.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", tap.Depth())
	}
	if got := tap.metrics.shadowDropped.Get("dropped"); got != 1 {
		t.Fatalf("dropped = %v, want 1", got)
	}
	first, _ := tap.pop()
	second, _ := tap.pop()
	if string(first.body.Bytes()) != "b" || string(second.body.Bytes()) != "c" {
		t.Fatalf("queue kept %q,%q — oldest should have been evicted", first.body.Bytes(), second.body.Bytes())
	}
	first.release()
	second.release()
	if first.requestID != "id-b" || second.requestID != "id-c" {
		t.Fatalf("request ids did not ride along: %q,%q", first.requestID, second.requestID)
	}
	if _, ok := tap.pop(); ok {
		t.Fatal("queue should be empty")
	}
}

// TestGatewayConfigValidation pins New's error paths.
func TestGatewayConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing backend should error")
	}
	g, err := New(Config{Backend: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.ShadowObserved() != 0 {
		t.Fatal("monitor-less gateway should report zero shadow batches")
	}
}
