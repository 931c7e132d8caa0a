package fed_test

// Unit tests for the federation layer: the replica /federate handler,
// the aggregator's merge/staleness/error behavior against fake
// replicas, the ppm_federate_* exposition conformance, and the fleet
// incident capture. The cross-shard determinism matrix lives in
// determinism_test.go; the multi-gateway flow in e2e_test.go.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"blackboxval/internal/core"
	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/fed"
	"blackboxval/internal/labels"
	"blackboxval/internal/linalg"
	"blackboxval/internal/models"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
	"blackboxval/internal/stats"
)

// fixture trains one small black box + predictor shared by the fed
// tests — smaller than the gateway fixture (the determinism matrix
// retrains nothing; it builds many monitors off this one predictor).
type fixture struct {
	model   data.Model
	pred    *core.Predictor
	val     *core.Validator
	test    *data.Dataset
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
		ds := datagen.Income(1600, 1).Balance(rng)
		source, serving := ds.Split(0.7, rng)
		train, test := source.Split(0.6, rng)
		model, err := models.TrainPipeline(train, &models.GBDTClassifier{Trees: 10, Seed: 1}, 64)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := core.TrainPredictor(model, test, core.PredictorConfig{
			Generators:  errorgen.KnownTabular(),
			Repetitions: 15,
			ForestSizes: []int{20},
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		val, err := core.TrainValidator(model, test, core.ValidatorConfig{
			Generators: errorgen.KnownTabular(),
			Threshold:  0.05,
			Batches:    30,
			Seed:       1,
		})
		if err != nil {
			t.Fatal(err)
		}
		fix = fixture{model: model, pred: pred, val: val, test: test, serving: serving}
	})
	return fix
}

func newMonitor(t *testing.T, f fixture, timelineWindow int) *monitor.Monitor {
	t.Helper()
	mon, err := monitor.New(monitor.Config{
		Predictor: f.pred, Validator: f.val, Threshold: 0.05,
		TimelineWindow: timelineWindow,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// servingBatches slices the fixture's serving split into n proba
// batches of the given size.
func servingBatches(t *testing.T, f fixture, n, rows int) []*linalg.Matrix {
	t.Helper()
	if n*rows > f.serving.Len() {
		t.Fatalf("fixture serving split has %d rows, need %d", f.serving.Len(), n*rows)
	}
	out := make([]*linalg.Matrix, n)
	for i := range out {
		idx := make([]int, rows)
		for j := range idx {
			idx[j] = i*rows + j
		}
		out[i] = f.model.PredictProba(f.serving.SelectRows(idx))
	}
	return out
}

// fakeReplica serves a swappable federation document — the aggregator
// tests' stand-in for a live monitor.
type fakeReplica struct {
	mu  sync.Mutex
	doc fed.Doc
}

func (f *fakeReplica) set(doc fed.Doc) {
	f.mu.Lock()
	f.doc = doc
	f.mu.Unlock()
}

func (f *fakeReplica) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		json.NewEncoder(w).Encode(f.doc)
	})
}

// tsDoc builds a federation document straight from an obs.TimeSeries —
// the minimal valid replica payload.
func tsDoc(ts *obs.TimeSeries, replica string) fed.Doc {
	return fed.Doc{
		Version:       fed.DocVersion,
		Replica:       replica,
		WindowBatches: ts.WindowBatches(),
		Capacity:      ts.Capacity(),
		Quantiles:     ts.Quantiles(),
		AlarmLine:     0.5,
		Observed:      len(ts.Windows()),
		Windows:       ts.Windows(),
	}
}

func newAggregator(t *testing.T, urls []string, mutate func(*fed.Config)) *fed.Aggregator {
	t.Helper()
	cfg := fed.Config{Interval: time.Hour, Timeout: 2 * time.Second, StaleAfter: time.Hour}
	for i, u := range urls {
		cfg.Replicas = append(cfg.Replicas, fed.ReplicaConfig{Name: shardName(i), URL: u})
	}
	if mutate != nil {
		mutate(&cfg)
	}
	agg, err := fed.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

func shardName(i int) string {
	return string(rune('a' + i))
}

func TestReplicaHandlerServesDoc(t *testing.T) {
	f := getFixture(t)
	mon := newMonitor(t, f, 1)
	for _, p := range servingBatches(t, f, 2, 40) {
		mon.ObserveProba(p)
	}
	srv := httptest.NewServer(fed.ReplicaHandler(mon, "replica-7"))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var doc fed.Doc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != fed.DocVersion || doc.Replica != "replica-7" {
		t.Fatalf("doc header = %d/%q", doc.Version, doc.Replica)
	}
	if doc.Observed != 2 || len(doc.Windows) != 2 {
		t.Fatalf("observed %d windows %d, want 2/2", doc.Observed, len(doc.Windows))
	}
	if len(doc.References) == 0 {
		t.Fatal("doc carries no reference sketches")
	}
	for name, sk := range doc.References {
		if sk == nil || sk.Count() == 0 {
			t.Fatalf("reference %s is empty", name)
		}
	}
	// The monitor's own per-class serving distributions must ride along
	// in the window aggregates so the fleet can run drift tests.
	agg, ok := doc.Windows[0].Series["proba_class_0"]
	if !ok || agg.Sketch == nil || agg.Sketch.Count() != 40 {
		t.Fatalf("window lacks proba_class_0 sketch: %+v", agg)
	}

	post, err := http.Post(srv.URL, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status %d, want 405", post.StatusCode)
	}
}

// TestAggregatorMergesAlignedWindows scrapes three fake replicas fed
// round-robin and checks the merged fleet windows against the
// single-node union stream — the determinism contract exercised
// through the full HTTP scrape path.
func TestAggregatorMergesAlignedWindows(t *testing.T) {
	const shards = 3
	rng := rand.New(rand.NewSource(5))
	single, err := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: shards})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*obs.TimeSeries, shards)
	for i := range parts {
		parts[i], err = obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	const windows = 3
	for b := 0; b < shards*windows; b++ {
		for j := 0; j < 30; j++ {
			v := rng.NormFloat64()
			single.Record("lat", v)
			parts[b%shards].Record("lat", v)
		}
		single.Commit()
		parts[b%shards].Commit()
	}

	var urls []string
	for i := range parts {
		fr := &fakeReplica{}
		fr.set(tsDoc(parts[i], shardName(i)))
		srv := httptest.NewServer(fr.handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	agg := newAggregator(t, urls, nil)
	var hookIndexes []int64
	agg.OnWindowClose(func(w obs.Window) { hookIndexes = append(hookIndexes, w.Index) })
	report := agg.ScrapeOnce(context.Background())
	if len(report.Errors) != 0 || report.Emitted != windows {
		t.Fatalf("scrape report %+v, want %d clean emissions", report, windows)
	}

	merged := agg.Windows()
	singleWs := single.Windows()
	if len(merged) != windows || len(singleWs) != windows {
		t.Fatalf("windows: merged %d single %d, want %d", len(merged), len(singleWs), windows)
	}
	for i := range merged {
		if merged[i].Index != int64(i) || hookIndexes[i] != merged[i].Index {
			t.Fatalf("window %d has index %d (hook %v)", i, merged[i].Index, hookIndexes)
		}
		got := canonicalWindow(t, merged[i], true)
		want := canonicalWindow(t, singleWs[i], false)
		if got != want {
			t.Fatalf("window %d: merged != union\nmerged: %s\nunion:  %s", i, got, want)
		}
		// The enrichment series rides on every fleet window.
		stale, ok := merged[i].Series["fleet_stale_shards"]
		if !ok || stale.Last != 0 {
			t.Fatalf("window %d fleet_stale_shards = %+v", i, stale)
		}
	}

	// A second scrape against unchanged replicas must not re-emit.
	report = agg.ScrapeOnce(context.Background())
	if report.Emitted != 0 || len(agg.Windows()) != windows {
		t.Fatalf("re-scrape emitted %d", report.Emitted)
	}
}

// canonicalWindow renders a window for bit-equality comparison:
// wall-clock times zeroed, and (for fleet windows) the aggregator's
// enrichment series removed so the remainder must equal the single
// node's payload exactly.
func canonicalWindow(t *testing.T, w obs.Window, fleet bool) string {
	t.Helper()
	w.Start, w.End = time.Time{}, time.Time{}
	if fleet {
		series := make(map[string]obs.Aggregate, len(w.Series))
		for name, agg := range w.Series {
			if strings.HasPrefix(name, "fleet_") {
				continue
			}
			series[name] = agg
		}
		w.Series = series
	}
	buf, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestAggregatorStaleShardDegrades kills one of two replicas and checks
// the fleet keeps emitting from the survivor with the gap surfaced as
// the stale-shards gauge, not a stall or a fabricated window.
func TestAggregatorStaleShardDegrades(t *testing.T) {
	live, dead := &fakeReplica{}, &fakeReplica{}
	liveTS, _ := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
	deadTS, _ := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
	record := func(ts *obs.TimeSeries, v float64) {
		ts.Record("lat", v)
		ts.Commit()
	}
	record(liveTS, 1)
	record(deadTS, 2)
	live.set(tsDoc(liveTS, "live"))
	dead.set(tsDoc(deadTS, "dead"))
	liveSrv := httptest.NewServer(live.handler())
	defer liveSrv.Close()
	deadSrv := httptest.NewServer(dead.handler())

	agg := newAggregator(t, []string{liveSrv.URL, deadSrv.URL}, func(cfg *fed.Config) {
		cfg.StaleAfter = 30 * time.Millisecond
		cfg.Timeout = 200 * time.Millisecond
	})
	reg := obs.NewRegistry()
	agg.RegisterMetrics(reg)

	report := agg.ScrapeOnce(context.Background())
	if len(report.Errors) != 0 || report.Emitted != 1 || report.Stale != 0 {
		t.Fatalf("healthy scrape: %+v", report)
	}
	first := agg.Windows()[0]
	if first.Series["lat"].Count != 2 {
		t.Fatalf("first fleet window merged %d samples, want 2", first.Series["lat"].Count)
	}

	// Kill one replica, advance the survivor, and let staleness lapse.
	deadSrv.Close()
	record(liveTS, 3)
	live.set(tsDoc(liveTS, "live"))
	time.Sleep(50 * time.Millisecond)

	report = agg.ScrapeOnce(context.Background())
	if len(report.Errors) != 1 || report.Errors["b"] == "" {
		t.Fatalf("dead replica not reported: %+v", report)
	}
	if report.Stale != 1 || agg.StaleShards() != 1 {
		t.Fatalf("stale = %d/%d, want 1", report.Stale, agg.StaleShards())
	}
	ws := agg.Windows()
	if len(ws) != 2 {
		t.Fatalf("fleet emitted %d windows, want degraded second emission", len(ws))
	}
	second := ws[1]
	if second.Series["lat"].Count != 1 || second.Series["lat"].Last != 3 {
		t.Fatalf("degraded window = %+v", second.Series["lat"])
	}
	if second.Series["fleet_stale_shards"].Last != 1 {
		t.Fatalf("fleet_stale_shards = %v, want 1", second.Series["fleet_stale_shards"].Last)
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	render := b.String()
	for _, want := range []string{
		"ppm_federate_stale_shards 1",
		"ppm_federate_replicas 2",
		"ppm_federate_scrape_errors_total 1",
		"ppm_federate_windows_merged_total 2",
	} {
		if !strings.Contains(render, want) {
			t.Fatalf("exposition missing %q:\n%s", want, render)
		}
	}
	status := agg.Status()
	if status.StaleShards != 1 || !status.Replicas[1].Stale || status.Replicas[0].Stale {
		t.Fatalf("status = %+v", status)
	}
}

// TestAggregatorRejectsGarbage covers malformed replica payloads: bad
// JSON and wrong wire versions count as scrape errors and emit nothing.
func TestAggregatorRejectsGarbage(t *testing.T) {
	badJSON := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("not json"))
	}))
	defer badJSON.Close()
	badVersion := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(fed.Doc{Version: 99})
	}))
	defer badVersion.Close()
	badStatus := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer badStatus.Close()

	agg := newAggregator(t, []string{badJSON.URL, badVersion.URL, badStatus.URL}, nil)
	reg := obs.NewRegistry()
	agg.RegisterMetrics(reg)
	report := agg.ScrapeOnce(context.Background())
	if len(report.Errors) != 3 || report.Emitted != 0 {
		t.Fatalf("report = %+v, want 3 errors, 0 emissions", report)
	}
	if len(agg.Windows()) != 0 {
		t.Fatal("garbage scrape emitted fleet windows")
	}
	var b strings.Builder
	reg.WriteTo(&b)
	if !strings.Contains(b.String(), "ppm_federate_scrape_errors_total 3") {
		t.Fatalf("error counter wrong:\n%s", b.String())
	}
}

// TestAggregatorRejectsBadConfig pins the constructor validation.
func TestAggregatorRejectsBadConfig(t *testing.T) {
	if _, err := fed.New(fed.Config{}); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := fed.New(fed.Config{Replicas: []fed.ReplicaConfig{{Name: "a"}}}); err == nil {
		t.Fatal("missing url accepted")
	}
	dup := []fed.ReplicaConfig{{Name: "a", URL: "http://x"}, {Name: "a", URL: "http://y"}}
	if _, err := fed.New(fed.Config{Replicas: dup}); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

// TestFederateMetricsLint renders the full federation family set and
// runs the exposition linter over it.
func TestFederateMetricsLint(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(fed.Doc{Version: fed.DocVersion})
	}))
	defer srv.Close()
	agg := newAggregator(t, []string{srv.URL}, nil)
	reg := obs.NewRegistry()
	agg.RegisterMetrics(reg)
	agg.ScrapeOnce(context.Background())

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	render := b.String()
	if errs := obs.Lint(render); len(errs) != 0 {
		t.Fatalf("ppm_federate_* exposition fails lint: %v", errs)
	}
	for _, family := range []string{
		"ppm_federate_replicas",
		"ppm_federate_stale_shards",
		"ppm_federate_fleet_windows",
		"ppm_federate_scrapes_total",
		"ppm_federate_scrape_errors_total",
		"ppm_federate_windows_merged_total",
		"ppm_federate_missed_windows_total",
		"ppm_federate_reference_mismatch_total",
	} {
		if !strings.Contains(render, "# TYPE "+family+" ") {
			t.Fatalf("family %s missing from exposition:\n%s", family, render)
		}
	}
}

// TestAggregatorHTTPSurface walks the fleet endpoints.
func TestAggregatorHTTPSurface(t *testing.T) {
	ts, _ := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
	ts.Record("estimate", 0.9)
	ts.Commit()
	fr := &fakeReplica{}
	fr.set(tsDoc(ts, "a"))
	replica := httptest.NewServer(fr.handler())
	defer replica.Close()

	agg := newAggregator(t, []string{replica.URL}, nil)
	agg.ScrapeOnce(context.Background())
	alarming := false
	agg.SetAlarming(func() bool { return alarming })
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Fleet drift timeline") {
		t.Fatalf("dashboard: %d %.80s", resp.StatusCode, body)
	}
	resp, body = get("/timeline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline status %d", resp.StatusCode)
	}
	var tl monitor.TimelineDoc
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Windows) != 1 || tl.AlarmLine != 0.5 {
		t.Fatalf("timeline doc = %+v", tl)
	}
	resp, body = get("/federate")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("federate status %d", resp.StatusCode)
	}
	var doc fed.Doc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != fed.DocVersion || doc.Replica != "fleet" || len(doc.Windows) != 1 {
		t.Fatalf("fleet doc = %d/%q/%d windows", doc.Version, doc.Replica, len(doc.Windows))
	}
	resp, _ = get("/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status status %d", resp.StatusCode)
	}
	resp, _ = get("/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while healthy: %d", resp.StatusCode)
	}
	alarming = true
	resp, _ = get("/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while alarming: %d, want 503", resp.StatusCode)
	}
	post, err := http.Post(srv.URL+"/timeline", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /timeline: %d, want 405", post.StatusCode)
	}
}

// TestDashboardIsTheMonitorPage: the aggregator serves the replica's
// dashboard page, differing only in its title and heading.
func TestDashboardIsTheMonitorPage(t *testing.T) {
	replica := httptest.NewServer(newMonitor(t, getFixture(t), 1).Handler())
	defer replica.Close()
	fleet := httptest.NewServer(newAggregator(t, []string{replica.URL}, nil).Handler())
	defer fleet.Close()
	page := func(url string) string {
		t.Helper()
		resp, err := http.Get(url + "/")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/: %d", url, resp.StatusCode)
		}
		return string(body)
	}
	swapped := strings.NewReplacer(
		"<title>ppm fleet timeline</title>", "<title>ppm drift timeline</title>",
		"<h1>Fleet drift timeline</h1>", "<h1>Performance-predictor drift timeline</h1>",
	).Replace(page(fleet.URL))
	if want := page(replica.URL); swapped != want {
		t.Fatalf("fleet page differs from the replica page beyond title and heading (%d vs %d bytes)", len(swapped), len(want))
	}
}

// TestFleetTimelineLimitContract is the aggregator-side twin of the
// monitor's TestLimitValidationContract: /timeline?limit= on the fleet
// 400s on junk and keeps the most recent N merged windows.
func TestFleetTimelineLimitContract(t *testing.T) {
	ts, _ := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
	for i := 0; i < 3; i++ {
		ts.Record("estimate", 0.9)
		ts.Commit()
	}
	fr := &fakeReplica{}
	fr.set(tsDoc(ts, "a"))
	replica := httptest.NewServer(fr.handler())
	defer replica.Close()
	agg := newAggregator(t, []string{replica.URL}, nil)
	agg.ScrapeOnce(context.Background())
	srv := httptest.NewServer(agg.Handler())
	defer srv.Close()

	for _, bad := range []string{"?limit=abc", "?limit=-1", "?limit=1.5", "?limit=%20"} {
		resp, err := http.Get(srv.URL + "/timeline" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/timeline%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
	for limit, want := range map[string]int{"": 3, "?limit=1": 1, "?limit=0": 0, "?limit=9999": 3} {
		resp, err := http.Get(srv.URL + "/timeline" + limit)
		if err != nil {
			t.Fatal(err)
		}
		var doc monitor.TimelineDoc
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/timeline%s: status %d, %v", limit, resp.StatusCode, err)
		}
		if len(doc.Windows) != want {
			t.Errorf("/timeline%s returned %d windows, want %d", limit, len(doc.Windows), want)
		} else if want > 0 && doc.Windows[want-1].Index != 2 {
			t.Errorf("/timeline%s newest window %d, want 2", limit, doc.Windows[want-1].Index)
		}
	}
}

// TestFleetIncidentCapture exercises the capture ring: firing events
// write artifacts, resolutions and cooldown-window repeats do not, and
// the ring prunes oldest-first.
func TestFleetIncidentCapture(t *testing.T) {
	ts, _ := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
	ts.Record("estimate", 0.2)
	ts.Commit()
	fr := &fakeReplica{}
	fr.set(tsDoc(ts, "a"))
	srv := httptest.NewServer(fr.handler())
	defer srv.Close()
	agg := newAggregator(t, []string{srv.URL}, nil)
	agg.ScrapeOnce(context.Background())

	dir := t.TempDir()
	capture, err := fed.NewCapture(agg, fed.CaptureConfig{Dir: dir, Max: 2, Cooldown: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	notify := capture.Notifier()
	ev := alert.Event{Rule: "estimate_low", Series: "estimate", State: "firing", Value: 0.2, WindowIndex: 1}
	notify.Notify(ev)
	notify.Notify(alert.Event{Rule: "estimate_low", State: "resolved"})
	incidents, err := capture.Incidents()
	if err != nil {
		t.Fatal(err)
	}
	if len(incidents) != 1 {
		t.Fatalf("%d incidents, want 1 (resolved must not capture)", len(incidents))
	}
	inc := incidents[0]
	if inc.Event.Rule != "estimate_low" || len(inc.Windows) != 1 || len(inc.Status.Replicas) != 1 {
		t.Fatalf("incident = %+v", inc)
	}

	// Cooldown: a burst inside the window captures nothing extra.
	burst := fed.CaptureConfig{Dir: t.TempDir(), Cooldown: time.Hour}
	c2, err := fed.NewCapture(agg, burst)
	if err != nil {
		t.Fatal(err)
	}
	c2.Notifier().Notify(ev)
	c2.Notifier().Notify(ev)
	if got, _ := c2.Incidents(); len(got) != 1 {
		t.Fatalf("cooldown leaked: %d incidents", len(got))
	}

	// Prune: Max=2 keeps the newest two.
	time.Sleep(2 * time.Millisecond)
	notify.Notify(ev)
	time.Sleep(2 * time.Millisecond)
	notify.Notify(ev)
	incidents, err = capture.Incidents()
	if err != nil {
		t.Fatal(err)
	}
	if len(incidents) != 2 {
		t.Fatalf("prune kept %d, want 2", len(incidents))
	}
}

// TestFleetIncidentsSkipTornFile: a file torn by a crash mid-write sits
// beside a good capture; listing skips it instead of failing the whole
// directory.
func TestFleetIncidentsSkipTornFile(t *testing.T) {
	ts, _ := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
	ts.Record("estimate", 0.2)
	ts.Commit()
	fr := &fakeReplica{}
	fr.set(tsDoc(ts, "a"))
	srv := httptest.NewServer(fr.handler())
	defer srv.Close()
	agg := newAggregator(t, []string{srv.URL}, nil)
	agg.ScrapeOnce(context.Background())

	dir := t.TempDir()
	capture, err := fed.NewCapture(agg, fed.CaptureConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	capture.Notifier().Notify(alert.Event{Rule: "estimate_low", State: "firing", WindowIndex: 1})
	torn := filepath.Join(dir, "fleet-99991231T235959-999.json")
	if err := os.WriteFile(torn, []byte(`{"id":"fleet-99991231T235959-999","at":"20`), 0o644); err != nil {
		t.Fatal(err)
	}
	incidents, err := capture.Incidents()
	if err != nil {
		t.Fatalf("a torn file failed the listing: %v", err)
	}
	if len(incidents) != 1 || incidents[0].Event.Rule != "estimate_low" {
		t.Fatalf("incidents = %+v, want the one good capture", incidents)
	}
}

// TestConcurrentFederateAndObserve is the race-gate coverage: /federate
// renders concurrently with live ObserveProba traffic on the replica
// side, and ScrapeOnce runs concurrently with Windows/Status reads on
// the aggregator side. Run under -race via the Makefile audit target.
func TestConcurrentFederateAndObserve(t *testing.T) {
	f := getFixture(t)
	mon := newMonitor(t, f, 1)
	probas := servingBatches(t, f, 8, 25)
	replicaSrv := httptest.NewServer(fed.ReplicaHandler(mon, "race"))
	defer replicaSrv.Close()
	agg := newAggregator(t, []string{replicaSrv.URL}, nil)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for _, p := range probas {
			mon.ObserveProba(p)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			resp, err := http.Get(replicaSrv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			var doc fed.Doc
			if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
				t.Error(err)
			}
			resp.Body.Close()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			agg.ScrapeOnce(context.Background())
			agg.Windows()
			agg.Status()
			agg.StaleShards()
		}
	}()
	wg.Wait()

	// After the dust settles one more scrape must see all 8 windows.
	agg.ScrapeOnce(context.Background())
	if got := len(agg.Windows()); got != 8 {
		t.Fatalf("fleet holds %d windows after race run, want 8", got)
	}
}

// TestFleetLabeledAccuracyPosterior checks the aggregator derives the
// fleet label-feedback posterior from the merged labeled_correct
// counts, and that the derivation is shard-invariant: two shards each
// holding part of the labels yield exactly the posterior a single node
// joining every label would hold, because the per-row 0/1 series
// merges by exact counts (ExactSum), not by averaging shard posteriors.
func TestFleetLabeledAccuracyPosterior(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	parts := make([]*obs.TimeSeries, 2)
	var err error
	for i := range parts {
		parts[i], err = obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
		if err != nil {
			t.Fatal(err)
		}
	}
	total, correct := 0, 0
	for s, n := range []int{40, 25} { // deliberately uneven shards
		for j := 0; j < n; j++ {
			v := 0.0
			if rng.Float64() < 0.8 {
				v = 1
				correct++
			}
			total++
			parts[s].Record(labels.SeriesCorrect, v)
		}
		parts[s].Commit()
	}

	var urls []string
	for i := range parts {
		fr := &fakeReplica{}
		fr.set(tsDoc(parts[i], shardName(i)))
		srv := httptest.NewServer(fr.handler())
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	agg := newAggregator(t, urls, nil)
	if report := agg.ScrapeOnce(context.Background()); report.Emitted != 1 {
		t.Fatalf("scrape report %+v, want 1 emission", report)
	}
	w := agg.Windows()[0]

	cor, ok := w.Series[labels.SeriesCorrect]
	if !ok || cor.Count != total || cor.SumExact == nil {
		t.Fatalf("merged labeled_correct = %+v, want count %d with exact sum", cor, total)
	}
	alpha := 1 + float64(correct)
	beta := 1 + float64(total-correct)
	wantLo, wantHi := stats.BetaInterval(alpha, beta, 0.95)
	if got := w.Series["fleet_labeled_acc_mean"].Last; got != stats.BetaMean(alpha, beta) {
		t.Errorf("fleet_labeled_acc_mean = %v, want %v (Beta(%v,%v))", got, stats.BetaMean(alpha, beta), alpha, beta)
	}
	if lo := w.Series["fleet_labeled_acc_lo95"].Last; lo != wantLo {
		t.Errorf("fleet_labeled_acc_lo95 = %v, want %v", lo, wantLo)
	}
	if hi := w.Series["fleet_labeled_acc_hi95"].Last; hi != wantHi {
		t.Errorf("fleet_labeled_acc_hi95 = %v, want %v", hi, wantHi)
	}
}
