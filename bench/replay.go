package main

// The in-process replay. It feeds a workload's exact inputs — the pool
// request bodies and the responses ppm-serve recorded for them — through
// each layer's public functions, in the order a request meets them in
// production. Its monitor is wired the way ppm-gateway wires its own,
// through the cli.Wire* functions, so the live monitor's per-batch
// values must equal the replay's bit for bit. The black box is the
// bundle's own model: ppm-serve trains its model in-process and never
// persists it, and the same family stands in for it in the timings.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"

	"blackboxval/internal/cli"
	"blackboxval/internal/cloud"
	"blackboxval/internal/core"
	"blackboxval/internal/data"
	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/tsdb"
	"blackboxval/internal/stats"
)

// layers are the replayed layer calls, in production order; each gives
// the per-layer metrics <layer>.us, <layer>.allocs and <layer>.bytes.
var layers = []string{
	"cloud.encode_request", "cloud.serve", "models.predict_proba",
	"cloud.parse_response", "cloud.decode_request", "monitor.observe",
	"core.featurize", "core.estimate", "core.validate", "stats.ks",
	"tsdb.append", "obs.span_journal",
}

type replay struct {
	dir      string
	manifest *cli.Manifest
	model    data.Model
	pred     *core.Predictor
	val      *core.Validator
	mon      *monitor.Monitor
	ref      [][]float64 // held-out reference output columns
	closers  []func()

	mu     sync.Mutex
	closed []obs.Window // windows the monitor closed and the replay has not appended yet
}

// quiet discards the log lines of the in-process components.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// newReplay loads the bundle and wires a monitor as ppm-gateway does.
// With telemetry the journal, tsdb, incident ring and alert rules are
// on, under dir.
func newReplay(bundle, dir, rules string, telemetry bool) (*replay, error) {
	manifest, model, pred, val, err := cli.LoadBundle(bundle)
	if err != nil {
		return nil, err
	}
	mon, err := monitor.New(monitor.Config{
		Predictor: pred, Validator: val, Threshold: manifest.Threshold,
		Hysteresis: 1, TimelineWindow: 1, TimelineCapacity: 128,
	})
	if err != nil {
		return nil, err
	}
	r := &replay{dir: dir, manifest: manifest, model: model, pred: pred, val: val, mon: mon}
	ref := pred.TestOutputs()
	for c := 0; c < ref.Cols; c++ {
		r.ref = append(r.ref, ref.Col(c))
	}
	sub := func(name string) string {
		if !telemetry {
			return ""
		}
		return filepath.Join(dir, name)
	}
	if !telemetry {
		rules = ""
	}
	reg := obs.NewRegistry()
	mon.RegisterMetrics(reg)
	lstore, err := cli.WireLabels(mon, cli.LabelOptions{Registry: reg, Logger: quiet})
	if err != nil {
		return nil, err
	}
	rec, err := cli.WireIncidents(mon, cli.IncidentOptions{
		BundleDir: bundle, Dir: sub("incidents"), Labels: lstore,
		Profiler: obs.NewProfiler(obs.ProfilerConfig{}), Registry: reg, Logger: quiet,
	})
	if err != nil {
		return nil, err
	}
	_, closeAlerts, err := cli.WireAlerts(mon, cli.AlertOptions{
		RulesPath: rules, Notifier: rec.AlertNotifier(), Registry: reg, Logger: quiet,
	})
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, closeAlerts)
	_, closeTSDB, err := cli.WireTSDB(mon.Timeline(), cli.TSDBOptions{Dir: sub("tsdb"), Registry: reg, Logger: quiet})
	if err != nil {
		r.close()
		return nil, err
	}
	r.closers = append(r.closers, closeTSDB)
	closeTracing, err := cli.WireTracing(cli.TracingOptions{Dir: sub("journal"), Registry: reg, Logger: quiet})
	if err != nil {
		r.close()
		return nil, err
	}
	r.closers = append(r.closers, closeTracing)
	mon.Timeline().OnWindowClose(func(w obs.Window) {
		r.mu.Lock()
		r.closed = append(r.closed, w)
		r.mu.Unlock()
	})
	return r, nil
}

func (r *replay) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// takeWindows returns the windows closed since the last call.
func (r *replay) takeWindows() []obs.Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.closed
	r.closed = nil
	return out
}

// batchValues is what the monitor computed for one pool batch, next to
// the served model's true accuracy on it.
type batchValues struct {
	estimate, ksMax, accuracy float64
}

// values observes every pool batch once, with the recorded response,
// and returns the monitor's estimate and KS statistic for each along
// with the true accuracy of the response's argmax.
func (r *replay) values(p *pool, responses [][]byte, workload string) ([]batchValues, error) {
	out := make([]batchValues, len(responses))
	for i, body := range responses {
		proba, _, err := cloud.ParseProbaResponse(body)
		if err != nil {
			return nil, fmt.Errorf("pool batch %d: %w", i, err)
		}
		ds, err := cloud.DecodeRequest(p.bodies[i], r.manifest.Classes)
		if err != nil {
			return nil, fmt.Errorf("pool batch %d: %w", i, err)
		}
		rec := r.mon.ObserveBatchProbaID(ds, proba, fmt.Sprintf("%s-%d-replay", workload, i))
		out[i] = batchValues{estimate: rec.Estimate, ksMax: rec.KSMax, accuracy: accuracy(proba, p.sets[i].Labels)}
	}
	r.takeWindows()
	return out, nil
}

// accuracy is the share of rows whose argmax equals the label.
func accuracy(proba *linalg.Matrix, labels []int) float64 {
	hits := 0
	for i, y := range labels {
		row, best := proba.Row(i), 0
		for c := range row {
			if row[c] > row[best] {
				best = c
			}
		}
		if best == y {
			hits++
		}
	}
	return float64(hits) / float64(len(labels))
}

// timed replays the pool passes times in production order, one span
// tree per batch:
//
//	batch
//	├── client         cloud.encode_request
//	├── serve          cloud.serve, then models.predict_proba alone
//	├── shadow         cloud.parse_response, cloud.decode_request, monitor.observe
//	└── monitor.parts  core.featurize, core.estimate, core.validate,
//	                   stats.ks per class, tsdb.append, obs.span_journal
//
// The parts of serve and monitor.observe run again on their own after
// the whole call, so the group spans' self time is harness overhead.
func (r *replay) timed(tr *tracer, p *pool, responses [][]byte, workload string, seed int64, passes int) error {
	db, err := tsdb.Open(tsdb.Config{Dir: filepath.Join(r.dir, "bench-tsdb"), Logger: quiet})
	if err != nil {
		return err
	}
	defer db.Close()
	journal, err := obs.OpenJournal(filepath.Join(r.dir, "bench-journal"), 0, 0)
	if err != nil {
		return err
	}
	defer journal.Close()
	jt := obs.NewTracer(64)
	jt.SetJournal(journal)

	handler := cloud.NewServer(r.model).Handler()
	step := r.pred.NewStreamAccumulator().PercentileStep()
	n := 0
	for pass := 0; pass < passes; pass++ {
		for i, body := range p.bodies {
			id := fmt.Sprintf("%s-%d-replay%d", workload, i, pass)
			root := tr.begin("batch", 0, id)

			g := tr.begin("client", root, id)
			tr.call("cloud.encode_request", g, id, func() { _, err = cloud.EncodeRequest(p.sets[i]) })
			if err != nil {
				return err
			}
			tr.end(g)

			g = tr.begin("serve", root, id)
			req := httptest.NewRequest(http.MethodPost, "/predict_proba", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			tr.call("cloud.serve", g, id, func() { handler.ServeHTTP(rec, req) })
			if rec.Code != http.StatusOK {
				return fmt.Errorf("cloud.serve: status %d", rec.Code)
			}
			tr.call("models.predict_proba", g, id, func() { r.model.PredictProba(p.sets[i]) })
			tr.end(g)

			g = tr.begin("shadow", root, id)
			var proba *linalg.Matrix
			tr.call("cloud.parse_response", g, id, func() { proba, _, err = cloud.ParseProbaResponse(responses[i]) })
			if err != nil {
				return err
			}
			var ds *data.Dataset
			tr.call("cloud.decode_request", g, id, func() { ds, err = cloud.DecodeRequest(body, r.manifest.Classes) })
			if err != nil {
				return err
			}
			var mrec monitor.Record
			tr.call("monitor.observe", g, id, func() { mrec = r.mon.ObserveBatchProbaID(ds, proba, id) })
			tr.end(g)

			g = tr.begin("monitor.parts", root, id)
			var feats []float64
			tr.call("core.featurize", g, id, func() { feats = core.PredictionStatistics(proba, step) })
			tr.call("core.estimate", g, id, func() { r.pred.EstimateFromFeatures(feats) })
			tr.call("core.validate", g, id, func() { r.val.ViolationFromProba(proba) })
			for c := range r.ref {
				col := proba.Col(c)
				tr.call("stats.ks", g, id, func() { stats.KolmogorovSmirnov(col, r.ref[c]) })
			}
			for _, w := range r.takeWindows() {
				tr.call("tsdb.append", g, id, func() { db.Append(w) })
			}
			ctx := obs.WithTracer(obs.ContextWithTrace(context.Background(),
				obs.DeriveTraceContext(uint64(seed), uint64(n), 1)), jt)
			tr.call("obs.span_journal", g, id, func() {
				_, sp := obs.StartSpan(ctx, "monitor_observe")
				sp.SetAttr("request_id", id)
				sp.SetMetric("estimate", mrec.Estimate)
				sp.SetMetric("rows", float64(mrec.Size))
				sp.End()
			})
			tr.end(g)
			tr.end(root)
			n++
		}
	}
	return nil
}

// replayPasses is how many times the traced replay walks the pool: 320
// calls per layer keep each median steady and the replay within a few
// seconds on every workload.
const replayPasses = 5
