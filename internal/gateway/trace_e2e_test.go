package gateway

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// TestEndToEndTraceStitch is the three-process waterfall: a traffic
// client posts one sampled batch through a gateway to a traced model
// backend, the shadow tap feeds a traced monitor, each "process" writes
// its own span journal, and ppm-diagnose's stitcher must reassemble
// one connected waterfall — gateway relay, backend predict and shadow
// observe all under the gateway's request span.
func TestEndToEndTraceStitch(t *testing.T) {
	f := getFixture(t)

	// Backend "process": the model server behind the trace middleware,
	// journaling to its own directory like ppm-serve -trace-dir.
	backendTracer := obs.NewTracer(32)
	backendDir := t.TempDir()
	bj, err := obs.OpenJournal(backendDir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	backendTracer.SetJournal(bj)
	backendHandler := obs.TraceMiddleware(backendTracer, cloud.NewServer(f.model).Handler())

	// Monitor "process": its shadow-observe spans land on a third
	// tracer/journal pair (in ppm-gateway they share the process
	// default; a standalone ppm-monitor journals separately).
	monTracer := obs.NewTracer(32)
	monDir := t.TempDir()
	mj, err := obs.OpenJournal(monDir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	monTracer.SetJournal(mj)
	mon, err := monitor.New(monitor.Config{
		Predictor: f.pred, Validator: f.val, Threshold: 0.05,
		Tracer: monTracer,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Gateway "process".
	gwTracer := obs.NewTracer(32)
	gwDir := t.TempDir()
	gj, err := obs.OpenJournal(gwDir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	gwTracer.SetJournal(gj)
	_, gwSrv := newGateway(t, Config{
		Monitor: mon, Tracer: gwTracer, TraceSampleRate: 1,
	}, backendHandler)

	// Traffic "process": one batch with the deterministic sampled
	// traceparent ppm-traffic would emit for seed 1, batch 0.
	tc := obs.DeriveTraceContext(1, 0, 1)
	if !tc.Sampled() {
		t.Fatal("rate-1 derived context must be sampled")
	}
	body := encodeBatch(t, f.serving)
	req, err := http.NewRequest(http.MethodPost, gwSrv.URL+"/predict_proba", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway returned %d", resp.StatusCode)
	}
	echoed, err := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader))
	if err != nil {
		t.Fatalf("gateway did not echo a parseable traceparent: %v", err)
	}
	if echoed.TraceID != tc.TraceID {
		t.Fatalf("echoed trace id %s, sent %s", echoed.TraceID, tc.TraceID)
	}

	// Wait until every journal holds its root span, then flush all three
	// like a process shutdown would. The monitor's count alone is not
	// enough: it ticks when the record commits, before the
	// monitor_observe span ends and is journaled.
	journaled := func() bool {
		return bj.Appended() >= 1 && mj.Appended() >= 1 && gj.Appended() >= 1
	}
	deadline := time.Now().Add(10 * time.Second)
	for !journaled() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if mon.Observed() < 1 {
		t.Fatal("shadow batch never reached the monitor")
	}
	for _, j := range []*obs.SpanJournal{bj, mj, gj} {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Stitch the three on-disk fragments exactly as ppm-diagnose -trace
	// does and require one connected waterfall covering every hop.
	var frags []obs.TraceFragment
	for _, p := range []struct{ service, dir string }{
		{"gateway", gwDir}, {"backend", backendDir}, {"monitor", monDir},
	} {
		spans, err := obs.ReadJournalDir(p.dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) == 0 {
			t.Fatalf("journal for %s is empty", p.service)
		}
		frags = append(frags, obs.TraceFragment{Service: p.service, Spans: spans})
	}
	wf, err := obs.StitchTrace(tc.TraceID.String(), frags)
	if err != nil {
		t.Fatal(err)
	}
	if wf.Roots != 1 {
		t.Fatalf("waterfall has %d roots, want 1 (fragments not stitched)", wf.Roots)
	}
	rows := map[string]obs.WaterfallRow{}
	for _, r := range wf.Rows {
		rows[r.Span.Name] = r
	}
	for span, service := range map[string]string{
		"gateway_request": "gateway",
		"gateway_relay":   "gateway",
		"backend_predict": "backend",
		"monitor_observe": "monitor",
	} {
		row, ok := rows[span]
		if !ok {
			t.Fatalf("span %s missing from stitched waterfall (have %v)", span, names(wf.Rows))
		}
		if row.Service != service {
			t.Fatalf("span %s attributed to %s, want %s", span, row.Service, service)
		}
	}
	// Connectivity: the only root is the gateway request; every other
	// span must sit strictly below it.
	if !rows["gateway_request"].Root || rows["gateway_request"].Depth != 0 {
		t.Fatal("gateway_request should be the root")
	}
	for name, row := range rows {
		if name == "gateway_request" {
			continue
		}
		if row.Root || row.Depth < 1 {
			t.Fatalf("span %s not reachable from the root (depth %d)", name, row.Depth)
		}
	}
	// The markdown rendering carries every hop — the demo's assertion.
	md := wf.Markdown()
	for _, want := range []string{"gateway_relay", "backend_predict", "monitor_observe", tc.TraceID.String()} {
		if !contains(md, want) {
			t.Fatalf("markdown waterfall missing %q", want)
		}
	}
}

func names(rows []obs.WaterfallRow) []string {
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, r.Span.Name)
	}
	return out
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
