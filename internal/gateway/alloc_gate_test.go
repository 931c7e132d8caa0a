package gateway

// TestServingAllocGate is the allocs/op regression gate behind `make
// bench-serving`: it pushes the fixture batch through a live gateway
// (canned-response backend, real monitor shadow tap with the raw-row
// decoder cmd/ppm-gateway wires — the same protocol as the serving
// benchmark in internal/experiments) and fails when the per-request
// allocation count blows past the budget. The budget is a flat 425
// allocs/op, ~1.6x the measured 266: with no per-row term, a single
// accidental per-row allocation anywhere on the path (request read,
// relay, response parse, the tap's request decode) adds 899 allocs for
// the 899-row fixture and fails the gate.
//
// allocs/op is process-wide: it includes the shadow worker's monitor
// observations. The loop is closed and outruns the worker, so most
// batches are dropped from the shadow queue and the gate sees little of
// the tap; TestShadowObserveAllocGuard bounds the tap itself. A faster
// monitor drops fewer batches and observes more of them, which can
// raise allocs/op even while bytes/op falls.

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"blackboxval/internal/cloud"
	"blackboxval/internal/monitor"
)

func TestServingAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs a testing.Benchmark calibration loop")
	}
	f := getFixture(t)
	mon, err := monitor.New(monitor.Config{Predictor: f.pred, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	body := encodeBatch(t, f.serving)
	rows := f.serving.Len()

	// Canned response: the real model's output for the batch, captured
	// once, so model compute does not count against the gateway budget.
	probe := httptest.NewServer(cloud.NewServer(f.model).Handler())
	resp, err := http.Post(probe.URL+"/predict_proba", "application/json", bytes.NewReader(body))
	if err != nil {
		probe.Close()
		t.Fatal(err)
	}
	canned, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	probe.Close()
	if err != nil {
		t.Fatal(err)
	}

	_, srv := newGateway(t, Config{
		Monitor:    mon,
		RawClasses: f.serving.Classes,
		Logger:     log.New(io.Discard, "", 0),
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(canned)
	}))

	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := http.Post(srv.URL+"/predict_proba", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
		}
	})

	// Budget: flat, for the client, the gateway and the shadow tap
	// combined (AllocsPerOp counts process-wide mallocs).
	const limit = 425
	t.Logf("serving hot path: %d allocs/op over %d rows (%.2f/row), %d B/op, %.3fms/op, gate %d allocs/op",
		br.AllocsPerOp(), rows, float64(br.AllocsPerOp())/float64(rows),
		br.AllocedBytesPerOp(), float64(br.NsPerOp())/1e6, limit)
	if br.AllocsPerOp() > limit {
		t.Fatalf("serving hot path allocates %d allocs/op for a %d-row batch, over the %d gate — a per-row allocation crept onto the request path",
			br.AllocsPerOp(), rows, limit)
	}
}
