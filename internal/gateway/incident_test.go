package gateway

import (
	"io"
	"log"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"blackboxval/internal/cloud"
	"blackboxval/internal/data"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/alert"
	"blackboxval/internal/obs/incident"
)

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// scaleAge multiplies the "age" column by 1000 on a magnitude fraction
// of rows — a targeted single-column corruption whose attribution the
// incident bundle must pin on exactly that column.
func scaleAge(ds *data.Dataset, magnitude float64, rng *rand.Rand) *data.Dataset {
	out := ds.Clone()
	col := out.Frame.Column("age")
	for i, v := range col.Num {
		if rng.Float64() < magnitude {
			col.Num[i] = v * 1000
		}
	}
	return out
}

// TestEndToEndIncidentCapture is this PR's acceptance scenario: a
// single-column scaling corruption ramped through the gateway's shadow
// path (raw request bodies decoded back into datasets by the tap's RequestDecoder)
// trips the alarm rule, the alert hook auto-captures an incident
// bundle, the bundle's per-column attribution ranks the corrupted
// column top-1, its worst-batch X-Request-IDs resolve in the monitor's
// /history, the /debug/incidents endpoints serve it the way
// cmd/ppm-gateway mounts them, and the persisted JSON renders to
// markdown through the same path ppm-diagnose uses.
func TestEndToEndIncidentCapture(t *testing.T) {
	f := getFixture(t)
	mon := newMonitor(t, f)
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	dir := t.TempDir()
	reg := obs.NewRegistry()
	rec, err := incident.New(incident.Config{
		Reference:     f.serving,
		RefOutputs:    f.pred.TestOutputs(),
		Classes:       f.serving.Classes,
		Monitor:       mon,
		Dir:           dir,
		ReservoirRows: 256,
		Seed:          1,
		Registry:      reg,
		Tracer:        obs.NewTracer(64),
		Logger:        quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.RegisterMetrics(reg)
	mon.OnObserve(rec.ObserveBatch)

	engine, err := alert.New(alert.Config{
		Rules: []alert.Rule{{
			Name: "estimate_below_line", Series: "alarm", Op: ">=", Threshold: 1,
			ForWindows: 2, ClearWindows: 2, Severity: "critical",
		}},
		Notifier: rec.AlertNotifier(),
		Logger:   quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Timeline().OnWindowClose(engine.Evaluate)

	g, _ := newGateway(t, Config{
		Monitor:    mon,
		RawClasses: f.serving.Classes,
		Tracer:     obs.NewTracer(64),
		Logger:     log.New(io.Discard, "", 0),
	}, cloud.NewServer(f.model).Handler())

	// Mount the recorder next to the gateway handler exactly the way
	// cmd/ppm-gateway does.
	mux := http.NewServeMux()
	mux.Handle("/", g.Handler())
	mux.Handle(incident.MountPath, rec.Handler())
	mux.Handle(incident.MountPath+"/", rec.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// The deterministic ramp: clean traffic decays into an "age" column
	// scaled x1000 on nearly every row.
	rng := rand.New(rand.NewSource(3))
	ramp := []float64{0, 0, 0.6, 0.95, 0.95, 0.95}
	ids := make([]string, len(ramp))
	for i, magnitude := range ramp {
		batch := f.serving
		if magnitude > 0 {
			batch = scaleAge(f.serving, magnitude, rng)
		}
		resp, _ := post(t, srv.URL, encodeBatch(t, batch))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ramp batch %d status = %d", i, resp.StatusCode)
		}
		ids[i] = resp.Header.Get(obs.RequestIDHeader)
	}
	waitObserved(t, g, int64(len(ramp)))

	// The alarm rule auto-captured a bundle.
	bundles := rec.Bundles()
	if len(bundles) == 0 {
		t.Fatal("no incident bundle captured by the alert hook")
	}
	b := bundles[len(bundles)-1]
	if b.Reason != "alert:estimate_below_line" {
		t.Fatalf("bundle reason = %q", b.Reason)
	}

	// Attribution ranks the corrupted column top-1 and rejects it.
	if got := b.TopColumn(); got != "age" {
		t.Fatalf("top attributed column = %q, want age (attribution: %+v)", got, b.Attribution)
	}
	if !b.Attribution[0].Rejected {
		t.Fatalf("top attribution not rejected: %+v", b.Attribution[0])
	}

	// At least one worst-batch X-Request-ID came from this ramp and
	// resolves in the monitor's /history (served by the gateway mux).
	if len(b.WorstBatches) == 0 {
		t.Fatal("bundle has no worst batches")
	}
	rampIDs := make(map[string]bool, len(ids))
	for _, id := range ids {
		rampIDs[id] = true
	}
	wantID := ""
	for _, wb := range b.WorstBatches {
		if wb.RequestID != "" && rampIDs[wb.RequestID] {
			wantID = wb.RequestID
			break
		}
	}
	if wantID == "" {
		t.Fatalf("no worst-batch request id from the ramp: %+v", b.WorstBatches)
	}
	histResp, err := http.Get(srv.URL + "/monitor/history")
	if err != nil {
		t.Fatal(err)
	}
	hist := readAll(t, histResp)
	if !strings.Contains(hist, wantID) {
		t.Fatalf("/monitor/history does not resolve %q:\n%s", wantID, hist)
	}

	// The /debug/incidents surface serves the bundle the way the
	// operator reaches it.
	listResp, err := http.Get(srv.URL + incident.MountPath)
	if err != nil {
		t.Fatal(err)
	}
	list := readAll(t, listResp)
	if listResp.StatusCode != http.StatusOK || !strings.Contains(list, b.ID) {
		t.Fatalf("incident list status %d missing %s:\n%s", listResp.StatusCode, b.ID, list)
	}
	repResp, err := http.Get(srv.URL + incident.MountPath + "/" + b.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	rep := readAll(t, repResp)
	if !strings.Contains(rep, "| 1 | age |") {
		t.Fatalf("served report does not rank age first:\n%s", rep)
	}

	// The persisted JSON round-trips through ppm-diagnose's path:
	// LoadBundle + Markdown (report.Markdown delegates to the bundle's
	// own renderer for this type).
	loaded, err := incident.LoadBundle(filepath.Join(dir, b.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	md := loaded.Markdown()
	for _, want := range []string{"# Incident " + b.ID, "| 1 | age |", wantID} {
		if !strings.Contains(md, want) {
			t.Fatalf("diagnose markdown missing %q:\n%s", want, md)
		}
	}
}
