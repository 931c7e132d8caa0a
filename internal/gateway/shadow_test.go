package gateway

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"blackboxval/internal/cloud"
	"blackboxval/internal/data"
	"blackboxval/internal/errorgen"
	"blackboxval/internal/frame"
	"blackboxval/internal/labels"
	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
	"blackboxval/internal/obs/incident"
)

// tapBatch is one tapped exchange: the request body, the backend's
// response body, and the rows' true labels.
type tapBatch struct {
	req, resp []byte
	truth     []int
}

// tapBatches encodes each dataset and answers it with the fixture's
// model through the real server handler.
func tapBatches(t *testing.T, f fixture, sets []*data.Dataset) []tapBatch {
	t.Helper()
	srv := cloud.NewServer(f.model).Handler()
	out := make([]tapBatch, len(sets))
	for i, ds := range sets {
		body := encodeBatch(t, ds)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict_proba", strings.NewReader(string(body))))
		if rec.Code != http.StatusOK {
			t.Fatalf("backend answered %d", rec.Code)
		}
		out[i] = tapBatch{req: body, resp: rec.Body.Bytes(), truth: append([]int(nil), ds.Labels...)}
	}
	return out
}

// newTestTap returns a tap with raw capture on; tests call observe on
// their own goroutine (the worker idles: nothing is enqueued).
func newTestTap(t *testing.T, f fixture, mon *monitor.Monitor) *shadowTap {
	t.Helper()
	tap := newShadowTap(mon, 0, nil, newMetrics(), nil, f.serving.Classes)
	t.Cleanup(tap.Close)
	return tap
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// observeCost measures one warmed tap observation: mallocs and bytes
// per call, averaged over runs.
func observeCost(tap *shadowTap, item shadowItem, runs int) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 3; i++ {
		tap.observe(item)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		tap.observe(item)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestShadowObserveAllocGuard bounds what the shadow worker allocates
// per observed batch (raw decode, response parse, monitor observation
// with a window close on every batch): the count, and the byte slope
// per row between a 200-row and a full fixture batch. The tap decodes
// into storage it keeps and the monitor sorts and copies columns into
// pooled scratch, so only per-batch constants remain: the record's
// drift slices and the closed window's copies.
func TestShadowObserveAllocGuard(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation counts are measured in full runs without the race detector")
	}
	f := getFixture(t)
	rng := rand.New(rand.NewSource(9))
	sets := []*data.Dataset{f.serving.Sample(200, rng), f.serving}
	batches := tapBatches(t, f, sets)
	const (
		maxAllocs = 100 // per observed batch
		maxSlope  = 24  // bytes per row
	)
	var allocs, bytes [2]float64
	for i, b := range batches {
		tap := newTestTap(t, f, newMonitor(t, f))
		allocs[i], bytes[i] = observeCost(tap, shadowItem{reqBody: b.req, body: b.resp, requestID: "guard"}, 40)
	}
	rows := [2]int{sets[0].Len(), sets[1].Len()}
	slope := (bytes[1] - bytes[0]) / float64(rows[1]-rows[0])
	t.Logf("tap observe: %d rows %.0f allocs %.1f KB; %d rows %.0f allocs %.1f KB; %.1f B/row",
		rows[0], allocs[0], bytes[0]/1024, rows[1], allocs[1], bytes[1]/1024, slope)
	for i := range allocs {
		if allocs[i] > maxAllocs {
			t.Errorf("a warmed tap allocates %.0f times observing a %d-row batch, gate %d", allocs[i], rows[i], maxAllocs)
		}
	}
	if slope > maxSlope {
		t.Errorf("tap observe bytes grow %.1f B per row, gate %d: a per-row copy is back on the shadow worker", slope, maxSlope)
	}
}

// batchLog copies every batch a monitor's observers see: the raw rows
// and the served argmax.
type batchLog struct {
	rows  []*frame.DataFrame
	preds [][]int
}

func (l *batchLog) observe(batch *data.Dataset, proba *linalg.Matrix, _ monitor.Record) {
	l.rows = append(l.rows, batch.Frame.Clone())
	pred := make([]int, proba.Rows)
	for i := range pred {
		row := proba.Row(i)
		for c, p := range row {
			if p > row[pred[i]] {
				pred[i] = c
			}
		}
	}
	l.preds = append(l.preds, pred)
}

// shadowSide is one monitor with the observers the gateway wires: the
// incident recorder, the label store, and a log of what they were shown.
type shadowSide struct {
	mon    *monitor.Monitor
	rec    *incident.Recorder
	labels *labels.Store
	log    batchLog
}

func newShadowSide(t *testing.T, f fixture) *shadowSide {
	t.Helper()
	s := &shadowSide{mon: newMonitor(t, f)}
	var err error
	if s.labels, err = labels.New(labels.Config{Timeline: s.mon.Timeline()}); err != nil {
		t.Fatal(err)
	}
	if s.rec, err = incident.New(incident.Config{
		Reference: f.serving, Classes: f.serving.Classes, Monitor: s.mon, Labels: s.labels,
		ReservoirRows: 256, Registry: obs.NewRegistry(), Tracer: obs.NewTracer(8),
	}); err != nil {
		t.Fatal(err)
	}
	s.mon.OnObserve(s.rec.ObserveBatch)
	s.mon.OnObserve(s.labels.ObserveBatch)
	s.mon.OnObserve(s.log.observe)
	return s
}

// A tap that decodes every batch into the same storage shows the
// monitor's observers exactly what fresh decodes show them: 64 distinct
// 200-row bodies, 16 clean then 48 corrupted by the known tabular
// generators, leave the incident reservoir with the same rows, the
// label store with the same predictions and the timeline with the same
// windows.
func TestShadowTapReuseMatchesFreshDecode(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(17))
	gens := errorgen.KnownTabular()
	sets := make([]*data.Dataset, 64)
	for i := range sets {
		sets[i] = f.serving.Sample(200, rng)
		if i >= 16 {
			sets[i] = gens[i%len(gens)].Corrupt(sets[i], 0.2+0.7*rng.Float64(), rng)
		}
	}
	batches := tapBatches(t, f, sets)

	reused, fresh := newShadowSide(t, f), newShadowSide(t, f)
	tap := newTestTap(t, f, reused.mon)
	ids := make([]string, len(batches))
	for i, b := range batches {
		ids[i] = fmt.Sprintf("reuse-%02d", i)
		tap.observe(shadowItem{reqBody: b.req, body: b.resp, requestID: ids[i]})

		ds, err := cloud.DecodeRequest(b.req, f.serving.Classes)
		if err != nil {
			t.Fatal(err)
		}
		proba, _, err := cloud.ParseProbaResponse(b.resp)
		if err != nil {
			t.Fatal(err)
		}
		fresh.mon.ObserveBatchProbaID(ds, proba, ids[i])
	}
	if tap.Observed() != int64(len(batches)) {
		t.Fatalf("tap observed %d of %d batches", tap.Observed(), len(batches))
	}

	for i := range batches {
		if got, want := dumpFrame(reused.log.rows[i]), dumpFrame(fresh.log.rows[i]); got != want {
			t.Fatalf("batch %d: observers saw different raw rows", i)
		}
		if got, want := dump(t, reused.log.preds[i]), dump(t, fresh.log.preds[i]); got != want {
			t.Fatalf("batch %d: observers saw different predictions", i)
		}
	}
	for _, s := range []*shadowSide{reused, fresh} {
		for i, b := range batches {
			s.labels.Ingest([]labels.Record{{RequestID: ids[i], Labels: b.truth}})
		}
	}
	if got, want := dump(t, reused.labels.Snapshot()), dump(t, fresh.labels.Snapshot()); got != want {
		t.Fatalf("label stores differ:\nreused %s\nfresh  %s", got, want)
	}
	if got, want := dump(t, reused.mon.History()), dump(t, fresh.mon.History()); got != want {
		t.Fatal("monitor records differ")
	}
	if got, want := dumpSeries(t, reused.mon.Timeline().Windows()), dumpSeries(t, fresh.mon.Timeline().Windows()); got != want {
		t.Fatal("timeline windows differ")
	}
	br, err := reused.rec.Capture("test")
	if err != nil {
		t.Fatal(err)
	}
	bf, err := fresh.rec.Capture("test")
	if err != nil {
		t.Fatal(err)
	}
	if br.ReservoirRows == 0 || br.RowsSeen != 64*200 {
		t.Fatalf("reservoir holds %d rows of %d seen", br.ReservoirRows, br.RowsSeen)
	}
	for _, part := range []struct {
		name      string
		got, want any
	}{
		{"reservoir", []any{br.ReservoirRows, br.RowsSeen, br.ReservoirWindows}, []any{bf.ReservoirRows, bf.RowsSeen, bf.ReservoirWindows}},
		{"attribution", br.Attribution, bf.Attribution},
		{"class shift", br.ClassShift, bf.ClassShift},
	} {
		if got, want := dump(t, part.got), dump(t, part.want); got != want {
			t.Fatalf("incident %s differs:\nreused %s\nfresh  %s", part.name, got, want)
		}
	}
}

func dump(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// dumpFrame renders a frame's columns with NaN-safe cell text.
func dumpFrame(f *frame.DataFrame) string {
	var b strings.Builder
	for _, c := range f.Columns() {
		b.WriteString(c.Name + "/" + c.Kind.String() + ":")
		for _, v := range c.Num {
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64) + ",")
		}
		b.WriteString(strings.Join(c.Str, "\x00") + "\n")
	}
	return b.String()
}

// dumpSeries renders the windows' aggregates (not their wall-clock
// bounds, which differ between the two monitors).
func dumpSeries(t *testing.T, ws []obs.Window) string {
	t.Helper()
	var b strings.Builder
	for _, w := range ws {
		b.WriteString(dump(t, []any{w.Index, w.Batches, w.Series}))
	}
	return b.String()
}
