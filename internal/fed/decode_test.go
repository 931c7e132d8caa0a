package fed

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"blackboxval/internal/obs"
	"blackboxval/internal/stats"
)

// TestScrapeRejectsOversizedFederateBody streams a syntactically valid
// document one byte over the cap. The long Timeout leaves the cap as
// the only thing that can fail the scrape.
func TestScrapeRejectsOversizedFederateBody(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 64 MiB body")
	}
	const head, tail = `{"version":1,"replica":"`, `"}`
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, head)
		pad := bytes.Repeat([]byte("a"), 1<<20)
		for left := maxFederateBytes + 1 - len(head) - len(tail); left > 0; left -= len(pad) {
			if left < len(pad) {
				pad = pad[:left]
			}
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
		io.WriteString(w, tail)
	}))
	defer replica.Close()

	agg, err := New(Config{
		Replicas:   []ReplicaConfig{{Name: "big", URL: replica.URL}},
		Interval:   time.Hour,
		Timeout:    5 * time.Minute,
		StaleAfter: time.Hour,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	report := agg.ScrapeOnce(context.Background())
	if msg := report.Errors["big"]; !strings.Contains(msg, "exceeds") {
		t.Fatalf("oversized body: scrape error %q, want the size cap", msg)
	}
}

// FuzzFederateDecode hardens the decoder every scrape runs on a remote
// replica's body: arbitrary bytes never panic, and whatever decodes
// re-encodes to a document that decodes to the same encoding.
func FuzzFederateDecode(f *testing.F) {
	ts, err := obs.NewTimeSeries(obs.TimeSeriesConfig{WindowBatches: 1})
	if err != nil {
		f.Fatal(err)
	}
	ref := stats.NewKLL()
	for i := 0; i < 100; i++ {
		v := float64(i) / 100
		ts.Record("estimate", 0.8-v/10)
		ts.Record("proba_class_0", v)
		ref.Add(1 - v)
		if i%25 == 24 {
			ts.Commit()
		}
	}
	seed, err := json.Marshal(Doc{
		Version:       DocVersion,
		Replica:       "r0",
		WindowBatches: ts.WindowBatches(),
		Capacity:      ts.Capacity(),
		Quantiles:     ts.Quantiles(),
		AlarmLine:     0.5,
		Observed:      4,
		Windows:       ts.Windows(),
		References:    map[string]*stats.KLL{"proba_class_0": ref},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"windows":[]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		doc, err := decodeFederate(bytes.NewReader(body))
		if err != nil {
			return
		}
		if doc.Version != DocVersion {
			t.Fatalf("accepted version %d", doc.Version)
		}
		first, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("decoded doc does not re-encode: %v", err)
		}
		again, err := decodeFederate(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded doc does not decode: %v", err)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not stable:\n%s\n%s", first, second)
		}
	})
}
