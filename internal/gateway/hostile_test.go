package gateway

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"strings"
	"testing"

	"blackboxval/internal/cloud"
	"blackboxval/internal/data"
	"blackboxval/internal/monitor"
)

// A backend that answers 200 to a request body the raw decoder rejects
// must not take the gateway down: the tap counts raw_undecodable,
// still observes the outputs, and the gateway keeps serving.
func TestShadowTapSurvivesHostileRequestBodies(t *testing.T) {
	f := getFixture(t)
	mon, err := monitor.New(monitor.Config{Predictor: f.pred, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	classes := append([]string(nil), f.serving.Classes...)
	g, srv := newGateway(t, Config{
		Monitor: mon,
		RawDecoder: func(body []byte) (*data.Dataset, error) {
			return cloud.DecodeRequest(body, classes)
		},
		Logger: log.New(io.Discard, "", 0),
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"probabilities":[[0.25,0.75]],"num_classes":2}`+"\n")
	}))

	hostile := []string{
		`{"columns":[{"name":"a","kind":"numeric","num":[1]},{"name":"a","kind":"numeric","num":[2]}]}`,
		`{"columns":[{"name":"a","kind":"numeric","num":[1]},{"name":"b","kind":"categorical","str":["x","y"]}]}`,
	}
	for _, body := range hostile {
		if resp, _ := post(t, srv.URL, []byte(body)); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d for %s", resp.StatusCode, body)
		}
	}
	waitObserved(t, g, int64(len(hostile)))
	if resp, _ := post(t, srv.URL, encodeBatch(t, f.serving)); resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway stopped serving: status %d", resp.StatusCode)
	}
	waitObserved(t, g, int64(len(hostile))+1)
	s := scrapeURL(t, srv.URL)
	if got := s[`gateway_shadow_batches_total{fate="raw_undecodable"}`]; got != float64(len(hostile)) {
		t.Fatalf("raw_undecodable = %v, want %d", got, len(hostile))
	}
}

// Bodies over MaxBodyBytes keep their 400 and net/http's message.
func TestGatewayBodyLimit(t *testing.T) {
	_, srv := newGateway(t, Config{MaxBodyBytes: 8, Logger: log.New(io.Discard, "", 0)},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t.Error("an oversized body reached the backend")
		}))
	resp, err := http.Post(srv.URL+"/predict_proba", "application/json", bytes.NewReader(make([]byte, 64)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "request body too large") {
		t.Fatalf("status %d body %q", resp.StatusCode, msg)
	}
}
