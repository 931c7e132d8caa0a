package cloud

import (
	"bytes"
	"context"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/models"
)

func trainModel(t *testing.T, ds *data.Dataset) data.Model {
	t.Helper()
	m, err := models.TrainPipeline(ds, &models.SGDClassifier{Epochs: 10, Seed: 1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTripTabular(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := datagen.Income(1200, 1)
	train, serving := ds.Split(0.7, rng)
	model := trainModel(t, train)

	srv := httptest.NewServer(NewServer(model).Handler())
	defer srv.Close()
	client := NewClient(srv.URL)

	remote, err := client.Predict(serving)
	if err != nil {
		t.Fatal(err)
	}
	local := model.PredictProba(serving)
	if remote.Rows != local.Rows || remote.Cols != local.Cols {
		t.Fatalf("shape mismatch: remote %dx%d local %dx%d", remote.Rows, remote.Cols, local.Rows, local.Cols)
	}
	for i := range local.Data {
		if math.Abs(remote.Data[i]-local.Data[i]) > 1e-9 {
			t.Fatalf("probability mismatch at %d: %v vs %v", i, remote.Data[i], local.Data[i])
		}
	}
	if client.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d", client.NumClasses())
	}
}

func TestRoundTripMissingValues(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := datagen.Income(600, 2)
	train, serving := ds.Split(0.7, rng)
	// Punch NaN and empty-string holes into the serving data.
	serving.Frame.Column("age").Num[0] = math.NaN()
	serving.Frame.Column("occupation").Str[0] = ""
	model := trainModel(t, train)

	srv := httptest.NewServer(NewServer(model).Handler())
	defer srv.Close()
	remote, err := NewClient(srv.URL).Predict(serving)
	if err != nil {
		t.Fatal(err)
	}
	local := model.PredictProba(serving)
	for i := range local.Data {
		if math.Abs(remote.Data[i]-local.Data[i]) > 1e-9 {
			t.Fatal("missing values not preserved over the wire")
		}
	}
}

func TestRoundTripImages(t *testing.T) {
	ds := datagen.Digits(80, 1)
	model, err := models.TrainPipeline(ds, &models.CNNClassifier{Epochs: 1, Conv1: 4, Conv2: 8, Dense: 16, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(model).Handler())
	defer srv.Close()
	remote, err := NewClient(srv.URL).Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	local := model.PredictProba(ds)
	for i := range local.Data {
		if math.Abs(remote.Data[i]-local.Data[i]) > 1e-9 {
			t.Fatal("image predictions differ over the wire")
		}
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	ds := datagen.Income(300, 3)
	model := trainModel(t, ds)
	srv := httptest.NewServer(NewServer(model).Handler())
	defer srv.Close()

	// GET not allowed
	resp, err := http.Get(srv.URL + "/predict_proba")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}

	// invalid JSON
	resp, err = http.Post(srv.URL+"/predict_proba", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", resp.StatusCode)
	}

	// empty request
	resp, err = http.Post(srv.URL+"/predict_proba", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request status = %d", resp.StatusCode)
	}
}

func TestHealthEndpoint(t *testing.T) {
	ds := datagen.Income(300, 4)
	srv := httptest.NewServer(NewServer(trainModel(t, ds)).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestClientErrorOnUnreachableService(t *testing.T) {
	client := NewClient("http://127.0.0.1:1") // nothing listens here
	ds := datagen.Income(10, 5)
	if _, err := client.Predict(ds); err == nil {
		t.Fatal("expected transport error")
	}
}

func TestPredictCtxHonorsCancellation(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewClient(srv.URL).PredictCtx(ctx, datagen.Income(10, 6)); err == nil {
		t.Fatal("cancelled context should surface as an error")
	}
}

func TestPredictCtxSurfacesServerErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "model exploded", http.StatusInternalServerError)
	}))
	defer srv.Close()
	_, err := NewClient(srv.URL).PredictCtx(context.Background(), datagen.Income(10, 7))
	if err == nil || !strings.Contains(err.Error(), "model exploded") {
		t.Fatalf("want wrapped server error, got %v", err)
	}
}

func TestPredictProbaLogsAndPanicsOnTransportError(t *testing.T) {
	var buf bytes.Buffer
	client := NewClient("http://127.0.0.1:1")
	client.Logger = log.New(&buf, "", 0)
	defer func() {
		if recover() == nil {
			t.Fatal("PredictProba should panic on transport failure")
		}
		if !strings.Contains(buf.String(), "prediction request") {
			t.Fatalf("transport failure not logged: %q", buf.String())
		}
	}()
	client.PredictProba(datagen.Income(10, 8))
}

func TestParseProbaResponse(t *testing.T) {
	proba, n, err := ParseProbaResponse([]byte(`{"probabilities":[[0.25,0.75],[0.5,0.5]],"num_classes":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || proba.Rows != 2 || proba.Cols != 2 || proba.Row(0)[1] != 0.75 {
		t.Fatalf("parsed %dx%d classes=%d: %v", proba.Rows, proba.Cols, n, proba.Data)
	}
	if _, _, err := ParseProbaResponse([]byte(`{nope`)); err == nil {
		t.Fatal("invalid JSON should error")
	}
	if _, _, err := ParseProbaResponse([]byte(`{"probabilities":[[0.5]],"num_classes":2}`)); err == nil {
		t.Fatal("ragged row should error")
	}
	if _, _, err := ParseProbaResponse([]byte(`{"probabilities":[],"num_classes":0}`)); err == nil {
		t.Fatal("zero classes should error")
	}
}

func TestDecodeRequestValidation(t *testing.T) {
	if _, err := decodeRequest(predictRequest{Images: [][]float64{{1, 2}}}); err == nil {
		t.Fatal("missing image dims should error")
	}
	if _, err := decodeRequest(predictRequest{Columns: []wireColumn{{Name: "x", Kind: "bogus"}}}); err == nil {
		t.Fatal("unknown kind should error")
	}
}
