package gateway

import (
	"bytes"
	"context"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// relayBytes returns the bytes the process allocates per forward() of a
// body of n bytes to an in-process backend that discards it.
func relayBytes(t *testing.T, g *Gateway, n int) float64 {
	t.Helper()
	body := pooled(t, bytes.Repeat([]byte{'x'}, n))
	defer body.Release()
	forward := func() {
		resp, err := g.forward(context.Background(), body, "relay-test")
		if err != nil || resp.status != http.StatusOK {
			t.Fatalf("forward: %v", err)
		}
		resp.body.Release()
	}
	for i := 0; i < 20; i++ { // connection and pools warm
		forward()
	}
	const calls = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		forward()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestRelayAllocatesNoCopyBuffer: the gateway's own backend client
// writes a request body from its connection's write buffer, so a 50 KB
// body costs what a 2 KB one does. With net/http's default 4 KiB
// buffer, the bytes past it go through a fresh copy buffer of up to
// 32 KiB per request.
func TestRelayAllocatesNoCopyBuffer(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation is measured in full runs without the race detector")
	}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"probabilities":[[1]]}`))
	}))
	defer backend.Close()
	g, err := New(Config{Backend: backend.URL, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	small, large := relayBytes(t, g, 2<<10), relayBytes(t, g, 50<<10)
	t.Logf("bytes per forward: %.0f for a 2 KB body, %.0f for a 50 KB body", small, large)
	if large-small > 1<<10 {
		t.Fatalf("a 50 KB body allocates %.0f B more per forward than a 2 KB body, want at most 1 KB", large-small)
	}
}
