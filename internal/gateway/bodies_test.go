package gateway

// Tests of the pooled, reference-counted request and response bodies:
// who holds a reference, that every holder releases it exactly once,
// and that a buffer is never reused while the transport, a client or
// the shadow tap still reads it.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/data"
	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
)

// settle waits until every body reference taken since base is released:
// the transport drops its own when it finishes writing, which can be
// after the client has its answer.
func settle(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for cloud.HeldBodyRefs() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%+d body references outstanding", cloud.HeldBodyRefs()-base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// padded returns body followed by whitespace up to n bytes: the same
// request to every decoder, in a body of another size.
func padded(body []byte, n int) []byte {
	return append(body, bytes.Repeat([]byte{' '}, n-len(body))...)
}

// twoClasses is a canned backend answer for the fixture's two classes.
const twoClasses = `{"probabilities":[[0.25,0.75]],"num_classes":2}` + "\n"

// postAll sends each body from its own goroutine, reps times, and
// returns the failures.
func postAll(url string, bodies [][]byte, reps int, check func(i int, status int, got []byte) error) []error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
	)
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < reps; n++ {
				resp, err := http.Post(url+"/predict_proba", "application/json", bytes.NewReader(body))
				if err == nil {
					var got []byte
					got, err = io.ReadAll(resp.Body)
					resp.Body.Close()
					if err == nil {
						err = check(i, resp.StatusCode, got)
					}
				}
				if err != nil {
					mu.Lock()
					errs = append(errs, fmt.Errorf("body %d: %w", i, err))
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// A backend may answer before it has read the request body, so the
// transport can still be writing the body when the gateway has relayed
// the answer and its handler has returned. Here the backend answers
// first and the transport writes each 1 MiB body slowly, so most of it
// is written after the answer. The transport's own reference keeps the
// buffer from being reused under it; without that reference, -race
// reports the transport's read of the buffer against the next
// request's write into it.
func TestRelayEarlyResponseKeepsBodyUntilWritten(t *testing.T) {
	base := cloud.HeldBodyRefs()
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		return slowConn{c}, err
	}}
	defer transport.CloseIdleConnections()
	_, srv := newGateway(t, Config{HTTPClient: &http.Client{Transport: transport}, Logger: log.New(io.Discard, "", 0)},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rc := http.NewResponseController(w)
			if err := rc.EnableFullDuplex(); err != nil {
				t.Error(err)
			}
			w.Header().Set("Content-Length", strconv.Itoa(len(twoClasses)))
			io.WriteString(w, twoClasses)
			rc.Flush()
			io.Copy(io.Discard, r.Body)
		}))
	bodies := make([][]byte, 8)
	for i := range bodies {
		bodies[i] = bytes.Repeat([]byte{'a' + byte(i)}, 1<<20)
	}
	errs := postAll(srv.URL, bodies, 4, func(_ int, status int, got []byte) error {
		if status != http.StatusOK || string(got) != twoClasses {
			return fmt.Errorf("status %d body %q", status, got)
		}
		return nil
	})
	for _, err := range errs {
		t.Error(err)
	}
	settle(t, base)
}

// slowConn writes at most 4 KiB at a time and pauses after each piece.
type slowConn struct{ net.Conn }

func (c slowConn) Write(p []byte) (n int, err error) {
	for len(p) > 0 && err == nil {
		var m int
		m, err = c.Conn.Write(p[:min(len(p), 4<<10)])
		n, p = n+m, p[m:]
		time.Sleep(100 * time.Microsecond)
	}
	return n, err
}

// Concurrent clients with distinct bodies each get the backend's answer
// to their own body, and every shadow observation pairs a request with
// the response to it.
func TestRelayNoCrossTalk(t *testing.T) {
	f := getFixture(t)
	base := cloud.HeldBodyRefs()
	rng := rand.New(rand.NewSource(23))
	sets := make([]*data.Dataset, 8)
	for i := range sets {
		sets[i] = f.serving.Sample(40+10*i, rng)
	}
	batches := tapBatches(t, f, sets)
	want := make(map[string][]float64, len(batches))
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		ds, err := cloud.DecodeRequest(b.req, f.serving.Classes)
		if err != nil {
			t.Fatal(err)
		}
		proba, _, err := cloud.ParseProbaResponse(b.resp)
		if err != nil {
			t.Fatal(err)
		}
		want[dumpFrame(ds.Frame)] = proba.Data
		bodies[i] = b.req
	}

	mon := newMonitor(t, f)
	var observed, mismatched atomic.Int64
	mon.OnObserve(func(batch *data.Dataset, proba *linalg.Matrix, _ monitor.Record) {
		observed.Add(1)
		if batch == nil || !sameBits(proba.Data, want[dumpFrame(batch.Frame)]) {
			mismatched.Add(1)
		}
	})
	const reps = 6
	g, srv := newGateway(t, Config{
		Monitor:         mon,
		RawClasses:      f.serving.Classes,
		ShadowQueueSize: len(bodies) * reps,
		Logger:          log.New(io.Discard, "", 0),
	}, cloud.NewServer(f.model).Handler())
	errs := postAll(srv.URL, bodies, reps, func(i int, status int, got []byte) error {
		if status != http.StatusOK || !bytes.Equal(got, batches[i].resp) {
			return fmt.Errorf("status %d: the answer is not the backend's answer to this body", status)
		}
		return nil
	})
	for _, err := range errs {
		t.Error(err)
	}
	waitObserved(t, g, int64(len(bodies)*reps))
	if n := mismatched.Load(); n > 0 {
		t.Errorf("%d of %d shadow observations paired a request with another request's response", n, observed.Load())
	}
	settle(t, base)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Every reference taken on every path through the gateway is released
// exactly once: once each path has run and the gateway has closed, the
// count of held references is back where it started. A release too
// many panics, or leaves the count below where it started.
func TestBodyReferencesReleasedOnEveryPath(t *testing.T) {
	f := getFixture(t)
	quiet := log.New(io.Discard, "", 0)
	body := encodeBatch(t, f.serving.Sample(20, rand.New(rand.NewSource(5))))
	answer := func(status int, text string) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.WriteHeader(status)
			io.WriteString(w, text)
		})
	}
	// blocked returns a monitor whose observer parks the shadow worker
	// until release is closed.
	blocked := func() (*monitor.Monitor, chan struct{}) {
		mon := newMonitor(t, f)
		release := make(chan struct{})
		mon.OnObserve(func(*data.Dataset, *linalg.Matrix, monitor.Record) { <-release })
		return mon, release
	}
	for _, tc := range []struct {
		name    string
		cfg     func() (Config, func())
		backend http.Handler
		// posts and the status each must get
		posts  int
		body   []byte
		status int
		// then, before Close
		check func(t *testing.T, g *Gateway)
	}{
		{name: "read error", cfg: func() (Config, func()) { return Config{MaxBodyBytes: 64}, nil },
			backend: answer(200, twoClasses), posts: 2, body: body, status: http.StatusBadRequest},
		{name: "upstream 4xx", cfg: func() (Config, func()) { return Config{Monitor: newMonitor(t, f), RawClasses: f.serving.Classes}, nil },
			backend: answer(400, "bad"), posts: 2, body: body, status: http.StatusBadRequest},
		{name: "upstream 5xx", cfg: func() (Config, func()) { return Config{Monitor: newMonitor(t, f), RawClasses: f.serving.Classes}, nil },
			backend: answer(500, "boom"), posts: 2, body: body, status: http.StatusInternalServerError},
		{name: "transient then retry", cfg: func() (Config, func()) {
			return Config{Monitor: newMonitor(t, f), RawClasses: f.serving.Classes, RetryBaseDelay: time.Millisecond}, nil
		}, backend: flaky(2, answer(200, twoClasses)), posts: 2, body: body, status: http.StatusOK,
			check: func(t *testing.T, g *Gateway) { waitObserved(t, g, 2) }},
		{name: "breaker open", cfg: func() (Config, func()) {
			return Config{MaxRetries: -1, Breaker: BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}}, nil
		}, backend: answer(503, "down"), posts: 3, body: body, status: 0,
			check: func(t *testing.T, g *Gateway) {
				if g.Breaker().State() != BreakerOpen {
					t.Fatal("breaker did not open")
				}
			}},
		{name: "raw capture off", cfg: func() (Config, func()) { return Config{Monitor: newMonitor(t, f)}, nil },
			backend: answer(200, twoClasses), posts: 3, body: body, status: http.StatusOK,
			check: func(t *testing.T, g *Gateway) { waitObserved(t, g, 3) }},
		{name: "undecodable response", cfg: func() (Config, func()) { return Config{Monitor: newMonitor(t, f), RawClasses: f.serving.Classes}, nil },
			backend: answer(200, "not json"), posts: 3, body: body, status: http.StatusOK,
			check: func(t *testing.T, g *Gateway) {
				deadline := time.Now().Add(10 * time.Second)
				for g.metrics.shadowDropped.Get("undecodable") < 3 {
					if time.Now().After(deadline) {
						t.Fatal("the tap did not reject the responses")
					}
					time.Sleep(2 * time.Millisecond)
				}
			}},
		{name: "drop-oldest eviction and shutdown drain", cfg: func() (Config, func()) {
			mon, release := blocked()
			return Config{Monitor: mon, RawClasses: f.serving.Classes, ShadowQueueSize: 2}, func() { close(release) }
		}, backend: answer(200, twoClasses), posts: 6, body: body, status: http.StatusOK,
			check: func(t *testing.T, g *Gateway) {
				if d := g.metrics.shadowDropped.Get("dropped"); d < 1 {
					t.Fatalf("dropped %v batches, want evictions", d)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := cloud.HeldBodyRefs()
			cfg, unblock := tc.cfg()
			cfg.Logger = quiet
			backendSrv := httptest.NewServer(tc.backend)
			defer backendSrv.Close()
			cfg.Backend = backendSrv.URL
			g, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(g.Handler())
			for i := 0; i < tc.posts; i++ {
				resp, _ := post(t, srv.URL, tc.body)
				if tc.status != 0 && resp.StatusCode != tc.status {
					t.Fatalf("post %d: status %d, want %d", i, resp.StatusCode, tc.status)
				}
			}
			if tc.check != nil {
				tc.check(t, g)
			}
			srv.Close()
			if unblock != nil {
				unblock()
			}
			g.Close()
			settle(t, base)
		})
	}
}

// flaky answers 503 to the first n requests, then hands over to next.
func flaky(n int64, next http.Handler) http.Handler {
	var seen atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= n {
			io.Copy(io.Discard, r.Body)
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// A queued body pins a buffer of at most twice its length, or the
// smallest pooled size: after a 4 MiB body has been through the pools,
// a full queue of 2 KB batches still pins only small buffers.
func TestShadowQueueBoundedRetention(t *testing.T) {
	f := getFixture(t)
	base := cloud.HeldBodyRefs()
	mon := newMonitor(t, f)
	var seen atomic.Int64
	release := make(chan struct{})
	mon.OnObserve(func(*data.Dataset, *linalg.Matrix, monitor.Record) {
		if seen.Add(1) == 2 {
			<-release // park the worker on the second batch
		}
	})
	const queued = 256
	g, srv := newGateway(t, Config{
		Monitor:         mon,
		RawClasses:      f.serving.Classes,
		ShadowQueueSize: queued,
		Logger:          log.New(io.Discard, "", 0),
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, twoClasses)
	}))
	small := padded(encodeBatch(t, f.serving.Sample(10, rand.New(rand.NewSource(3)))), 2000)
	post(t, srv.URL, padded([]byte(`{}`), 4<<20))
	waitObserved(t, g, 1)
	settle(t, base)
	post(t, srv.URL, small)
	for deadline := time.Now().Add(10 * time.Second); seen.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the shadow worker did not reach the second batch")
		}
	}
	for i := 0; i < queued; i++ {
		post(t, srv.URL, small)
	}

	var reqBytes, respBytes int
	g.shadow.mu.Lock()
	n := len(g.shadow.queue)
	for _, it := range g.shadow.queue {
		reqBytes += cap(it.reqBody.Bytes())
		respBytes += cap(it.body.Bytes())
	}
	g.shadow.mu.Unlock()
	close(release)
	const bound = 2 * queued * 4 << 10
	t.Logf("%d queued batches pin %d KiB of request and %d KiB of response buffers", n, reqBytes>>10, respBytes>>10)
	if n != queued {
		t.Fatalf("%d batches queued, want %d", n, queued)
	}
	if reqBytes >= bound || respBytes >= bound {
		t.Fatalf("queued bodies pin %d B of request and %d B of response buffers, want each under %d", reqBytes, respBytes, bound)
	}
	waitObserved(t, g, queued+2)
	settle(t, base)
}

// proxyBytes returns the bytes the process allocates per request that
// the gateway proxies and its raw-capture tap observes, for one body.
// Each request waits for the tap to observe the one before, as a tap
// that keeps up does; a queue that grows would hold a buffer per
// queued batch.
func proxyBytes(t *testing.T, g *Gateway, body []byte) float64 {
	t.Helper()
	h := g.Handler()
	serve := func(n int) {
		for i := 0; i < n; i++ {
			observed := g.ShadowObserved()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict_proba", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			waitObserved(t, g, observed+1)
		}
	}
	serve(20) // connection, pools and the tap's storage warm
	const calls = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	serve(calls)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / calls
}

// TestProxyBytesIndependentOfBodySize: the request body is read into a
// pooled buffer that the relay, the client's answer and the shadow tap
// share, and the response likewise, so a proxied request costs the
// same bytes whatever its body's size. The two bodies carry the same
// rows; the larger one is padded with whitespace.
func TestProxyBytesIndependentOfBodySize(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation is measured in full runs without the race detector")
	}
	f := getFixture(t)
	ds := f.serving.Sample(10, rand.New(rand.NewSource(8)))
	rows, canned := encodeBatch(t, ds), tapBatches(t, f, []*data.Dataset{ds})[0].resp
	g, _ := newGateway(t, Config{
		Monitor:         newMonitor(t, f),
		RawClasses:      f.serving.Classes,
		ShadowQueueSize: 1024,
		Logger:          log.New(io.Discard, "", 0),
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write(canned)
	}))
	small, large := proxyBytes(t, g, padded(rows, 2<<10)), proxyBytes(t, g, padded(rows, 50<<10))
	t.Logf("bytes per proxied request: %.0f for a 2 KB body, %.0f for a 50 KB body", small, large)
	if large-small > 2<<10 {
		t.Fatalf("a 50 KB body allocates %.0f B more per proxied request than a 2 KB body, want at most 2 KB", large-small)
	}
}
