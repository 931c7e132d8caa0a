package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blackboxval/bench/stat"
)

// A server that freezes for 200 ms must inflate the latency of every
// request that came due during the freeze, not just of the few in flight
// when it began: latency runs from the due time.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 200 * time.Millisecond
	start := time.Now()
	var once sync.Once
	var mu sync.Mutex
	var stallUntil time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if time.Since(start) > 300*time.Millisecond {
			once.Do(func() {
				mu.Lock()
				stallUntil = time.Now().Add(stall)
				mu.Unlock()
			})
		}
		mu.Lock()
		wait := time.Until(stallUntil)
		mu.Unlock()
		if wait > 0 {
			time.Sleep(wait)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()

	const rate = 200.0
	tr := &traffic{client: newClient(2), target: srv.URL, workload: "t", bodies: [][]byte{[]byte("{}")}}
	res := tr.open(context.Background(), rate, time.Second, 2)

	if res.failed != 0 || res.served != int64(rate) {
		t.Fatalf("served %d, failed %d; want %d served", res.served, res.failed, int(rate))
	}
	slow := 0
	for _, l := range res.latMS {
		if l >= 100 {
			slow++
		}
	}
	// About 100 ms worth of slots (20 at 200/s) came due in the first half
	// of the stall; timing from the send would have charged only the two
	// requests the senders had in flight.
	if slow < 15 {
		t.Errorf("%d requests at >= 100 ms; the stall was not charged to the requests queued behind it", slow)
	}
	if p99 := stat.Percentile(res.latMS, 99); p99 < 150 {
		t.Errorf("p99 %.1f ms; want the stall in the tail", p99)
	}
	// Slots that came due while both senders were blocked are the
	// system's delay, not the generator's.
	for _, l := range res.lateMS {
		if l > 100 {
			t.Fatalf("generator lateness %.1f ms counts the server's stall", l)
		}
	}
	if len(res.lateAtS) != len(res.lateMS) {
		t.Fatalf("%d due times for %d lateness samples", len(res.lateAtS), len(res.lateMS))
	}
	for _, at := range res.lateAtS {
		if at < 0 || at >= 1 {
			t.Fatalf("slot due at %.3f s, outside the 1 s phase", at)
		}
	}
}

// group puts each value in the window its time falls in and leaves out
// values before the first reading or after the last.
func TestSamplerGroup(t *testing.T) {
	s := &sampler{at: []float64{0.01, 1, 2}}
	got := s.group([]float64{0, 0.5, 1, 1.5, 2.5}, []float64{9, 1, 2, 3, 9})
	if len(got) != 2 || len(got[0]) != 1 || got[0][0] != 1 || len(got[1]) != 2 || got[1][0] != 2 || got[1][1] != 3 {
		t.Fatalf("group = %v, want [[1] [2 3]]", got)
	}
}

// A 503 is a failed request, in the attempted count; a 2xx whose body
// differs from the backend's reference answer is a mismatch. Ground
// truth for request n follows request n+lag, and a refused label post
// is a failure too.
func TestFailuresMismatchesAndLabels(t *testing.T) {
	var n atomic.Int64
	var mu sync.Mutex
	var labelled []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/labels" {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			labelled = append(labelled, string(body))
			full := len(labelled) > 30
			mu.Unlock()
			if full {
				http.Error(w, "label store full", http.StatusServiceUnavailable)
			}
			return
		}
		switch k := n.Add(1); {
		case k%4 == 0:
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
		case k%4 == 1:
			w.Write([]byte("wrong"))
		default:
			w.Write([]byte("right"))
		}
	}))
	defer srv.Close()

	tr := &traffic{client: newClient(1), target: srv.URL, workload: "t",
		bodies: [][]byte{[]byte("{}"), []byte("{}")}, expected: [][]byte{[]byte("right"), []byte("right")},
		labelBodies: [][]byte{[]byte("[0]"), []byte("[1]")}, labelLag: 2}
	var res phaseResult
	for i := int64(0); i < 40; i++ {
		tr.one(context.Background(), i, time.Now(), time.Now(), &res)
	}
	// 40 predictions (10 refused, 10 wrong) and 38 label posts (8 refused).
	if res.attempted != 78 || res.failed != 18 || res.served != 30 || res.mismatched != 10 {
		t.Fatalf("attempted %d failed %d served %d mismatched %d; want 78/18/30/10",
			res.attempted, res.failed, res.served, res.mismatched)
	}
	if len(res.latMS) != 30 {
		t.Errorf("%d latency samples; failed requests must not be timed", len(res.latMS))
	}
	if want := `{"records":[{"request_id":"t-1-3","labels":[1]}]}`; labelled[3] != want {
		t.Errorf("fourth label post %s, want %s", labelled[3], want)
	}
}
