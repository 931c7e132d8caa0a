package main

// The load generator. One process, a fixed set of sender goroutines and
// as many keep-alive connections. The open loop sends on a fixed
// schedule: a request's latency runs from the time it was *due*, so a
// stall also counts against every request queued behind it
// (coordinated omission). The closed loop sends each sender's next
// request when the previous one returns, which measures saturation.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// traffic sends a workload's pool of request bodies to one target. The
// n-th request of a run (counted across all phases) carries pool body
// n % len(bodies) and X-Request-ID "<workload>-<pool index>-<n>".
type traffic struct {
	client   *http.Client
	target   string
	workload string
	bodies   [][]byte
	// expected holds, per pool body, the response the backend gave for
	// it during set-up; every 2xx body must equal it byte for byte. Nil
	// skips the check.
	expected [][]byte
	// labelBodies, when set, holds the ground truth of each pool body as
	// a JSON array: after request n the sender POSTs the labels of
	// request n-labelLag to /labels.
	labelBodies [][]byte
	labelLag    int64

	seq atomic.Int64 // next request number
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// phaseResult is what one phase measured. attempted and failed count
// every request type; served counts 2xx /predict_proba responses.
type phaseResult struct {
	latMS      []float64 // successful /predict_proba latencies
	doneS      []float64 // when each of them completed, in seconds since the phase began
	lateMS     []float64 // open loop: how late idle senders woke for their slot
	lateAtS    []float64 // when each of those slots was due, in seconds since the phase began
	attempted  int64
	failed     int64
	served     int64
	mismatched int64 // 2xx bodies that differ from expected
}

func (p *phaseResult) merge(o phaseResult) {
	p.latMS = append(p.latMS, o.latMS...)
	p.doneS = append(p.doneS, o.doneS...)
	p.lateMS = append(p.lateMS, o.lateMS...)
	p.lateAtS = append(p.lateAtS, o.lateAtS...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.served += o.served
	p.mismatched += o.mismatched
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// open runs the open loop: request k of the phase is due at
// start + k/rate, for d. A sender that is idle sleeps until its slot is
// due and records how late it woke; a sender still busy when its slot
// came due sends at once, and that delay shows in the latency, which
// counts from the due time either way.
func (t *traffic) open(ctx context.Context, rate float64, d time.Duration, senders int) phaseResult {
	base := t.seq.Load()
	var next atomic.Int64
	start := time.Now()
	end := start.Add(d)
	res := t.fanOut(senders, func(local *phaseResult) {
		for ctx.Err() == nil {
			k := next.Add(1) - 1
			due := start.Add(time.Duration(float64(k) * float64(time.Second) / rate))
			if !due.Before(end) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
				local.lateMS = append(local.lateMS, ms(time.Since(due)))
				local.lateAtS = append(local.lateAtS, due.Sub(start).Seconds())
			}
			t.one(ctx, base+k, start, due, local)
		}
	})
	// Each sender drew one number past the schedule; skipping those
	// keeps request ids unique.
	t.seq.Store(base + next.Load())
	return res
}

// closed runs the closed loop for d: each sender sends its next request
// as soon as the previous one returns.
func (t *traffic) closed(ctx context.Context, d time.Duration, senders int) phaseResult {
	start := time.Now()
	end := start.Add(d)
	return t.fanOut(senders, func(local *phaseResult) {
		for ctx.Err() == nil && time.Now().Before(end) {
			t.one(ctx, t.seq.Add(1)-1, start, time.Now(), local)
		}
	})
}

// fanOut runs body on senders goroutines, waits for all of them and
// merges what they recorded.
func (t *traffic) fanOut(senders int, body func(local *phaseResult)) phaseResult {
	locals := make([]phaseResult, senders)
	var wg sync.WaitGroup
	for i := range locals {
		wg.Add(1)
		go func(local *phaseResult) {
			defer wg.Done()
			body(local)
		}(&locals[i])
	}
	wg.Wait()
	var res phaseResult
	for _, l := range locals {
		res.merge(l)
	}
	return res
}

// requestID names request n.
func (t *traffic) requestID(n int64) string {
	return fmt.Sprintf("%s-%d-%d", t.workload, n%int64(len(t.bodies)), n)
}

// one sends request n (latency timed from since) and, with labels on,
// the ground truth of request n-labelLag.
func (t *traffic) one(ctx context.Context, n int64, phaseStart, since time.Time, local *phaseResult) {
	i := int(n % int64(len(t.bodies)))
	status, body, err := t.send(ctx, "/predict_proba", t.bodies[i], t.requestID(n))
	done := time.Now()
	lat := done.Sub(since)
	local.attempted++
	if err != nil || status/100 != 2 {
		local.failed++
	} else {
		local.served++
		local.latMS = append(local.latMS, ms(lat))
		local.doneS = append(local.doneS, done.Sub(phaseStart).Seconds())
		if t.expected != nil && !bytes.Equal(body, t.expected[i]) {
			local.mismatched++
		}
	}
	if t.labelBodies != nil && n >= t.labelLag {
		m := n - t.labelLag
		payload := fmt.Sprintf(`{"records":[{"request_id":%q,"labels":%s}]}`,
			t.requestID(m), t.labelBodies[m%int64(len(t.bodies))])
		status, _, err := t.send(ctx, "/labels", []byte(payload), "")
		local.attempted++
		if err != nil || status/100 != 2 {
			local.failed++
		}
	}
}

// send POSTs one JSON body and reads the whole response.
func (t *traffic) send(ctx context.Context, path string, body []byte, id string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.target+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}
