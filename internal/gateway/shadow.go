package gateway

import (
	"context"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"blackboxval/internal/cloud"
	"blackboxval/internal/data"
	"blackboxval/internal/linalg"
	"blackboxval/internal/monitor"
	"blackboxval/internal/obs"
)

// shadowTap feeds proxied response bodies into the performance monitor
// off the hot path. A bounded queue decouples serving latency from
// shadow-validation cost; under pressure the tap drops the OLDEST
// queued batch — recency matters more than completeness for drift
// detection, and traffic must never block on validation. Each queued
// batch holds a reference to the pooled bodies it carries, released
// once the batch is observed or evicted. Its one worker goroutine
// decodes every batch into storage the tap keeps from one batch to the
// next (the response matrix, the raw decoder's columns), which the
// monitor borrows for the length of one observation.
type shadowTap struct {
	mon     *monitor.Monitor
	logger  *log.Logger
	metrics *Metrics

	mu    sync.Mutex
	queue []shadowItem // bounded FIFO of tapped exchanges
	cap   int
	wake  chan struct{} // 1-buffered worker doorbell
	done  chan struct{}
	wg    sync.WaitGroup

	observed atomic.Int64

	// onRecord observes each monitor record (gauge updates).
	onRecord func(monitor.Record)
	// observeStage, when set, times the monitor_observe stage into the
	// serving SLO observatory (runs on the shadow worker, off the hot
	// path).
	observeStage func(stage string, seconds float64, requestID string)
	// raw, when set, recovers the raw serving rows from the request
	// body so monitor batch observers (the incident reservoir) see
	// them. Nil = response-only tap. Only the worker calls it.
	raw *cloud.RequestDecoder
	// proba is the worker's response matrix, reused batch to batch.
	proba linalg.Matrix
}

// maxKeptProba bounds the response matrix (in values) the worker keeps
// between batches; a bigger batch's matrix is left to the GC.
const maxKeptProba = 1 << 16

// newShadowTap starts a tap feeding mon. rawClasses, when non-nil, names
// the model's classes for decoding each tapped request body.
func newShadowTap(mon *monitor.Monitor, capacity int, logger *log.Logger, metrics *Metrics, onRecord func(monitor.Record), rawClasses []string) *shadowTap {
	if capacity <= 0 {
		capacity = 256
	}
	t := &shadowTap{
		mon:      mon,
		logger:   logger,
		metrics:  metrics,
		cap:      capacity,
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
		onRecord: onRecord,
	}
	if rawClasses != nil {
		t.raw = cloud.NewRequestDecoder(rawClasses)
	}
	t.wg.Add(1)
	go t.run()
	return t
}

// shadowItem is one queued batch: the raw backend response, optionally
// the request body that produced it (only retained when a raw decoder
// wants it — doubling queue memory for nothing is not worth it), plus
// the correlation id and trace context of the serving request, so the
// asynchronous monitor observation still lands in the request's trace.
type shadowItem struct {
	reqBody   *cloud.Body // nil without raw capture
	body      *cloud.Body
	requestID string
	trace     obs.TraceContext
}

// release drops the item's references to its bodies.
func (it shadowItem) release() {
	if it.reqBody != nil {
		it.reqBody.Release()
	}
	it.body.Release()
}

// Enqueue hands one exchange to the tap: the response body, the request
// body (kept only for raw capture), the request id, and the serving
// request's trace context (the gateway_request span's coordinates), so
// the queued observation becomes a child span of the request even
// though it runs on the shadow worker after the response was sent. The
// queue takes its own references to the bodies it keeps; the caller
// keeps its own. It never blocks: when the queue is full the oldest
// pending batch is evicted.
func (t *shadowTap) Enqueue(reqBody, body *cloud.Body, requestID string, tc obs.TraceContext) {
	if t.raw == nil {
		reqBody = nil
	}
	if reqBody != nil {
		reqBody.Retain()
	}
	body.Retain()
	t.mu.Lock()
	var evicted shadowItem
	if len(t.queue) >= t.cap {
		evicted = t.queue[0]
		t.queue = t.queue[1:]
		t.metrics.shadowDropped.Add(1, "dropped")
	}
	t.queue = append(t.queue, shadowItem{reqBody: reqBody, body: body, requestID: requestID, trace: tc})
	t.mu.Unlock()
	if evicted.body != nil {
		evicted.release()
	}
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// Depth returns the number of batches waiting in the queue.
func (t *shadowTap) Depth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.queue)
}

// Observed returns how many batches reached the monitor (test sync aid).
func (t *shadowTap) Observed() int64 { return t.observed.Load() }

// Close stops the worker after it drains the current queue.
func (t *shadowTap) Close() {
	close(t.done)
	t.wg.Wait()
}

func (t *shadowTap) run() {
	defer t.wg.Done()
	for {
		item, ok := t.pop()
		if ok {
			t.observe(item)
			item.release()
			continue
		}
		select {
		case <-t.wake:
		case <-t.done:
			// Drain whatever is left so no observed batch is lost on
			// graceful shutdown, then exit.
			for {
				item, ok := t.pop()
				if !ok {
					return
				}
				t.observe(item)
				item.release()
			}
		}
	}
}

func (t *shadowTap) pop() (shadowItem, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.queue) == 0 {
		return shadowItem{}, false
	}
	item := t.queue[0]
	t.queue = t.queue[1:]
	return item, true
}

// observe decodes one queued batch into the tap's storage and feeds it
// to the monitor, which borrows it for the call. The caller releases
// the item's bodies afterwards.
func (t *shadowTap) observe(item shadowItem) {
	defer func() {
		if cap(t.proba.Data) > maxKeptProba {
			t.proba = linalg.Matrix{}
		}
	}()
	proba := &t.proba
	if _, err := cloud.ParseProbaResponseInto(proba, item.body.Bytes()); err != nil || proba.Rows == 0 {
		t.metrics.shadowDropped.Add(1, "undecodable")
		if err != nil && t.logger != nil {
			t.logger.Printf("gateway: shadow tap cannot decode backend response: %v", err)
		}
		return
	}
	var batch *data.Dataset
	if t.raw != nil && item.reqBody != nil {
		ds, err := t.raw.Decode(item.reqBody.Bytes())
		if err != nil {
			// Attribution degrades gracefully: observe the outputs anyway.
			t.metrics.shadowDropped.Add(1, "raw_undecodable")
			if t.logger != nil {
				t.logger.Printf("gateway: shadow tap cannot decode request body: %v", err)
			}
		} else {
			batch = ds
		}
	}
	observeStart := time.Now()
	ctx := context.Background()
	if !item.trace.TraceID.IsZero() {
		ctx = obs.ContextWithTrace(ctx, item.trace)
	}
	rec := t.mon.ObserveBatchProbaCtx(ctx, batch, proba, item.requestID)
	if t.observeStage != nil {
		t.observeStage(StageMonitorObserve, time.Since(observeStart).Seconds(), item.requestID)
	}
	t.observed.Add(1)
	t.metrics.shadowDropped.Add(1, "observed")
	if t.onRecord != nil {
		t.onRecord(rec)
	}
}
