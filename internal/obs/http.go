package obs

// HTTP surface shared by every binary: the /metrics exposition
// handler with the canonical Prometheus content type, the
// /debug/pprof/* profiling endpoints, the /debug/spans JSON trace
// export, a request-instrumentation middleware, and the response
// helpers every operator-facing JSON endpoint is written with.

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// ContentType is the canonical Prometheus text exposition content
// type served by every /metrics endpoint in this repository.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry's text exposition at GET.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		r.WriteTo(w)
	})
}

// RequireGet reports whether req is a GET, answering anything else
// with 405 "GET required".
func RequireGet(w http.ResponseWriter, req *http.Request) bool {
	if req.Method != http.MethodGet {
		http.Error(w, "GET required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// SetNoStore sets an explicit Content-Type and Cache-Control: no-store:
// every operator endpoint reports live state that a cache (or a
// browser's back button) must never serve stale.
func SetNoStore(w http.ResponseWriter, contentType string) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-store")
}

// WriteJSON writes v as a JSON document with SetNoStore's headers; an
// encoding failure is a 500.
func WriteJSON(w http.ResponseWriter, v any) {
	SetNoStore(w, "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Limit applies the ?limit= contract every list endpoint shares
// (/timeline, /history, /debug/spans): absent keeps all of xs, N keeps
// the N most recent (last) entries, and non-numeric or negative input
// is a 400, never a silent default, reported as ok=false.
func Limit[T any](w http.ResponseWriter, req *http.Request, xs []T) ([]T, bool) {
	raw := req.URL.Query().Get("limit")
	if raw == "" {
		return xs, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		http.Error(w, "limit must be a non-negative integer", http.StatusBadRequest)
		return nil, false
	}
	if n < len(xs) {
		xs = xs[len(xs)-n:]
	}
	return xs, true
}

// Handler serves the tracer's retained span trees as indented JSON at
// GET, under the shared ?limit= contract.
func (t *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !RequireGet(w, req) {
			return
		}
		roots, ok := Limit(w, req, t.Traces())
		if !ok {
			return
		}
		out := make([]SpanJSON, 0, len(roots))
		for _, r := range roots {
			out = append(out, r.JSON())
		}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		SetNoStore(w, "application/json")
		w.Write(buf)
	})
}

// TraceHandler serves the local fragments of stitched traces:
//
//	GET /debug/traces               JSON index of trace ids in the ring
//	GET /debug/traces/{traceid}     this process's spans for the trace,
//	                                merged from the ring and the journal
//	GET /debug/traces/{id}?format=html  single-process waterfall page
//
// service names the process in the waterfall (e.g. the gateway's
// replica name). Mount under the exact prefix "/debug/traces/".
func (t *Tracer) TraceHandler(service string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !RequireGet(w, req) {
			return
		}
		id := strings.Trim(strings.TrimPrefix(req.URL.Path, "/debug/traces"), "/")
		w.Header().Set("Cache-Control", "no-store")
		if id == "" {
			WriteJSON(w, struct {
				Service  string   `json:"service"`
				TraceIDs []string `json:"trace_ids"`
			}{service, t.TraceIDs()})
			return
		}
		spans := t.FindTrace(id)
		if j := t.Journal(); j != nil {
			spans = append(spans, j.Find(id)...)
		}
		if len(spans) == 0 {
			http.Error(w, "unknown trace id (unsampled, evicted, or never seen)", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "html" {
			wf, err := StitchTrace(id, []TraceFragment{{Service: service, Spans: spans}})
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			w.Write(wf.HTML())
			return
		}
		WriteJSON(w, TraceFragment{Service: service, Spans: spans})
	})
}

// TraceMiddleware extracts an incoming traceparent header into the
// request context (and, when tr is non-nil, pins root spans started
// under that context to tr). Requests without a traceparent pass
// through untouched — the untraced hot path costs one header lookup.
func TraceMiddleware(tr *Tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if tp := req.Header.Get(TraceparentHeader); tp != "" {
			if tc, err := ParseTraceparent(tp); err == nil {
				ctx := ContextWithTrace(req.Context(), tc)
				if tr != nil {
					ctx = WithTracer(ctx, tr)
				}
				req = req.WithContext(ctx)
			}
		}
		next.ServeHTTP(w, req)
	})
}

// Mount attaches the shared observability surface to mux:
//
//	GET /metrics            Prometheus text exposition of reg
//	GET /debug/spans        JSON export of the tracer's span trees
//	GET /debug/traces/*     local trace fragments + waterfall view
//	GET /debug/pprof/*      net/http/pprof profiling endpoints
//
// nil reg or tr default to the process-global instances.
func Mount(mux *http.ServeMux, reg *Registry, tr *Tracer) {
	if reg == nil {
		reg = Default()
	}
	if tr == nil {
		tr = DefaultTracer()
	}
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/spans", tr.Handler())
	mux.Handle("/debug/traces", tr.TraceHandler(""))
	mux.Handle("/debug/traces/", tr.TraceHandler(""))
	MountPprof(mux)
}

// MountPprof attaches only the /debug/pprof/* endpoints, for handlers
// that already serve their own /metrics (the gateway).
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// RequestIDHeader carries the end-to-end correlation id minted by the
// gateway and propagated to the backend: one id links the proxy log
// line, the backend call and the shadow-validation verdict.
const RequestIDHeader = "X-Request-ID"

// Middleware wraps next with request accounting on reg:
//
//	http_requests_total{handler,code}
//	http_request_duration_seconds{handler}
//
// The handler label keeps one serving binary's families distinct from
// another's when both are scraped into the same Prometheus. An incoming
// X-Request-ID is echoed on the response and attached to the (debug
// level) access log line, so a request proxied through the gateway is
// correlatable on the backend side too.
func Middleware(reg *Registry, handlerName string, next http.Handler) http.Handler {
	if reg == nil {
		reg = Default()
	}
	requests := reg.CounterVec("http_requests_total",
		"HTTP requests by handler and status code.", "handler", "code")
	latency := reg.HistogramVec("http_request_duration_seconds",
		"HTTP request latency by handler.", DurationBuckets, "handler")
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		id := req.Header.Get(RequestIDHeader)
		if id != "" {
			w.Header().Set(RequestIDHeader, id)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, req)
		requests.Inc(handlerName, httpStatusClass(rec.status))
		latency.Observe(time.Since(start).Seconds(), handlerName)
		if id != "" {
			slog.Debug("request", "handler", handlerName, "method", req.Method,
				"path", req.URL.Path, "code", rec.status, "request_id", id)
		}
	})
}

// httpStatusClass buckets status codes ("200", "404", ...) exactly —
// low cardinality is preserved because only codes actually emitted by
// the handlers appear.
func httpStatusClass(code int) string {
	switch code {
	case 200:
		return "200"
	case 400:
		return "400"
	case 404:
		return "404"
	case 405:
		return "405"
	case 500:
		return "500"
	case 503:
		return "503"
	default:
		// Collapse the long tail by class to bound cardinality.
		switch {
		case code < 300:
			return "2xx"
		case code < 400:
			return "3xx"
		case code < 500:
			return "4xx"
		default:
			return "5xx"
		}
	}
}
