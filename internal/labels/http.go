package labels

// http.go is the subsystem's wire surface, mounted under /labels on
// the gateway and monitor muxes:
//
//	POST /labels           -> ingest {"records":[{request_id, rows?, labels}]}
//	GET  /labels/requests  -> budgeted worklist (?budget=N&policy=ts|uniform)
//	GET  /labels/status    -> Snapshot JSON
//
// The ingest decoder is bounded and strict (size cap, record caps, no
// trailing garbage) — it is the fuzz target FuzzLabelsDecode hardens.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"blackboxval/internal/obs"
)

const (
	// MaxBodyBytes bounds one POST /labels body.
	MaxBodyBytes = 4 << 20
	// maxRecords bounds the records in one ingest call.
	maxRecords = 10000
	// maxRowsPerRecord bounds one record's label vector.
	maxRowsPerRecord = 100000
	// maxWorklist bounds one GET /labels/requests response.
	maxWorklist = 10000
)

// IngestRequest is the POST /labels body.
type IngestRequest struct {
	Records []Record `json:"records"`
}

// DecodeIngest parses and validates one ingest body. It enforces the
// record and row caps and rejects trailing data, so a malformed or
// adversarial body cannot balloon the join state.
func DecodeIngest(r io.Reader) (*IngestRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes))
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("labels: decoding body: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("labels: trailing data after request object")
	}
	if len(req.Records) == 0 {
		return nil, fmt.Errorf("labels: no records")
	}
	if len(req.Records) > maxRecords {
		return nil, fmt.Errorf("labels: %d records exceeds the cap %d", len(req.Records), maxRecords)
	}
	for i, rec := range req.Records {
		if rec.RequestID == "" {
			return nil, fmt.Errorf("labels: record %d: request_id is required", i)
		}
		if len(rec.Labels) == 0 {
			return nil, fmt.Errorf("labels: record %d: labels are required", i)
		}
		if len(rec.Labels) > maxRowsPerRecord {
			return nil, fmt.Errorf("labels: record %d: %d labels exceeds the cap %d", i, len(rec.Labels), maxRowsPerRecord)
		}
		if rec.Rows != nil && len(rec.Rows) != len(rec.Labels) {
			return nil, fmt.Errorf("labels: record %d: %d rows vs %d labels", i, len(rec.Rows), len(rec.Labels))
		}
	}
	return &req, nil
}

// Handler serves the subsystem. It accepts paths both with and without
// the /labels prefix, so it works mounted via mux.Handle("/labels",
// h) + mux.Handle("/labels/", h) or standalone in tests.
func (s *Store) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := strings.TrimPrefix(r.URL.Path, "/labels")
		switch path {
		case "", "/":
			s.handleIngest(w, r)
		case "/requests":
			s.handleRequests(w, r)
		case "/status":
			s.handleStatus(w, r)
		default:
			http.NotFound(w, r)
		}
	})
}

func (s *Store) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// Label joins are traced like any other hop: a labeling system that
	// posts ground truth with a sampled traceparent gets a label_join
	// span in its waterfall, with the joined/buffered split attached.
	var span *obs.Span
	if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
		if tc, err := obs.ParseTraceparent(tp); err == nil && tc.Sampled() {
			_, span = obs.StartSpan(obs.ContextWithTrace(r.Context(), tc), "label_join")
			defer span.End()
		}
	}
	req, err := DecodeIngest(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res := s.Ingest(req.Records)
	if span != nil {
		span.SetMetric("posted", float64(res.Posted))
		span.SetMetric("joined_rows", float64(res.JoinedRows))
		span.SetMetric("buffered", float64(res.Buffered))
	}
	obs.WriteJSON(w, res)
}

func (s *Store) handleRequests(w http.ResponseWriter, r *http.Request) {
	if !obs.RequireGet(w, r) {
		return
	}
	budget := 100
	if b := r.URL.Query().Get("budget"); b != "" {
		v, err := strconv.Atoi(b)
		if err != nil || v <= 0 {
			http.Error(w, "invalid budget", http.StatusBadRequest)
			return
		}
		budget = v
	}
	if budget > maxWorklist {
		budget = maxWorklist
	}
	policy := r.URL.Query().Get("policy")
	switch policy {
	case "", PolicyThompson, PolicyUniform:
	default:
		http.Error(w, fmt.Sprintf("unknown policy %q (want %s or %s)", policy, PolicyThompson, PolicyUniform), http.StatusBadRequest)
		return
	}
	items := s.Worklist(budget, policy)
	if items == nil {
		items = []WorkItem{}
	}
	obs.WriteJSON(w, map[string]any{"requests": items})
}

func (s *Store) handleStatus(w http.ResponseWriter, r *http.Request) {
	if obs.RequireGet(w, r) {
		obs.WriteJSON(w, s.Snapshot())
	}
}
