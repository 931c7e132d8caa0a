// Package cloud reproduces the paper's cloud-hosted black box setting
// (Section 6.3.2, Google AutoML Tables): the model lives behind a network
// service and the validation system can only exchange serving data for
// class probabilities. Server wraps any data.Model behind an HTTP JSON
// API; Client implements data.Model over that API, so predictors and
// validators can be trained against a remote model without any code
// changes.
package cloud

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"

	"blackboxval/internal/data"
	"blackboxval/internal/frame"
	"blackboxval/internal/imgdata"
	"blackboxval/internal/linalg"
	"blackboxval/internal/obs"
)

// decodeRequest reconstructs an unlabeled dataset from a decoded
// request body. The caller names the classes. Duplicate column names,
// columns of unequal length and image dimensions whose pixel count
// overflows are errors.
func decodeRequest(req predictRequest) (*data.Dataset, error) {
	ds := &data.Dataset{}
	if len(req.Images) > 0 {
		if req.Width <= 0 || req.Height <= 0 {
			return nil, fmt.Errorf("cloud: image request lacks dimensions")
		}
		if req.Width > math.MaxInt/req.Height {
			return nil, fmt.Errorf("cloud: image dimensions %dx%d overflow", req.Width, req.Height)
		}
		set := imgdata.NewSet(req.Width, req.Height)
		for i, px := range req.Images {
			if len(px) != req.Width*req.Height {
				return nil, fmt.Errorf("cloud: image %d has %d pixels, want %d", i, len(px), req.Width*req.Height)
			}
			set.Append(px)
		}
		ds.Images = set
		ds.Labels = make([]int, set.Len())
		return ds, nil
	}
	f, n, err := buildFrame(req.Columns)
	if err != nil {
		return nil, err
	}
	ds.Frame = f
	ds.Labels = make([]int, n)
	return ds, nil
}

// buildFrame assembles the frame of a tabular request over the decoded
// column slices and returns its row count. Duplicate column names,
// columns of unequal length, unknown kinds and a request without
// columns are errors.
func buildFrame(cols []wireColumn) (*frame.DataFrame, int, error) {
	f := frame.New()
	n := -1
	for _, wc := range cols {
		rows := wc.rows()
		if f.Column(wc.Name) != nil {
			return nil, 0, fmt.Errorf("cloud: duplicate column %q", wc.Name)
		}
		if n >= 0 && rows != n {
			return nil, 0, raggedColumn(wc, n)
		}
		switch wc.Kind {
		case "numeric":
			f.AddNumeric(wc.Name, wc.Num)
		case "categorical":
			f.AddCategorical(wc.Name, wc.Str)
		case "text":
			f.AddText(wc.Name, wc.Str)
		default:
			return nil, 0, fmt.Errorf("cloud: unknown column kind %q", wc.Kind)
		}
		n = rows
	}
	if n < 0 {
		return nil, 0, fmt.Errorf("cloud: request has no columns or images")
	}
	return f, n, nil
}

// rows is the length of the column's cells of its kind.
func (wc *wireColumn) rows() int {
	if wc.Kind == "numeric" {
		return len(wc.Num)
	}
	return len(wc.Str)
}

func raggedColumn(wc wireColumn, want int) error {
	return fmt.Errorf("cloud: column %q has %d rows, want %d", wc.Name, wc.rows(), want)
}

// classNames returns placeholder names for a served model's classes.
func classNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("class%d", i)
	}
	return out
}

// Server exposes a data.Model over HTTP. Mount its Handler and point a
// Client at the listen address.
type Server struct {
	model data.Model
}

// NewServer wraps a trained model.
func NewServer(model data.Model) *Server { return &Server{model: model} }

// Handler returns the HTTP handler implementing the prediction API:
//
//	POST /predict_proba  body: predictRequest  ->  {"probabilities":[[..],..],"num_classes":n}
//	GET  /healthz        -> 200 ok
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict_proba", s.handlePredict)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// Join a sampled trace extracted upstream (obs.TraceMiddleware):
	// the backend_predict span is what the stitched waterfall shows as
	// the model-compute hop. Untraced requests skip all of this.
	if tc, traced := obs.TraceFromContext(r.Context()); traced && tc.Sampled() {
		_, span := obs.StartSpan(r.Context(), "backend_predict")
		if id := r.Header.Get(obs.RequestIDHeader); id != "" {
			span.SetAttr("request_id", id)
		}
		defer span.End()
	}
	body, err := ReadBody(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := readRequest(body)
	if err != nil {
		http.Error(w, "invalid JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	ds, err := decodeRequest(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ds.Classes = classNames(s.model.NumClasses())
	proba := s.model.PredictProba(ds)
	// The body is written straight from the matrix into a pooled buffer.
	bp := getBuf()
	out, err := appendResponse(*bp, proba)
	if err != nil {
		putBuf(bp, *bp)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
	putBuf(bp, out)
}

// Client is a data.Model backed by a remote prediction service. The
// validation system treats it exactly like a local model: the ultimate
// black box.
type Client struct {
	// BaseURL of the service, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the default http.DefaultClient.
	HTTPClient *http.Client
	// Logger receives transport failures surfaced through the
	// error-less data.Model path (nil = the standard logger).
	Logger *log.Logger

	numClasses int
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// PredictProba implements data.Model by calling the remote service. Like
// any data.Model it has no error channel; transport failures are logged
// and then propagated by panicking, as a real deployment would page
// rather than silently continue. Callers that can handle errors (the
// gateway's backend path, health probes) should use PredictCtx instead.
func (c *Client) PredictProba(ds *data.Dataset) *linalg.Matrix {
	proba, err := c.Predict(ds)
	if err != nil {
		logger := c.Logger
		if logger == nil {
			logger = log.Default()
		}
		logger.Printf("cloud: prediction request to %s failed: %v", c.BaseURL, err)
		panic(fmt.Sprintf("cloud: prediction request failed: %v", err))
	}
	return proba
}

// Predict is the error-returning variant of PredictProba.
func (c *Client) Predict(ds *data.Dataset) (*linalg.Matrix, error) {
	return c.PredictCtx(context.Background(), ds)
}

// PredictCtx calls the remote service under the given context, so
// callers control per-request timeouts and cancellation. It is the
// primitive the other predict methods delegate to. A W3C trace context
// carried by ctx is propagated: sampled traces get a cloud_predict
// child span around the remote call, and the traceparent header rides
// the request so the backend's spans join the same trace.
func (c *Client) PredictCtx(ctx context.Context, ds *data.Dataset) (*linalg.Matrix, error) {
	tc, traced := obs.TraceFromContext(ctx)
	if traced && tc.Sampled() {
		spanCtx, span := obs.StartSpan(ctx, "cloud_predict")
		span.SetMetric("rows", float64(ds.Len()))
		defer span.End()
		ctx = spanCtx
		tc = span.TraceContext()
	}
	payload, err := EncodeRequest(ds)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/predict_proba", bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("cloud: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("cloud: calling service: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := ReadBody(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("cloud: service returned %s: %s", resp.Status, msg)
	}
	body, err := ReadBody(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cloud: reading response: %w", err)
	}
	out, numClasses, err := ParseProbaResponse(body)
	if err != nil {
		return nil, err
	}
	c.numClasses = numClasses
	return out, nil
}

// EncodeRequest serializes a dataset's features (never its labels) as a
// /predict_proba request body, for callers that speak the wire format
// directly — e.g. traffic generators driving the gateway.
func EncodeRequest(ds *data.Dataset) ([]byte, error) {
	bp := getBuf()
	b, err := appendRequest(*bp, ds)
	if err != nil {
		putBuf(bp, *bp)
		return nil, fmt.Errorf("cloud: encoding request: %w", err)
	}
	payload := bytes.Clone(b)
	putBuf(bp, b)
	return payload, nil
}

// DecodeRequest reconstructs the unlabeled serving rows from a raw
// /predict_proba request body. classes names the model's classes (the
// decoded dataset needs a class list; pass the manifest's). The result
// is the caller's: it shares no storage with the decoder. A caller
// decoding a stream of bodies one at a time can use a RequestDecoder,
// which reuses its storage from one body to the next.
func DecodeRequest(body []byte, classes []string) (*data.Dataset, error) {
	req, err := readRequest(body)
	if err != nil {
		return nil, fmt.Errorf("cloud: decoding request: %w", err)
	}
	ds, err := decodeRequest(req)
	if err != nil {
		return nil, err
	}
	ds.Classes = append([]string(nil), classes...)
	return ds, nil
}

// RequestDecoder is DecodeRequest for a stream of bodies decoded one at
// a time, as the gateway's shadow worker decodes each tapped request
// for the incident flight recorder. Each body decodes into the storage
// the previous one used: the column slices, the interned strings, the
// frame (while the column layout — names, kinds, order — is unchanged)
// and the zeroed label slice, so a stream of like-shaped bodies decodes
// without allocating. A decoded dataset equals DecodeRequest's for the
// same body, value for value, and every error is the same; but it is
// valid only until the next Decode. Image requests decode into new
// storage. After each call, storage above a fixed bound
// (maxPooledScratch elements, maxInternedBytes of interned strings) is
// released, so one huge body cannot pin its columns. A RequestDecoder
// is not safe for concurrent use.
type RequestDecoder struct {
	classes []string
	d       decoder
	cols    []wireColumn     // column storage, reset before each body
	frame   *frame.DataFrame // the last tabular body's frame
	labels  []int
	ds      data.Dataset
}

// NewRequestDecoder returns a decoder whose datasets name classes.
func NewRequestDecoder(classes []string) *RequestDecoder {
	return &RequestDecoder{classes: append([]string(nil), classes...)}
}

// Decode decodes one request body like DecodeRequest. The dataset and
// everything it references are valid until the next call.
func (r *RequestDecoder) Decode(body []byte) (*data.Dataset, error) {
	defer r.release()
	r.reset()
	d := &r.d
	d.start(body)
	req := predictRequest{Columns: r.cols[:0]}
	err := d.request(&req)
	if cap(req.Columns) > cap(r.cols) {
		r.cols = req.Columns[:cap(req.Columns)]
	}
	if err != nil {
		return nil, fmt.Errorf("cloud: decoding request: %w", err)
	}
	if d.nrows > 0 {
		req.Images = d.imageRows()
		ds, err := decodeRequest(req)
		if err != nil {
			return nil, err
		}
		ds.Classes = r.classes
		return ds, nil
	}
	n, err := r.fillFrame(req.Columns)
	if err != nil {
		return nil, err
	}
	if cap(r.labels) < n {
		r.labels = make([]int, n)
	}
	labels := r.labels[:n:n]
	clear(labels)
	r.ds = data.Dataset{Frame: r.frame, Labels: labels, Classes: r.classes}
	if r.retained() > maxPooledScratch { // release lets go of it all
		ds := r.ds
		return &ds, nil
	}
	return &r.ds, nil
}

// reset readies the kept column storage for the next body: names,
// kinds and string cells cleared (a null string cell keeps what the
// slice held, which must be "" as in a new slice), cell slices emptied
// with their backing kept.
func (r *RequestDecoder) reset() {
	for i := range r.cols {
		c := &r.cols[i]
		clear(c.Str[:cap(c.Str)])
		*c = wireColumn{Num: c.Num[:0], Str: c.Str[:0]}
	}
}

// fillFrame points r.frame at the decoded columns and returns the row
// count. While the column layout is the last body's, that frame is
// reused: its layout was checked then, so only the row counts can
// disagree. Otherwise buildFrame builds and checks a new one.
func (r *RequestDecoder) fillFrame(cols []wireColumn) (int, error) {
	f := r.frame
	if f == nil || !sameLayout(f, cols) {
		r.frame = nil
		f, n, err := buildFrame(cols)
		if err != nil {
			return 0, err
		}
		r.frame = f
		return n, nil
	}
	n := cols[0].rows()
	for _, wc := range cols[1:] {
		if wc.rows() != n {
			return 0, raggedColumn(wc, n)
		}
	}
	for i, c := range f.Columns() {
		if c.Kind == frame.Numeric {
			c.Num = cols[i].Num
		} else {
			c.Str = cols[i].Str
		}
	}
	return n, nil
}

// sameLayout reports whether cols has f's column names and kinds, in
// order.
func sameLayout(f *frame.DataFrame, cols []wireColumn) bool {
	fc := f.Columns()
	if len(fc) != len(cols) {
		return false
	}
	for i, c := range fc {
		if c.Name != cols[i].Name || c.Kind.String() != cols[i].Kind {
			return false
		}
	}
	return true
}

// retained counts the elements of column storage the decoder keeps
// between bodies.
func (r *RequestDecoder) retained() int {
	n := cap(r.cols) + cap(r.labels)
	for _, c := range r.cols {
		n += cap(c.Num) + cap(c.Str)
	}
	return n
}

// release lets go of the body and of storage above the retention bound.
func (r *RequestDecoder) release() {
	d := &r.d
	d.end()
	if d.internBytes > maxInternedBytes || len(d.intern) >= maxInterned {
		d.clearInterned()
	}
	if d.oversized() {
		d.floats, d.strs, d.cols, d.arena, d.rows = nil, nil, nil, nil, nil
	}
	if r.retained() > maxPooledScratch {
		r.cols, r.frame, r.labels, r.ds = nil, nil, nil, data.Dataset{}
	}
}

// NumClasses implements data.Model. It is learned from the first
// response; call Predict once (e.g. via a health probe batch) before
// relying on it.
func (c *Client) NumClasses() int { return c.numClasses }
