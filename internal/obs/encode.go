package obs

// encode.go: the append-form JSON of timeline windows — the payload of
// every durable timeline record (internal/obs/tsdb). It writes exactly
// the bytes encoding/json.Marshal writes for a Window, without
// reflection: struct fields in declaration order, map keys sorted and
// HTML-escaped, omitempty honoured, times through time.Time's own
// MarshalJSON, floats in encoding/json's format. The sketch and the
// exact sum append their own canonical forms (DESIGN.md §8).

import (
	"slices"
	"strconv"
	"time"

	"blackboxval/internal/jsonenc"
)

// AppendJSON appends the JSON of w to b: byte for byte what
// encoding/json.Marshal writes for w. A nil Series is null. NaN or ±Inf
// anywhere in the window, or a time outside RFC 3339's range, is an
// error, as it is there.
func (w Window) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, w.Index, 10)
	b = append(b, `,"start":`...)
	b, err := appendTime(b, w.Start)
	if err != nil {
		return nil, err
	}
	b = append(b, `,"end":`...)
	if b, err = appendTime(b, w.End); err != nil {
		return nil, err
	}
	b = append(b, `,"batches":`...)
	b = strconv.AppendInt(b, int64(w.Batches), 10)
	b = append(b, `,"series":`...)
	if w.Series == nil {
		b = append(b, "null"...)
		return append(b, '}'), nil
	}
	var nameBuf [32]string
	names := nameBuf[:0]
	for name := range w.Series {
		names = append(names, name)
	}
	slices.Sort(names)
	b = append(b, '{')
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonenc.AppendString(b, name)
		b = append(b, ':')
		if b, err = w.Series[name].AppendJSON(b); err != nil {
			return nil, err
		}
	}
	return append(b, '}', '}'), nil
}

// AppendJSON appends the JSON of a to b: byte for byte what
// encoding/json.Marshal writes for a. Empty Quantiles and nil
// SumExact/Sketch are left out.
func (a Aggregate) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(a.Count), 10)
	var err error
	for _, f := range [...]struct {
		key string
		v   float64
	}{{`,"sum":`, a.Sum}, {`,"min":`, a.Min}, {`,"max":`, a.Max}, {`,"last":`, a.Last}} {
		b = append(b, f.key...)
		if b, err = jsonenc.AppendFloat(b, f.v); err != nil {
			return nil, err
		}
	}
	if len(a.Quantiles) > 0 {
		var keyBuf [8]string
		keys := keyBuf[:0]
		for k := range a.Quantiles {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, `,"quantiles":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonenc.AppendString(b, k)
			b = append(b, ':')
			if b, err = jsonenc.AppendFloat(b, a.Quantiles[k]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	if a.SumExact != nil {
		b = a.SumExact.AppendJSON(append(b, `,"sum_exact":`...))
	}
	if a.Sketch != nil {
		if b, err = a.Sketch.AppendJSON(append(b, `,"sketch":`...)); err != nil {
			return nil, err
		}
	}
	return append(b, '}'), nil
}

// appendTime appends t's JSON, a quoted RFC 3339 timestamp from
// time.Time's own MarshalJSON.
func appendTime(b []byte, t time.Time) ([]byte, error) {
	js, err := t.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return append(b, js...), nil
}
