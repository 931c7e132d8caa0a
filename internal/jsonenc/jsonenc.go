// Package jsonenc holds the append-form JSON primitives shared by the
// hand-written encoders (the /predict_proba codec, the sketch and
// exact-sum wire forms, the timeline window records). Each appends
// exactly the bytes encoding/json.Marshal writes for the same value, so
// an encoder built from them can be checked byte for byte against
// encoding/json.
package jsonenc

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat formats v as encoding/json does: ES6 number-to-string,
// 'f' for 1e-6 <= |v| < 1e21 and 'e' (exponent without zero padding)
// outside it. NaN and ±Inf are errors.
func AppendFloat(b []byte, v float64) ([]byte, error) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' { // e-07 -> e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendFloats appends a float array; a nil slice is null.
func AppendFloats(b []byte, vs []float64) ([]byte, error) {
	if vs == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = AppendFloat(b, v); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

// AppendString appends s as a JSON string. Printable ASCII other than
// the characters encoding/json escapes ("\<>&) is copied as is; any
// other string is encoded by encoding/json itself, so its escaping
// cannot differ.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
