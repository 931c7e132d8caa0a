package cloud

// codec.go: the /predict_proba wire codec. Both bodies are decoded in
// one pass over the bytes, without reflection, straight into the
// slices the dataset and the probability matrix keep, and encoded by
// appending to a byte buffer. The decoder accepts exactly what
// encoding/json accepts when it unmarshals into the schema's tagged
// structs (columns of name/kind/num/str with []*float64 cells,
// images/width/height; probabilities/num_classes), and produces the
// same values:
//
//   - keys match a field exactly or case-insensitively (bytes.EqualFold,
//     the rule encoding/json applies); unknown keys are skipped whatever
//     their value;
//   - null leaves a field as it was: zero, unless an earlier duplicate
//     key set it. A null numeric cell is NaN (the wire form of a missing
//     value), a null string or probability cell keeps the element the
//     slice already held at that index, and that is zero for a fresh
//     slice. Decoding into a slice a duplicate key already filled reuses
//     its elements the way encoding/json reuses a slice's backing array;
//   - syntax errors, type mismatches, out-of-range numbers (integer
//     fields also reject 2.0 and 1e2), nesting deeper than 10,000 levels
//     and trailing bytes after the top-level value are all errors.
//
// String tokens without escapes and with valid UTF-8 are used as they
// are; any other string token is unescaped by encoding/json on that
// token alone, so its text cannot differ. Numbers are parsed by
// strconv.ParseFloat / ParseInt on the token, which is what
// encoding/json does.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"blackboxval/internal/data"
	"blackboxval/internal/frame"
	"blackboxval/internal/jsonenc"
	"blackboxval/internal/linalg"
)

// wireColumn is one dataframe column on the wire. A NaN in Num travels
// as null (JSON has no NaN).
type wireColumn struct {
	Name string
	Kind string // "numeric", "categorical", "text"
	Num  []float64
	Str  []string
}

// predictRequest is the body of POST /predict_proba:
//
//	{"columns":[{"name":..,"kind":..,"num":[..]|"str":[..]},..]}
//	{"images":[[..],..],"width":w,"height":h}
//
// Every field is omitted when empty.
type predictRequest struct {
	Columns []wireColumn
	// Images are row-major pixel vectors for image models.
	Images        [][]float64
	Width, Height int
}

// maxNesting is encoding/json's nesting limit.
const maxNesting = 10000

// errUnexpectedEnd matches encoding/json's message for a truncated body.
var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// span is one row of Images or Probabilities inside decoder.arena:
// values arena[off:off+n], and arena[off:off+cap] is the backing the
// row keeps for a later duplicate key to decode into.
type span struct{ off, n, cap int }

// decoder holds one body's parse position and the scratch space its
// arrays are decoded into. Decoders are pooled, or owned by a
// RequestDecoder; no decoded value stays in the scratch space after the
// decode call that used it.
type decoder struct {
	buf   []byte
	pos   int
	depth int

	floats []float64    // one array's values above its reused backing
	strs   []string     // likewise for string arrays
	cols   []wireColumn // likewise for the columns array
	arena  []float64    // row values of Images / Probabilities
	rows   []span       // rows decoded so far (memory for duplicate keys)
	nrows  int          // rows in the current value

	intern      map[string]string
	internBytes int // bytes of the interned strings
}

// maxInterned bounds the decoder's table of shared strings, so a body
// of unique strings cannot grow it without limit; maxInternedBytes
// bounds the bytes a RequestDecoder keeps interned between bodies.
const (
	maxInterned      = 1024
	maxInternedBytes = 64 << 10
)

// maxPooledScratch is the largest scratch slice a decoder keeps between
// bodies, and the most elements of column storage a RequestDecoder
// keeps; a bigger body's storage is left to the GC.
const maxPooledScratch = 1 << 16

var decoders = sync.Pool{New: func() any { return new(decoder) }}

func getDecoder(body []byte) *decoder {
	d := decoders.Get().(*decoder)
	d.start(body)
	return d
}

func putDecoder(d *decoder) {
	d.end()
	d.clearInterned()
	if !d.oversized() {
		decoders.Put(d)
	}
}

// start readies the decoder for body.
func (d *decoder) start(body []byte) {
	d.buf, d.pos, d.depth = body, 0, 0
	d.arena, d.rows, d.nrows = d.arena[:0], d.rows[:0], 0
	if d.intern == nil {
		d.intern = make(map[string]string)
	}
}

// end drops the decoder's references into the body it decoded and the
// values it decoded, so its scratch space pins neither.
func (d *decoder) end() {
	d.buf = nil
	clear(d.strs[:cap(d.strs)])
	clear(d.cols[:cap(d.cols)])
}

func (d *decoder) clearInterned() {
	clear(d.intern)
	d.internBytes = 0
}

// oversized reports whether a scratch slice grew past maxPooledScratch.
func (d *decoder) oversized() bool {
	return cap(d.floats) > maxPooledScratch || cap(d.strs) > maxPooledScratch ||
		cap(d.cols) > maxPooledScratch || cap(d.arena) > maxPooledScratch || cap(d.rows) > maxPooledScratch
}

// readRequest decodes a /predict_proba request body into storage the
// caller owns.
func readRequest(body []byte) (predictRequest, error) {
	d := getDecoder(body)
	defer putDecoder(d)
	var req predictRequest
	if err := d.request(&req); err != nil {
		return predictRequest{}, err
	}
	if d.nrows > 0 {
		req.Images = d.imageRows()
	}
	return req, nil
}

// request decodes the body into req, whose slices are the memory the
// decode reuses (see columns); the image rows stay in d.rows.
func (d *decoder) request(req *predictRequest) error {
	return d.top(func(key []byte) error {
		switch {
		case keyIs(key, "columns"):
			if d.null() {
				req.Columns = nil
				return nil
			}
			if err := d.open('['); err != nil {
				return err
			}
			cols, err := d.columns(req.Columns)
			req.Columns = cols
			return err
		case keyIs(key, "images"):
			return d.rowsValue()
		case keyIs(key, "width"):
			return d.intField(&req.Width)
		case keyIs(key, "height"):
			return d.intField(&req.Height)
		}
		return d.skip()
	})
}

// ParseProbaResponse decodes the JSON body of a /predict_proba response
// into a new probability matrix. It is exported so serving-path
// components (e.g. the shadow-validation gateway) can tap logged
// response bodies without re-implementing the wire schema. Every row's
// width is checked against num_classes before the matrix is allocated,
// so the allocation is bounded by the values the body actually holds.
func ParseProbaResponse(body []byte) (proba *linalg.Matrix, numClasses int, err error) {
	proba = new(linalg.Matrix)
	if numClasses, err = ParseProbaResponseInto(proba, body); err != nil {
		return nil, 0, err
	}
	return proba, numClasses, nil
}

// ParseProbaResponseInto is ParseProbaResponse into dst: the matrix
// takes the values in dst's storage when it holds them, else in new
// storage of their exact size. dst is left as it was on error.
func ParseProbaResponseInto(dst *linalg.Matrix, body []byte) (numClasses int, err error) {
	d := getDecoder(body)
	defer putDecoder(d)
	err = d.top(func(key []byte) error {
		switch {
		case keyIs(key, "probabilities"):
			return d.rowsValue()
		case keyIs(key, "num_classes"):
			return d.intField(&numClasses)
		}
		return d.skip()
	})
	if err != nil {
		return 0, fmt.Errorf("cloud: decoding response: %w", err)
	}
	if numClasses <= 0 {
		return 0, fmt.Errorf("cloud: response reports %d classes", numClasses)
	}
	rows := d.rows[:d.nrows]
	for i, r := range rows {
		if r.n != numClasses {
			return 0, fmt.Errorf("cloud: row %d has %d probabilities, want %d", i, r.n, numClasses)
		}
	}
	n := len(rows) * numClasses
	if cap(dst.Data) < n {
		dst.Data = make([]float64, n)
	}
	dst.Rows, dst.Cols, dst.Data = len(rows), numClasses, dst.Data[:n]
	for i, r := range rows {
		copy(dst.Row(i), d.arena[r.off:r.off+r.n])
	}
	return numClasses, nil
}

// top decodes the body's single top-level value as an object (null
// leaves everything zero) and rejects anything after it.
func (d *decoder) top(field func(key []byte) error) error {
	if !d.null() {
		if err := d.open('{'); err != nil {
			return err
		}
		if err := d.object(field); err != nil {
			return err
		}
	}
	d.ws()
	if d.pos < len(d.buf) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

// columns decodes the elements of the columns array (its '[' consumed)
// into cols, reusing the elements an earlier duplicate key left there.
func (d *decoder) columns(cols []wireColumn) ([]wireColumn, error) {
	mem := cols[:cap(cols)]
	extra := d.cols[:0]
	n := 0
	err := d.elements(func() error {
		var c *wireColumn
		if n < len(mem) {
			c = &mem[n]
		} else {
			extra = append(extra, wireColumn{})
			c = &extra[len(extra)-1]
		}
		n++
		if d.null() { // null leaves a struct element as it is
			return nil
		}
		if err := d.open('{'); err != nil {
			return err
		}
		return d.object(func(key []byte) error {
			switch {
			case keyIs(key, "name"):
				return d.stringField(&c.Name)
			case keyIs(key, "kind"):
				return d.stringField(&c.Kind)
			case keyIs(key, "num"):
				if d.null() {
					c.Num = nil
					return nil
				}
				if err := d.open('['); err != nil {
					return err
				}
				num, err := d.floatArray(c.Num)
				c.Num = num
				return err
			case keyIs(key, "str"):
				if d.null() {
					c.Str = nil
					return nil
				}
				if err := d.open('['); err != nil {
					return err
				}
				str, err := d.stringArray(c.Str)
				c.Str = str
				return err
			}
			return d.skip()
		})
	})
	d.cols = extra
	return fit(mem, extra, n), err
}

// floatArray decodes a numeric column's cells (the array's '['
// consumed); null is NaN.
func (d *decoder) floatArray(s []float64) ([]float64, error) {
	mem := s[:cap(s)]
	extra := d.floats[:0]
	n := 0
	err := d.elements(func() error {
		v := math.NaN()
		if !d.null() {
			tok, err := d.number()
			if err != nil {
				return err
			}
			if v, err = parseFloat(tok); err != nil {
				return err
			}
		}
		if n < len(mem) {
			mem[n] = v
		} else {
			extra = append(extra, v)
		}
		n++
		return nil
	})
	d.floats = extra
	return fit(mem, extra, n), err
}

// stringArray decodes a string column's cells (the array's '['
// consumed); null keeps the cell the slice already held.
func (d *decoder) stringArray(s []string) ([]string, error) {
	mem := s[:cap(s)]
	extra := d.strs[:0]
	n := 0
	err := d.elements(func() error {
		var v string
		if n < len(mem) {
			v = mem[n]
		}
		if !d.null() {
			var err error
			if v, err = d.string(); err != nil {
				return err
			}
		}
		if n < len(mem) {
			mem[n] = v
		} else {
			extra = append(extra, v)
		}
		n++
		return nil
	})
	d.strs = extra
	return fit(mem, extra, n), err
}

// fit returns the n decoded elements: mem's backing when they fit in it
// (what a reused slice keeps), else one exact-size copy of mem and the
// elements decoded past its end.
func fit[E any](mem, extra []E, n int) []E {
	if n == 0 { // encoding/json replaces the slice with a new empty one
		return make([]E, 0)
	}
	if n <= len(mem) {
		return mem[:n]
	}
	out := make([]E, n)
	copy(out, mem)
	copy(out[len(mem):], extra)
	return out
}

// rowsValue decodes an array of float arrays (Images, Probabilities)
// into d.rows, whose earlier rows a duplicate key decodes into.
func (d *decoder) rowsValue() error {
	if d.null() {
		d.rows, d.nrows = d.rows[:0], 0
		return nil
	}
	if err := d.open('['); err != nil {
		return err
	}
	n := 0
	err := d.elements(func() error {
		if n == len(d.rows) {
			d.rows = append(d.rows, span{})
		}
		i := n
		n++
		if d.null() {
			d.rows[i] = span{}
			return nil
		}
		if err := d.open('['); err != nil {
			return err
		}
		r, err := d.row(d.rows[i])
		d.rows[i] = r
		return err
	})
	if n == 0 {
		d.rows = d.rows[:0]
	}
	d.nrows = n
	return err
}

// row decodes one float array (its '[' consumed) into the arena,
// overwriting r's backing in place and moving the row to the arena's
// end once it outgrows it; null keeps the value the backing held.
func (d *decoder) row(r span) (span, error) {
	n := 0
	err := d.elements(func() error {
		j := n
		n++
		if d.null() {
			if j < r.cap {
				return nil
			}
			d.place(&r, j, 0)
			return nil
		}
		tok, err := d.number()
		if err != nil {
			return err
		}
		v, err := parseFloat(tok)
		if err != nil {
			return err
		}
		d.place(&r, j, v)
		return nil
	})
	if n == 0 {
		return span{}, err
	}
	r.n = n
	return r, err
}

// place stores v as element j of row r.
func (d *decoder) place(r *span, j int, v float64) {
	if j < r.cap {
		d.arena[r.off+j] = v
		return
	}
	if r.off+r.cap != len(d.arena) { // not at the end: move it there
		off := len(d.arena)
		d.arena = append(d.arena, d.arena[r.off:r.off+r.cap]...)
		r.off = off
	}
	d.arena = append(d.arena, v)
	r.cap++
}

// imageRows copies the decoded rows out of the arena: one allocation
// for every pixel, one for the row headers.
func (d *decoder) imageRows() [][]float64 {
	rows := d.rows[:d.nrows]
	total := 0
	for _, r := range rows {
		total += r.n
	}
	px := make([]float64, total)
	out := make([][]float64, len(rows))
	off := 0
	for i, r := range rows {
		out[i] = px[off : off+r.n : off+r.n]
		copy(out[i], d.arena[r.off:r.off+r.n])
		off += r.n
	}
	return out
}

// intField decodes an int field; null leaves it as it is.
func (d *decoder) intField(dst *int) error {
	if d.null() {
		return nil
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot use number %s as an integer", tok)
	}
	*dst = int(v)
	return nil
}

// stringField decodes a string field; null leaves it as it is.
func (d *decoder) stringField(dst *string) error {
	if d.null() {
		return nil
	}
	s, err := d.string()
	if err != nil {
		return err
	}
	*dst = s
	return nil
}

func parseFloat(tok []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("cannot use number %s as a float64", tok)
	}
	return v, nil
}

// keyIs reports whether a decoded object key selects the named field.
func keyIs(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// --- tokens -----------------------------------------------------------

func (d *decoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) syntaxError(context string) error {
	if d.pos >= len(d.buf) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.buf[d.pos], context, d.pos)
}

// typeError reports a value that is not the JSON type the field needs;
// the value starts at d.pos.
func (d *decoder) typeError(want string) error {
	if d.pos >= len(d.buf) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("cannot decode the value at offset %d into %s", d.pos, want)
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool {
	d.ws()
	if bytes.HasPrefix(d.buf[d.pos:], []byte("null")) {
		d.pos += 4
		return true
	}
	return false
}

// open consumes the '{' or '[' that must come next and enters one
// nesting level.
func (d *decoder) open(c byte) error {
	d.ws()
	if d.pos >= len(d.buf) || d.buf[d.pos] != c {
		if c == '{' {
			return d.typeError("an object")
		}
		return d.typeError("an array")
	}
	d.pos++
	d.depth++
	if d.depth > maxNesting {
		return fmt.Errorf("exceeded max depth (offset %d)", d.pos-1)
	}
	return nil
}

// elements calls elem once per element of the array whose '[' was just
// consumed, through its closing ']'. elem must consume the element.
func (d *decoder) elements(elem func() error) error {
	d.ws()
	if d.pos < len(d.buf) && d.buf[d.pos] == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.ws()
		if d.pos >= len(d.buf) {
			return errUnexpectedEnd
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxError("after array element")
		}
	}
}

// object calls field once per member of the object whose '{' was just
// consumed, with the member's key unescaped and the decoder at its
// value, through the closing '}'. field must consume the value.
func (d *decoder) object(field func(key []byte) error) error {
	d.ws()
	if d.pos < len(d.buf) && d.buf[d.pos] == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		d.ws()
		if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.stringToken()
		if err != nil {
			return err
		}
		d.ws()
		if d.pos >= len(d.buf) || d.buf[d.pos] != ':' {
			return d.syntaxError("after object key")
		}
		d.pos++
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		if d.pos >= len(d.buf) {
			return errUnexpectedEnd
		}
		switch d.buf[d.pos] {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// skip consumes one value of any type, checking its syntax.
func (d *decoder) skip() error {
	d.ws()
	if d.pos >= len(d.buf) {
		return errUnexpectedEnd
	}
	switch c := d.buf[d.pos]; {
	case c == '{':
		if err := d.open('{'); err != nil {
			return err
		}
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		if err := d.open('['); err != nil {
			return err
		}
		return d.elements(d.skip)
	case c == '"':
		_, _, err := d.stringSpan()
		return err
	case c == 't' || c == 'f' || c == 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if bytes.HasPrefix(d.buf[d.pos:], []byte(lit)) {
				d.pos += len(lit)
				return nil
			}
		}
		return d.syntaxError("in literal")
	}
	_, err := d.number()
	return err
}

// number consumes a JSON number token and returns its bytes.
func (d *decoder) number() ([]byte, error) {
	d.ws()
	b, start := d.buf, d.pos
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	default:
		d.pos = i
		if i == start {
			return nil, d.typeError("a number")
		}
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || !isDigit(b[i]) {
			d.pos = i
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			d.pos = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
		for i++; i < len(b) && isDigit(b[i]); i++ {
		}
	}
	d.pos = i
	return b[start:i], nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// string consumes a string value. Values repeated within a body share
// one string through the decoder's bounded intern table.
func (d *decoder) string() (string, error) {
	d.ws()
	if d.pos >= len(d.buf) || d.buf[d.pos] != '"' {
		return "", d.typeError("a string")
	}
	raw, plain, err := d.stringSpan()
	if err != nil {
		return "", err
	}
	if !plain {
		return unquote(raw)
	}
	body := raw[1 : len(raw)-1]
	if s, ok := d.intern[string(body)]; ok {
		return s, nil
	}
	s := string(body)
	if len(d.intern) < maxInterned {
		d.intern[s] = s
		d.internBytes += len(s)
	}
	return s, nil
}

// stringToken consumes a string token and returns its unescaped bytes.
func (d *decoder) stringToken() ([]byte, error) {
	raw, plain, err := d.stringSpan()
	if err != nil {
		return nil, err
	}
	if plain {
		return raw[1 : len(raw)-1], nil
	}
	s, err := unquote(raw)
	return []byte(s), err
}

// stringSpan consumes the string token at d.pos (its opening quote) and
// returns it with its quotes. plain reports that it has no escapes and
// is valid UTF-8, so its bytes are its value.
func (d *decoder) stringSpan() (raw []byte, plain bool, err error) {
	b, start := d.buf, d.pos
	plain, ascii := true, true
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			raw = b[start:d.pos]
			if !ascii && plain {
				plain = utf8.Valid(raw)
			}
			return raw, plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(b) {
				d.pos = len(b)
				return nil, false, errUnexpectedEnd
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(b) {
						d.pos = len(b)
						return nil, false, errUnexpectedEnd
					}
					if !isHex(b[i+k]) {
						d.pos = i + k
						return nil, false, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
				i += 4
			default:
				d.pos = i
				return nil, false, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			d.pos = i
			return nil, false, d.syntaxError("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	d.pos = len(b)
	return nil, false, errUnexpectedEnd
}

func isHex(c byte) bool {
	return isDigit(c) || ('a' <= c && c <= 'f') || ('A' <= c && c <= 'F')
}

// unquote decodes a string token with escapes or invalid UTF-8 the way
// encoding/json does: by handing it that one token.
func unquote(raw []byte) (string, error) {
	var s string
	err := json.Unmarshal(raw, &s)
	return s, err
}

// --- encoding ---------------------------------------------------------

// appendRequest appends the /predict_proba request body for ds's
// features (never its labels), byte for byte what encoding/json writes
// for the wire struct with omitempty fields.
func appendRequest(b []byte, ds *data.Dataset) ([]byte, error) {
	var err error
	b = append(b, '{')
	if ds.Tabular() {
		cols := ds.Frame.Columns()
		if len(cols) > 0 {
			b = append(b, `"columns":[`...)
			for i, c := range cols {
				if i > 0 {
					b = append(b, ',')
				}
				if b, err = appendColumn(b, c); err != nil {
					return nil, err
				}
			}
			b = append(b, ']')
		}
		return append(b, '}'), nil
	}
	img := ds.Images
	sep := false
	if len(img.Pixels) > 0 {
		b = append(b, `"images":[`...)
		for i, px := range img.Pixels {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = jsonenc.AppendFloats(b, px); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
		sep = true
	}
	if img.Width != 0 {
		if sep {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `"width":`...), int64(img.Width), 10)
		sep = true
	}
	if img.Height != 0 {
		if sep {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `"height":`...), int64(img.Height), 10)
	}
	return append(b, '}'), nil
}

func appendColumn(b []byte, c *frame.Column) ([]byte, error) {
	b = jsonenc.AppendString(append(b, `{"name":`...), c.Name)
	switch c.Kind {
	case frame.Numeric:
		b = append(b, `,"kind":"numeric"`...)
		if len(c.Num) > 0 {
			b = append(b, `,"num":[`...)
			for i, v := range c.Num {
				if i > 0 {
					b = append(b, ',')
				}
				if math.IsNaN(v) {
					b = append(b, "null"...)
					continue
				}
				var err error
				if b, err = jsonenc.AppendFloat(b, v); err != nil {
					return nil, err
				}
			}
			b = append(b, ']')
		}
	case frame.Categorical, frame.Text:
		if c.Kind == frame.Categorical {
			b = append(b, `,"kind":"categorical"`...)
		} else {
			b = append(b, `,"kind":"text"`...)
		}
		if len(c.Str) > 0 {
			b = append(b, `,"str":[`...)
			for i, s := range c.Str {
				if i > 0 {
					b = append(b, ',')
				}
				b = jsonenc.AppendString(b, s)
			}
			b = append(b, ']')
		}
	default:
		b = append(b, `,"kind":""`...)
	}
	return append(b, '}'), nil
}

// appendResponse appends the /predict_proba response body for proba,
// byte for byte what json.Encoder writes for the wire struct
// {"probabilities":[[..],..],"num_classes":n}, trailing newline
// included.
func appendResponse(b []byte, proba *linalg.Matrix) ([]byte, error) {
	b = append(b, `{"probabilities":[`...)
	for i := 0; i < proba.Rows; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		if proba.Cols == 0 { // a copied empty row is a nil slice
			b = append(b, "null"...)
			continue
		}
		var err error
		if b, err = jsonenc.AppendFloats(b, proba.Row(i)); err != nil {
			return nil, err
		}
	}
	b = append(b, `],"num_classes":`...)
	b = strconv.AppendInt(b, int64(proba.Cols), 10)
	return append(b, '}', '\n'), nil
}

// --- bodies -----------------------------------------------------------

// bufs recycles the byte buffers bodies are encoded in.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

func getBuf() *[]byte { return bufs.Get().(*[]byte) }

// putBuf returns b, the buffer last taken from bp, to the pool, unless
// it outgrew the largest pooled body buffer.
func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxBodyBuf {
		*bp = b[:0]
		bufs.Put(bp)
	}
}
