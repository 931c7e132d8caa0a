package cloud

// wire_test.go pins the /predict_proba codec against encoding/json. The
// reference is the wire schema as tagged structs, decoded and encoded by
// encoding/json: both directions must agree with it on every input,
// byte for byte and bit for bit.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"

	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/frame"
	"blackboxval/internal/imgdata"
	"blackboxval/internal/linalg"
)

type legacyColumn struct {
	Name string     `json:"name"`
	Kind string     `json:"kind"`
	Num  []*float64 `json:"num,omitempty"`
	Str  []string   `json:"str,omitempty"`
}

type legacyRequest struct {
	Columns []legacyColumn `json:"columns,omitempty"`
	Images  [][]float64    `json:"images,omitempty"`
	Width   int            `json:"width,omitempty"`
	Height  int            `json:"height,omitempty"`
}

type legacyResponse struct {
	Probabilities [][]float64 `json:"probabilities"`
	NumClasses    int         `json:"num_classes"`
}

func legacyEncodeRequest(ds *data.Dataset) legacyRequest {
	var req legacyRequest
	if ds.Tabular() {
		for _, c := range ds.Frame.Columns() {
			wc := legacyColumn{Name: c.Name}
			switch c.Kind {
			case frame.Numeric:
				wc.Kind = "numeric"
				wc.Num = make([]*float64, len(c.Num))
				for i, v := range c.Num {
					if !math.IsNaN(v) {
						v := v
						wc.Num[i] = &v
					}
				}
			case frame.Categorical:
				wc.Kind = "categorical"
				wc.Str = c.Str
			case frame.Text:
				wc.Kind = "text"
				wc.Str = c.Str
			}
			req.Columns = append(req.Columns, wc)
		}
		return req
	}
	req.Images = ds.Images.Pixels
	req.Width = ds.Images.Width
	req.Height = ds.Images.Height
	return req
}

// legacyDecodeRequest is DecodeRequest through encoding/json.
func legacyDecodeRequest(body []byte, classes []string) (*data.Dataset, error) {
	var lr legacyRequest
	if err := json.Unmarshal(body, &lr); err != nil {
		return nil, err
	}
	req := predictRequest{Images: lr.Images, Width: lr.Width, Height: lr.Height}
	for _, lc := range lr.Columns {
		wc := wireColumn{Name: lc.Name, Kind: lc.Kind, Str: lc.Str}
		if lc.Num != nil {
			wc.Num = make([]float64, len(lc.Num))
			for i, p := range lc.Num {
				wc.Num[i] = math.NaN()
				if p != nil {
					wc.Num[i] = *p
				}
			}
		}
		req.Columns = append(req.Columns, wc)
	}
	ds, err := decodeRequest(req)
	if err != nil {
		return nil, err
	}
	ds.Classes = append([]string(nil), classes...)
	return ds, nil
}

// legacyParseResponse is ParseProbaResponse through encoding/json.
func legacyParseResponse(body []byte) (*linalg.Matrix, int, error) {
	var pr legacyResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		return nil, 0, err
	}
	if pr.NumClasses <= 0 {
		return nil, 0, fmt.Errorf("response reports %d classes", pr.NumClasses)
	}
	for i, row := range pr.Probabilities {
		if len(row) != pr.NumClasses {
			return nil, 0, fmt.Errorf("row %d has %d probabilities, want %d", i, len(row), pr.NumClasses)
		}
	}
	out := linalg.NewMatrix(len(pr.Probabilities), pr.NumClasses)
	for i, row := range pr.Probabilities {
		copy(out.Row(i), row)
	}
	return out, pr.NumClasses, nil
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

// diffDatasets describes the first difference between two decoded
// datasets, or returns "".
func diffDatasets(a, b *data.Dataset) string {
	if len(a.Labels) != len(b.Labels) || !slices.Equal(a.Classes, b.Classes) {
		return fmt.Sprintf("labels %d vs %d, classes %q vs %q", len(a.Labels), len(b.Labels), a.Classes, b.Classes)
	}
	if (a.Frame == nil) != (b.Frame == nil) || (a.Images == nil) != (b.Images == nil) {
		return "one dataset is tabular, the other is not"
	}
	if a.Images != nil {
		if a.Images.Width != b.Images.Width || a.Images.Height != b.Images.Height || a.Images.Len() != b.Images.Len() {
			return "image set shapes differ"
		}
		for i := range a.Images.Pixels {
			if !sameBits(a.Images.Pixels[i], b.Images.Pixels[i]) {
				return fmt.Sprintf("image %d differs", i)
			}
		}
		return ""
	}
	ac, bc := a.Frame.Columns(), b.Frame.Columns()
	if len(ac) != len(bc) {
		return fmt.Sprintf("%d vs %d columns", len(ac), len(bc))
	}
	for i := range ac {
		x, y := ac[i], bc[i]
		if x.Name != y.Name || x.Kind != y.Kind || !sameBits(x.Num, y.Num) || !slices.Equal(x.Str, y.Str) {
			return fmt.Sprintf("column %d: %q/%v %v %q vs %q/%v %v %q", i, x.Name, x.Kind, x.Num, x.Str, y.Name, y.Kind, y.Num, y.Str)
		}
	}
	return ""
}

// hostileRequests are well-formed bodies that decodeRequest must
// reject: frame.DataFrame panics on the first two, and the third's pixel
// count overflows int.
var hostileRequests = map[string]string{
	"duplicate column": `{"columns":[{"name":"a","kind":"numeric","num":[1]},{"name":"a","kind":"numeric","num":[2]}]}`,
	"unequal columns":  `{"columns":[{"name":"a","kind":"numeric","num":[1]},{"name":"b","kind":"categorical","str":["x","y"]}]}`,
	"image overflow":   `{"images":[[]],"width":4294967296,"height":4294967296}`,
}

// hugeClasses claims 2^40 classes in 57 bytes: allocating rows x
// num_classes before checking a row would abort the process.
const hugeClasses = `{"probabilities":[[0.5,0.5]],"num_classes":1099511627776}`

func TestDecodeRequestHostileBodies(t *testing.T) {
	for name, body := range hostileRequests {
		if _, err := DecodeRequest([]byte(body), []string{"a", "b"}); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestParseProbaResponseHugeNumClasses(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ParseProbaResponse([]byte(hugeClasses))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "row 0 has 2 probabilities") {
		t.Fatalf("want the row-width error, got %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("parsing a 57-byte body allocated %d bytes", grew)
	}
}

func TestServerRejectsHostileBodies(t *testing.T) {
	srv := httptest.NewServer(NewServer(stubModel{proba: linalg.NewMatrix(1, 2)}).Handler())
	defer srv.Close()
	for name, body := range hostileRequests {
		resp, err := http.Post(srv.URL+"/predict_proba", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// stubModel answers every batch with a fixed matrix.
type stubModel struct{ proba *linalg.Matrix }

func (m stubModel) PredictProba(*data.Dataset) *linalg.Matrix { return m.proba }
func (m stubModel) NumClasses() int                           { return m.proba.Cols }

// specialFloats are the values whose formatting or bits are easiest to
// get wrong.
var specialFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, -1e21, 1e20, 999999999999999900000,
	5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, math.MaxFloat64, 0.1, 1.0 / 3, 123456789.125, 1e-300,
}

var specialStrings = []string{
	"", "plain", "a<b>&c", `quote"back\slash`, "tab\tnl\ncr\r\b\f", "\x00\x01\x1f\x7f", "café", "  ",
	"bad\xffutf8", "\xed\xa0\x80", "emoji \U0001F600", "/slash",
}

// randomFrame builds a tabular dataset mixing special and random cells.
func randomFrame(rng *rand.Rand, rows int) *data.Dataset {
	f := frame.New()
	for c := 0; c < 3; c++ {
		num := make([]float64, rows)
		for i := range num {
			switch rng.Intn(4) {
			case 0:
				num[i] = math.NaN()
			case 1:
				num[i] = specialFloats[rng.Intn(len(specialFloats))]
			default:
				num[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
			}
		}
		f.AddNumeric(fmt.Sprintf("num%d", c), num)
	}
	for c, kind := range []frame.Kind{frame.Categorical, frame.Text} {
		str := make([]string, rows)
		for i := range str {
			str[i] = specialStrings[rng.Intn(len(specialStrings))]
		}
		name := specialStrings[(c*5+1)%len(specialStrings)]
		if kind == frame.Categorical {
			f.AddCategorical(name, str)
		} else {
			f.AddText(name, str)
		}
	}
	return &data.Dataset{Frame: f, Labels: make([]int, rows), Classes: []string{"a", "b"}}
}

func randomImages(rng *rand.Rand, n int) *data.Dataset {
	set := imgdata.NewSet(3, 2)
	for i := 0; i < n; i++ {
		px := make([]float64, 6)
		for j := range px {
			px[j] = specialFloats[rng.Intn(len(specialFloats))]
		}
		set.Append(px)
	}
	return &data.Dataset{Images: set, Labels: make([]int, n), Classes: []string{"a", "b"}}
}

func TestEncodeRequestMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := []*data.Dataset{
		datagen.Income(300, 1),
		{Frame: frame.New()},
		randomImages(rng, 0),
		randomImages(rng, 7),
	}
	for i := 0; i < 20; i++ {
		sets = append(sets, randomFrame(rng, 1+rng.Intn(40)))
	}
	for i, ds := range sets {
		got, err := EncodeRequest(ds)
		if err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		want, err := json.Marshal(legacyEncodeRequest(ds))
		if err != nil {
			t.Fatalf("set %d: reference: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("set %d: bodies differ\n got %s\nwant %s", i, got, want)
		}
		back, err := DecodeRequest(got, ds.Classes)
		if len(ds.Labels) == 0 {
			continue // nothing to round-trip: an empty body decodes to an error
		}
		if err != nil {
			t.Fatalf("set %d: decoding own body: %v", i, err)
		}
		if d := diffDatasets(wireForm(ds), back); d != "" {
			t.Fatalf("set %d: round trip: %s", i, d)
		}
	}
}

// wireForm is ds as it survives JSON: every byte of invalid UTF-8 in a
// string becomes U+FFFD, as string([]rune(s)) does. Floats survive bit
// for bit.
func wireForm(ds *data.Dataset) *data.Dataset {
	if !ds.Tabular() {
		return ds
	}
	f := frame.New()
	for _, c := range ds.Frame.Columns() {
		c = c.Clone()
		for i, s := range c.Str {
			c.Str[i] = string([]rune(s))
		}
		switch c.Kind {
		case frame.Numeric:
			f.AddNumeric(c.Name, c.Num)
		case frame.Categorical:
			f.AddCategorical(c.Name, c.Str)
		case frame.Text:
			f.AddText(c.Name, c.Str)
		}
	}
	return &data.Dataset{Frame: f, Labels: ds.Labels, Classes: ds.Classes}
}

func TestEncodeRequestRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1)} {
		ds := datagen.Income(5, 1)
		ds.Frame.Columns()[0].Num[2] = v
		_, err := EncodeRequest(ds)
		_, want := json.Marshal(legacyEncodeRequest(ds))
		if err == nil || want == nil || err.Error() != "cloud: encoding request: "+want.Error() {
			t.Fatalf("%v: got %v, want cloud: encoding request: %v", v, err, want)
		}
	}
	img := randomImages(rand.New(rand.NewSource(2)), 2)
	img.Images.Pixels[1][3] = math.NaN()
	if _, err := EncodeRequest(img); err == nil {
		t.Fatal("a NaN pixel must not encode")
	}
}

func TestServerBodyMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	body, err := EncodeRequest(datagen.Income(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range [][2]int{{0, 2}, {1, 1}, {4, 2}, {17, 3}, {3, 0}} {
		proba := linalg.NewMatrix(shape[0], shape[1])
		for i := range proba.Data {
			proba.Data[i] = specialFloats[rng.Intn(len(specialFloats))]
		}
		srv := httptest.NewServer(NewServer(stubModel{proba: proba}).Handler())
		resp, err := http.Post(srv.URL+"/predict_proba", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()

		ref := legacyResponse{NumClasses: proba.Cols, Probabilities: make([][]float64, proba.Rows)}
		for i := 0; i < proba.Rows; i++ {
			ref.Probabilities[i] = append([]float64(nil), proba.Row(i)...)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(ref); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("%v: status %d, content type %q", shape, resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%v: bodies differ\n got %s\nwant %s", shape, got, want.Bytes())
		}
		if proba.Cols == 0 {
			continue
		}
		back, n, err := ParseProbaResponse(got)
		if err != nil || n != proba.Cols || back.Rows != proba.Rows || !sameBits(back.Data, proba.Data) {
			t.Fatalf("%v: round trip: %v, %d classes, %v vs %v", shape, err, n, back, proba.Data)
		}
	}
}

func TestServerNaNProbabilityIs500(t *testing.T) {
	proba := linalg.NewMatrix(2, 2)
	proba.Data[3] = math.NaN()
	srv := httptest.NewServer(NewServer(stubModel{proba: proba}).Handler())
	defer srv.Close()
	body, err := EncodeRequest(datagen.Income(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/predict_proba", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || string(msg) != "json: unsupported value: NaN\n" {
		t.Fatalf("status %d body %q", resp.StatusCode, msg)
	}
}

// oneByteReader hands out its bytes one Read at a time.
type oneByteReader struct{ b []byte }

func (r *oneByteReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	p[0] = r.b[0]
	r.b = r.b[1:]
	return 1, nil
}

func TestReadBodyExactSize(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 70000} {
		src := bytes.Repeat([]byte{'x'}, n)
		for _, r := range []io.Reader{bytes.NewReader(src), &oneByteReader{src}} {
			got, err := ReadBody(r)
			if err != nil || !bytes.Equal(got, src) || cap(got) != n || got == nil {
				t.Fatalf("n=%d: len %d cap %d err %v", n, len(got), cap(got), err)
			}
		}
	}
	// Results never share the pooled buffer.
	a, _ := ReadBody(strings.NewReader("first"))
	b, _ := ReadBody(strings.NewReader("second"))
	if string(a) != "first" || string(b) != "second" {
		t.Fatalf("results alias: %q %q", a, b)
	}
}

// A client that declares a 256 MiB body and sends one byte must cost
// about one byte, not the declared length.
func TestReadBodyIgnoresDeclaredLength(t *testing.T) {
	srv := httptest.NewServer(NewServer(stubModel{proba: linalg.NewMatrix(1, 2)}).Handler())
	defer srv.Close()
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/predict_proba", io.MultiReader(strings.NewReader("{"), errReader{}))
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = 256 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("a one-byte body declared as 256 MiB allocated %d bytes", grew)
	}
}

// errReader fails the upload after its first bytes, so the server sees
// a body far shorter than declared.
type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// requestSeeds and responseSeeds seed the differential fuzz targets.
func requestSeeds(t testing.TB) []string {
	body, err := EncodeRequest(datagen.Income(500, 1))
	if err != nil {
		t.Fatal(err)
	}
	img, err := EncodeRequest(randomImages(rand.New(rand.NewSource(4)), 3))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []string{
		string(body), string(img),
		`{"columns":[{"name":"ab","kind":"categorical","str":["é\n","x\"y","\/"]}]}`,
		`{"columns":[{"name":"\ud800","kind":"text","str":["\udc00\ud800x","😀"]}]}`,
		`{"COLUMNS":[{"NAME":"a","Kind":"numeric","NuM":[1,-0,2.5e-3]}],"ſtr":1}`,
		`{"columns":[{"name":"a","kind":"numeric","num":[null,1,null]},{"name":"b","kind":"categorical","str":[null,"x",null]}],"width":null}`,
		`{"columns":[{"name":"a","kind":"categorical","str":["x","y","z"]}],"columns":[{"str":[null]}],"columns":[{"str":["q",null]}]}`,
		`{"columns":[{"name":"a","kind":"numeric","num":[1]},{"name":"b"}],"columns":[null,{"kind":"numeric","num":[2]}]}`,
		`{"images":[[1,2],[3,4]],"images":[[null,5]],"width":1,"height":2}`,
		`{"images":[[0.5]],"width":1,"height":1,"extra":{"deep":[[[{}]]],"s":"\u0000","t":true,"f":false,"n":null}}`,
		`{"columns":[{"name":"a","kind":"numeric","num":[1e400]}]}`,
		`{"images":[[1]],"width":1.0,"height":1}`,
		`{"images":[[1]],"width":1e0,"height":1}`,
		`{"columns":[]} x`,
		`null`, `{}`, `[]`, ``, `{"columns":`, `{"columns":[{"name":"a","kind":"numeric","num":[01]}]}`,
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	}
	for _, body := range hostileRequests {
		seeds = append(seeds, body)
	}
	return seeds
}

var responseSeeds = []string{
	`{"probabilities":[[0.25,0.75],[0.5,0.5]],"num_classes":2}` + "\n",
	hugeClasses,
	`{"probabilities":[[0.1,0.2]],"probabilities":[[null,0.3]],"num_classes":2}`,
	`{"probabilities":[[0.1,0.2,0.3]],"probabilities":[[9],[1,2]],"probabilities":[[null,null,null],[null,null]],"num_classes":2}`,
	`{"PROBABILITIES":[[-0,5e-324]],"Num_Classes":2,"num_classes":null}`,
	`{"probabilities":[null,[1,2]],"num_classes":2}`,
	`{"probabilities":[],"num_classes":1099511627776}`,
	`{"probabilities":[[1e400,0]],"num_classes":2}`,
	`{"probabilities":[[1,0]],"num_classes":2.0}`,
	`{"probabilities":[[1,0]],"num_classes":2}garbage`,
	`{"probabilities":[[1,0]],"num_classes":-2}`,
	`null`, `{"num_classes":2}`, `{"probabilities":"x","num_classes":2}`,
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range requestSeeds(f) {
		f.Add([]byte(s))
	}
	classes := []string{"<=50K", ">50K"}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := legacyDecodeRequest(body, classes)
		got, gotErr := DecodeRequest(body, classes)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("encoding/json error %v, codec error %v", wantErr, gotErr)
		}
		if wantErr == nil {
			if d := diffDatasets(want, got); d != "" {
				t.Fatalf("decoded datasets differ: %s", d)
			}
		}
	})
}

func FuzzParseProbaResponse(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantN, wantErr := legacyParseResponse(body)
		got, gotN, gotErr := ParseProbaResponse(body)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("encoding/json error %v, codec error %v", wantErr, gotErr)
		}
		if wantErr == nil && (wantN != gotN || want.Rows != got.Rows || want.Cols != got.Cols || !sameBits(want.Data, got.Data)) {
			t.Fatalf("decoded matrices differ: %d %v vs %d %v", wantN, want, gotN, got)
		}
	})
}

func benchBodies(b testing.TB) (req, resp []byte) {
	ds := datagen.Income(500, 1)
	req, err := EncodeRequest(ds)
	if err != nil {
		b.Fatal(err)
	}
	proba := linalg.NewMatrix(500, 2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := rng.Float64()
		proba.Data[2*i], proba.Data[2*i+1] = p, 1-p
	}
	resp, err = appendResponse(nil, proba)
	if err != nil {
		b.Fatal(err)
	}
	return req, resp
}

func BenchmarkDecodeRequest(b *testing.B) {
	body, _ := benchBodies(b)
	classes := []string{"<=50K", ">50K"}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(body, classes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseProbaResponse(b *testing.B) {
	_, body := benchBodies(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseProbaResponse(body); err != nil {
			b.Fatal(err)
		}
	}
}

// The body and decoder pools are shared by every handler goroutine and
// the gateway's shadow worker; no result may alias pooled memory.
func TestCodecConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type job struct {
		req, resp []byte
		ds        *data.Dataset
		proba     *linalg.Matrix
	}
	jobs := make([]job, 4)
	for i := range jobs {
		ds := randomFrame(rng, 5+20*i)
		proba := linalg.NewMatrix(ds.Len(), 2)
		for j := range proba.Data {
			proba.Data[j] = rng.Float64()
		}
		req, err := EncodeRequest(ds)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := appendResponse(nil, proba)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{req, resp, wireForm(ds), proba}
	}
	done := make(chan error, len(jobs))
	for _, j := range jobs {
		go func() {
			for n := 0; n < 50; n++ {
				req, err := ReadBody(bytes.NewReader(j.req))
				if err != nil {
					done <- err
					return
				}
				ds, err := DecodeRequest(req, j.ds.Classes)
				if err != nil {
					done <- err
					return
				}
				resp, err := ReadBody(&oneByteReader{j.resp})
				if err != nil {
					done <- err
					return
				}
				proba, _, err := ParseProbaResponse(resp)
				if err != nil {
					done <- err
					return
				}
				if d := diffDatasets(j.ds, ds); d != "" {
					done <- errors.New(d)
					return
				}
				if !bytes.Equal(req, j.req) || !sameBits(proba.Data, j.proba.Data) {
					done <- errors.New("a result changed under concurrent use")
					return
				}
			}
			done <- nil
		}()
	}
	for range jobs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
