package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"blackboxval/internal/data"
	"blackboxval/internal/datagen"
	"blackboxval/internal/frame"
)

// sameDecode fails unless a RequestDecoder's result for a body equals
// DecodeRequest's: both accept or both reject with the same message,
// and accepted datasets agree value for value, zeroed labels included.
func sameDecode(t *testing.T, body []byte, got *data.Dataset, gotErr error) {
	t.Helper()
	want, wantErr := DecodeRequest(body, testClasses)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("one-shot error %v, reusing decoder error %v", wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("one-shot error %q, reusing decoder error %q", wantErr, gotErr)
		}
		return
	}
	if d := diffDatasets(want, got); d != "" {
		t.Fatalf("decoded datasets differ: %s", d)
	}
	for i, y := range got.Labels {
		if y != 0 {
			t.Fatalf("label %d is %d, want 0", i, y)
		}
	}
}

var testClasses = []string{"<=50K", ">50K"}

// FuzzRequestDecoderReuse pins reuse to the one-shot decode: decoding a
// body after any other with one RequestDecoder gives DecodeRequest's
// answer for it.
func FuzzRequestDecoderReuse(f *testing.F) {
	seeds := requestSeeds(f)
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add([]byte(a), []byte(b))
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		r := NewRequestDecoder(testClasses)
		for _, body := range [][]byte{a, b, a} {
			ds, err := r.Decode(body)
			sameDecode(t, body, ds, err)
		}
	})
}

// randomRequest writes a body of one to three columns drawn from a
// small pool of names and kinds, so layouts repeat, change and collide
// (duplicate names, unknown kinds), now and then with a ragged column,
// and with missing cells of both kinds.
func randomRequest(rng *rand.Rand) []byte {
	var b strings.Builder
	b.WriteString(`{"columns":[`)
	rows := rng.Intn(40)
	for c := 1 + rng.Intn(3); c > 0; c-- {
		n := rows
		if rng.Intn(10) == 0 {
			n = rng.Intn(40)
		}
		kind := []string{"numeric", "numeric", "categorical", "text", "bogus"}[rng.Intn(5)]
		fmt.Fprintf(&b, `{"name":%q,"kind":%q,`, []string{"a", "b", "c"}[rng.Intn(3)], kind)
		if kind == "numeric" {
			b.WriteString(`"num":[`)
		} else {
			b.WriteString(`"str":[`)
		}
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			switch {
			case rng.Intn(6) == 0:
				b.WriteString("null")
			case kind == "numeric":
				fmt.Fprintf(&b, "%d", rng.Intn(1000))
			default:
				fmt.Fprintf(&b, `"v%d"`, rng.Intn(5))
			}
		}
		b.WriteString("]},")
	}
	return []byte(strings.TrimSuffix(b.String(), ",") + "]}")
}

// A stream of bodies whose layouts and sizes change, with errors among
// them, decodes through one RequestDecoder exactly as through
// DecodeRequest.
func TestRequestDecoderMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRequestDecoder(testClasses)
	accepted := 0
	for i := 0; i < 2000; i++ {
		body := randomRequest(rng)
		got, err := r.Decode(body)
		sameDecode(t, body, got, err)
		if err == nil {
			accepted++
		}
	}
	if accepted < 200 || accepted > 1800 {
		t.Fatalf("%d of 2000 random bodies decoded; the stream should mix both outcomes", accepted)
	}
}

// numericBody is a request of cols numeric columns of rows cells each.
func numericBody(t *testing.T, cols, rows int) []byte {
	t.Helper()
	f := frame.New()
	for c := 0; c < cols; c++ {
		v := make([]float64, rows)
		for i := range v {
			v[i] = float64(i%97) / 8
		}
		f.AddNumeric(fmt.Sprintf("f%d", c), v)
	}
	body, err := EncodeRequest(&data.Dataset{Frame: f, Labels: make([]int, rows)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// One huge body must not stay pinned by the decoder: after it, and
// after a small body that follows, the decoder keeps no more than its
// bound, while the huge body's dataset stays intact for its caller.
func TestRequestDecoderBoundedRetention(t *testing.T) {
	r := NewRequestDecoder(testClasses)
	bounded := func(when string) {
		t.Helper()
		if n := r.retained(); n > maxPooledScratch {
			t.Fatalf("%s: decoder keeps %d elements of column storage, bound %d", when, n, maxPooledScratch)
		}
		if r.d.oversized() {
			t.Fatalf("%s: decoder keeps scratch above %d elements", when, maxPooledScratch)
		}
		if r.d.internBytes > maxInternedBytes || len(r.d.intern) >= maxInterned {
			t.Fatalf("%s: decoder keeps %d interned strings of %d bytes", when, len(r.d.intern), r.d.internBytes)
		}
		if r.d.buf != nil {
			t.Fatalf("%s: decoder holds on to the body", when)
		}
	}
	huge, err := r.Decode(numericBody(t, 2, 500_000)) // 1M cells
	if err != nil {
		t.Fatal(err)
	}
	bounded("after a 1M-cell body")
	if huge.Len() != 500_000 || huge.Frame.Columns()[1].Num[499_999] != float64(499_999%97)/8 {
		t.Fatal("the huge body's dataset changed after the decoder let go of it")
	}
	small := numericBody(t, 2, 20)
	got, err := r.Decode(small)
	sameDecode(t, small, got, err)
	bounded("after a 20-row body")

	// Unique strings past the intern bound are let go too.
	words := make([]string, 4000)
	for i := range words {
		words[i] = fmt.Sprintf("%s-%d", strings.Repeat("w", 40), i)
	}
	f := frame.New().AddText("t", words)
	body, err := EncodeRequest(&data.Dataset{Frame: f, Labels: make([]int, len(words))})
	if err != nil {
		t.Fatal(err)
	}
	got, err = r.Decode(body)
	sameDecode(t, body, got, err)
	bounded("after a body of unique strings")
}

// A warmed decoder decodes a like-shaped body without allocating.
func TestRequestDecoderSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured in full runs")
	}
	body, _ := benchBodies(t)
	r := NewRequestDecoder(testClasses)
	if _, err := r.Decode(body); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Decode(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("a warmed RequestDecoder allocates %.1f times per 500-row body, want 0", allocs)
	}
}

// Images keep the one-shot decode; a tabular body after one reuses
// nothing it should not.
func TestRequestDecoderImagesThenColumns(t *testing.T) {
	r := NewRequestDecoder(testClasses)
	img, err := EncodeRequest(randomImages(rand.New(rand.NewSource(4)), 3))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := EncodeRequest(datagen.Income(30, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{tab, img, tab, img} {
		got, err := r.Decode(body)
		sameDecode(t, body, got, err)
	}
	if nan, err := r.Decode([]byte(`{"columns":[{"name":"a","kind":"numeric","num":[null]}]}`)); err != nil || !math.IsNaN(nan.Frame.Columns()[0].Num[0]) {
		t.Fatalf("null numeric cell decoded as %v (err %v), want NaN", nan, err)
	}
}

func BenchmarkRequestDecoder(b *testing.B) {
	body, _ := benchBodies(b)
	r := NewRequestDecoder(testClasses)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := r.Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}
