package stats

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// reflectKLLJSON and reflectExactSumJSON are the reflection encoders
// AppendJSON replaced, kept as the reference: they fill the wire
// structs and hand them to encoding/json.
func reflectKLLJSON(k *KLL) ([]byte, error) {
	out := kllJSON{V: kllVersion, Count: k.count, NaNs: k.nans, Min: k.min, Max: k.max, Bucketed: k.bucketed, Zero: k.zero}
	if !k.bucketed {
		out.Xs = k.xs
	} else {
		for _, b := range k.b.neg {
			out.Neg = append(out.Neg, [2]int64{int64(b.idx), b.n})
		}
		for _, b := range k.b.pos {
			out.Pos = append(out.Pos, [2]int64{int64(b.idx), b.n})
		}
	}
	return json.Marshal(out)
}

func reflectExactSumJSON(s *ExactSum) []byte {
	out := exactSumJSON{NaN: s.nan, PInf: s.pinf, NInf: s.ninf}
	mag := s.limbs
	if s.negative() {
		out.Neg = true
		negateLimbs(&mag)
	}
	for i, v := range mag {
		if v != 0 {
			out.Limbs = append(out.Limbs, sumLimbJSON{I: i, V: strconv.FormatUint(v, 16)})
		}
	}
	buf, err := json.Marshal(out)
	if err != nil {
		panic(err) // the struct holds no float
	}
	return buf
}

// checkKLLJSON asserts AppendJSON appends the reflection encoding and
// fails exactly when it fails.
func checkKLLJSON(t testing.TB, k *KLL) {
	t.Helper()
	want, wantErr := reflectKLLJSON(k)
	got, err := k.AppendJSON([]byte("x"))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON error %v, reflection error %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Fatalf("AppendJSON diverged from reflection:\n got %s\nwant x%s", got, want)
	}
}

func TestKLLAppendJSONMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		k := NewKLL()
		for i := rng.Intn(200); i > 0; i-- {
			switch rng.Intn(10) {
			case 0:
				k.Add(math.NaN())
			case 1:
				k.Add(0)
			case 2:
				k.Add(math.Inf(-1))
			default:
				k.Add(randomFinite(rng))
			}
		}
		checkKLLJSON(t, k)
		k.Reset()
		checkKLLJSON(t, k) // a reset sketch encodes as a new one
		if got, _ := k.AppendJSON(nil); string(got) != `{"v":1,"count":0,"min":0,"max":0}` {
			t.Fatalf("reset sketch encodes as %s", got)
		}
	}
	// States no Add sequence or decoder produces, built directly: an
	// exact sketch with a zero count field and extremes that disagree
	// with its values, then a nonfinite extreme.
	odd := KLL{nans: 2, min: 1, max: -1, zero: 4}
	checkKLLJSON(t, &odd)
	odd.min = math.NaN()
	checkKLLJSON(t, &odd)
}

func TestExactSumAppendJSONMatchesReflection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		s := NewExactSum()
		for i := rng.Intn(8); i > 0; i-- {
			switch rng.Intn(12) {
			case 0:
				s.Add(math.NaN())
			case 1:
				s.Add(math.Inf(1))
			case 2:
				s.Add(math.Inf(-1))
			case 3:
				s.Add(-randomFinite(rng) * 1e300)
			default:
				s.Add(randomFinite(rng))
			}
		}
		want := reflectExactSumJSON(s)
		if got := s.AppendJSON([]byte("x")); !bytes.Equal(got, append([]byte("x"), want...)) {
			t.Fatalf("AppendJSON diverged from reflection:\n got %s\nwant x%s", got, want)
		}
		s.Reset()
		if got := s.AppendJSON(nil); string(got) != "{}" || !s.IsZero() {
			t.Fatalf("reset accumulator encodes as %s", got)
		}
	}
}
