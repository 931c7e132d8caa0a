package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestKLLQuantilesMatchPerQuantile holds Quantiles and Quantile to the
// map-based reference, bit for bit, across shapes, sizes on both sides
// of the cutover, and out-of-range q.
func TestKLLQuantilesMatchPerQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	qs := []float64{0.5, 0, 1, 1e-9, 0.05, 0.95, 0.25, 0.999, 0.5, 1 - 1e-12, -0.5, 1.5}
	for i := 0; i <= 100; i++ {
		qs = append(qs, float64(i)/100)
	}
	draws := map[string]func() float64{
		"normal":    rng.NormFloat64,
		"negatives": func() float64 { return -math.Abs(rng.NormFloat64()) * 1e3 },
		"zeros":     func() float64 { return float64(rng.Intn(3)-1) * rng.Float64() * float64(rng.Intn(2)) },
		"extremes": func() float64 {
			return []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -5e-324, 5e-324, 0, math.NaN(), 1}[rng.Intn(8)]
		},
		"proba": rng.Float64,
		"skewed": func() float64 {
			return math.Pow(rng.Float64(), 8)
		},
	}
	for name, draw := range draws {
		for _, n := range []int{0, 1, 2, 17, kllCutover, kllCutover + 1, 500, 5000} {
			k, ref := NewKLL(), newMapKLL()
			for i := 0; i < n; i++ {
				x := draw()
				k.Add(x)
				ref.Add(x)
			}
			got := k.Quantiles(qs, nil)
			if len(got) != len(qs) {
				t.Fatalf("%s/%d: %d estimates for %d quantiles", name, n, len(got), len(qs))
			}
			for i, q := range qs {
				want := ref.Quantile(q)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s/%d: Quantiles q=%v = %v, map reference = %v", name, n, q, got[i], want)
				}
				if one := k.Quantile(q); math.Float64bits(one) != math.Float64bits(want) {
					t.Fatalf("%s/%d: Quantile(%v) = %v, map reference = %v", name, n, q, one, want)
				}
			}
		}
	}
}

func TestKLLQuantilesAppends(t *testing.T) {
	k := NewKLL()
	for i := 0; i < 1000; i++ {
		k.Add(float64(i))
	}
	out := k.Quantiles([]float64{0.5, 0.9}, []float64{-1})
	if len(out) != 3 || out[0] != -1 || out[1] != k.Quantile(0.5) || out[2] != k.Quantile(0.9) {
		t.Fatalf("Quantiles did not append: %v", out)
	}
	if got := k.Quantiles(nil, nil); len(got) != 0 {
		t.Fatalf("no quantiles asked, got %v", got)
	}
}

// BenchmarkKLLQuantiles reads three quantiles off a 500-value sketch:
// "map" sorts the reference's bucket maps into fresh slices, "slices"
// walks the sorted buckets in place.
func BenchmarkKLLQuantiles(b *testing.B) {
	k, ref := NewKLL(), newMapKLL()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		k.Add(x)
		ref.Add(x)
	}
	qs := []float64{0.5, 0.9, 0.99}
	out := make([]float64, 0, len(qs))
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = ref.Quantiles(qs, out[:0])
		}
	})
	b.Run("slices", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = k.Quantiles(qs, out[:0])
		}
	})
}
