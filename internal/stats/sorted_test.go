package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sameFloat is bit equality that also equates two NaNs, so a NaN cell
// propagating through both paths counts as agreement.
func sameFloat(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// ksCopySort is the self-contained two-sample KS test — copy, sort and
// merge in one function — that the sorted path must reproduce bit for
// bit. It never terminates when a holds a NaN, so callers keep NaNs in b.
func ksCopySort(a, b []float64) TestResult {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return TestResult{Statistic: 0, PValue: 1}
	}
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	d := 0.0
	i, j := 0, 0
	for i < n && j < m {
		v := as[i]
		if bs[j] < v {
			v = bs[j]
		}
		for i < n && as[i] <= v {
			i++
		}
		for j < m && bs[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/float64(n) - float64(j)/float64(m))
		if diff > d {
			d = diff
		}
	}
	en := math.Sqrt(float64(n) * float64(m) / float64(n+m))
	return TestResult{Statistic: d, PValue: ksPValue((en + 0.12 + 0.11/en) * d)}
}

// tiedSample draws n values that are heavy with ties (a coarse grid of
// probabilities, including both signed zeros) mixed with continuous ones,
// with each cell NaN at probability nanRate.
func tiedSample(rng *rand.Rand, n int, nanRate float64) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch r := rng.Float64(); {
		case r < nanRate:
			xs[i] = math.NaN()
		case r < 0.5:
			xs[i] = float64(rng.Intn(5)) / 4
		case r < 0.55:
			xs[i] = math.Copysign(0, -1)
		default:
			xs[i] = rng.Float64()
		}
	}
	return xs
}

func sortedCopyOf(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func TestKolmogorovSmirnovSortedBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{1, 2, 3, 7, 20, 64, 311}
	for trial := 0; trial < 400; trial++ {
		n, m := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
		nanRate := 0.0
		if trial%4 == 3 {
			nanRate = 0.2
		}
		a := tiedSample(rng, n, 0) // NaNs only in b: ksCopySort loops forever on a NaN in a
		b := tiedSample(rng, m, nanRate)
		want := ksCopySort(a, b)
		for name, got := range map[string]TestResult{
			"wrapper": KolmogorovSmirnov(a, b),
			"sorted":  KolmogorovSmirnovSorted(sortedCopyOf(a), sortedCopyOf(b)),
		} {
			if !sameFloat(got.Statistic, want.Statistic) || !sameFloat(got.PValue, want.PValue) {
				t.Fatalf("trial %d (n=%d m=%d): %s = %+v, copy-sort reference = %+v", trial, n, m, name, got, want)
			}
		}
	}
}

func TestKolmogorovSmirnovNaNInEitherSample(t *testing.T) {
	clean := []float64{0.1, 0.2, 0.3}
	dirty := []float64{0.1, math.NaN(), 0.3}
	for _, pair := range [][2][]float64{{dirty, clean}, {clean, dirty}, {dirty, dirty}} {
		got := KolmogorovSmirnov(pair[0], pair[1])
		sorted := KolmogorovSmirnovSorted(sortedCopyOf(pair[0]), sortedCopyOf(pair[1]))
		if got.Statistic != 1 || got != sorted {
			t.Fatalf("KS(%v, %v) = %+v (sorted %+v), want D=1 on both paths", pair[0], pair[1], got, sorted)
		}
	}
	if want := ksCopySort(clean, dirty); KolmogorovSmirnov(dirty, clean) != want {
		t.Fatalf("a NaN in a gives %+v, a NaN in b gives %+v: KS must be symmetric", KolmogorovSmirnov(dirty, clean), want)
	}
}

func TestPercentilesSortedBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	grid := PercentileGrid(5)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(50)
		if trial%5 == 0 {
			n = 1
		}
		nanRate := 0.0
		if trial%3 == 0 {
			nanRate = 0.1
		}
		xs := tiedSample(rng, n, nanRate)
		orig := append([]float64(nil), xs...)
		batch := Percentiles(xs, grid)
		sorted := PercentilesSorted(nil, sortedCopyOf(xs), grid)
		for i, p := range grid {
			single := Percentile(xs, p)
			onSorted := PercentileSorted(sortedCopyOf(xs), p)
			if !sameFloat(batch[i], single) || !sameFloat(sorted[i], single) || !sameFloat(onSorted, single) {
				t.Fatalf("trial %d p%v: Percentiles %v, PercentilesSorted %v, PercentileSorted %v, Percentile %v",
					trial, p, batch[i], sorted[i], onSorted, single)
			}
		}
		for i := range xs {
			if !sameFloat(xs[i], orig[i]) {
				t.Fatal("percentile wrappers reordered the caller's slice")
			}
		}
	}
}

func TestPercentilesSortedAppends(t *testing.T) {
	dst := []float64{-1}
	got := PercentilesSorted(dst, []float64{1, 2, 3}, []float64{0, 50, 100})
	if len(got) != 4 || got[0] != -1 || got[1] != 1 || got[2] != 2 || got[3] != 3 {
		t.Fatalf("PercentilesSorted appended %v", got)
	}
}
