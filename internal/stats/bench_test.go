package stats

import (
	"math/rand"
	"testing"
)

func randomSample(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func BenchmarkKolmogorovSmirnov1k(b *testing.B) {
	x := randomSample(1000, 1)
	y := randomSample(1000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KolmogorovSmirnov(x, y)
	}
}

func BenchmarkPercentiles10k(b *testing.B) {
	xs := randomSample(10000, 1)
	grid := PercentileGrid(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Percentiles(xs, grid)
	}
}

func BenchmarkChiSquareCounts(b *testing.B) {
	a := []float64{120, 340, 90, 450, 75}
	c := []float64{110, 360, 85, 430, 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ChiSquareCounts(a, c)
	}
}

func BenchmarkAUC(b *testing.B) {
	n := 2000
	scores := randomSample(n, 1)
	truth := make([]int, n)
	rng := rand.New(rand.NewSource(2))
	for i := range truth {
		truth[i] = rng.Intn(2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AUC(scores, truth)
	}
}
