package core

// Property and fuzz tests for the streaming featurizer: a
// StreamAccumulator (one KLL sketch per class) fed any probability stream
// must produce percentile features close to the exact batch featurizer
// PredictionStatistics over the same outputs, with exact agreement at
// the 0th/100th percentiles (the sketch tracks min/max exactly).

import (
	"math"
	"testing"

	"blackboxval/internal/linalg"
)

// streamDistributions are the probability-stream shapes the property test
// sweeps: sketch accuracy depends on the distribution, so one uniform check
// (as in TestStreamAccumulatorMatchesBatchFeatures) is not enough.
var streamDistributions = []struct {
	name string
	draw func(rng interface{ Float64() float64 }) float64
}{
	{"uniform", func(rng interface{ Float64() float64 }) float64 { return rng.Float64() }},
	{"skewed_low", func(rng interface{ Float64() float64 }) float64 { v := rng.Float64(); return v * v * v }},
	{"skewed_high", func(rng interface{ Float64() float64 }) float64 { v := rng.Float64(); return 1 - v*v }},
	{"confident", func(rng interface{ Float64() float64 }) float64 {
		// Peaks near 0 and 1, like a well-trained classifier's outputs.
		v := rng.Float64()
		if rng.Float64() < 0.5 {
			return 0.02 * v
		}
		return 1 - 0.02*v
	}},
	{"bimodal", func(rng interface{ Float64() float64 }) float64 {
		if rng.Float64() < 0.3 {
			return 0.1 + 0.05*rng.Float64()
		}
		return 0.7 + 0.2*rng.Float64()
	}},
}

// massBetween returns the fraction of observations lying strictly
// between a and b. Comparing raw quantile values is the wrong metric on
// distributions with CDF jumps: at a jump, values far apart in absolute
// terms can be separated by almost no probability mass, and any of them
// is an equally legitimate quantile estimate. Mass separation is the
// scale-free error measure that is strict exactly where it should be —
// a wrong estimate in a dense region is separated from the truth by a
// lot of mass.
func massBetween(xs []float64, a, b float64) float64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	n := 0
	for _, x := range xs {
		if lo < x && x < hi {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// checkStreamVsExact feeds the two-class stream into an accumulator and
// checks every percentile feature against the exact featurizer: the
// estimate must either be within valueTol of the exact order statistic,
// or be separated from it by at most rankTol probability mass (the
// correct criterion at CDF jumps, where the exact featurizer
// interpolates a mid-gap value and the sketch returns an order
// statistic beside the gap).
func checkStreamVsExact(t *testing.T, ps []float64, step, valueTol, rankTol float64) {
	t.Helper()
	n := len(ps)
	proba := linalg.NewMatrix(n, 2)
	acc := NewStreamAccumulator(2, step)
	cols := [2][]float64{make([]float64, n), make([]float64, n)}
	for i, p := range ps {
		proba.Set(i, 0, p)
		proba.Set(i, 1, 1-p)
		cols[0][i], cols[1][i] = p, 1-p
		acc.Add([]float64{p, 1 - p})
	}
	exact := PredictionStatistics(proba, step)
	approx := acc.Features()
	if len(approx) != len(exact) {
		t.Fatalf("feature count %d vs exact %d", len(approx), len(exact))
	}
	perClass := len(exact) / 2
	for i := range exact {
		// Percentile blocks stay monotone per class.
		if i%perClass > 0 && approx[i] < approx[i-1]-1e-12 {
			t.Fatalf("stream features not monotone at %d: %v < %v", i, approx[i], approx[i-1])
		}
		if valueTol < 0 {
			continue // invariants only (tiny fuzz streams)
		}
		if math.Abs(approx[i]-exact[i]) <= valueTol {
			continue
		}
		if gap := massBetween(cols[i/perClass], approx[i], exact[i]); gap > rankTol {
			t.Fatalf("feature %d (p=%v): stream %v vs exact %v separated by %v probability mass (tol %v, n=%d)",
				i, float64(i%perClass)*step, approx[i], exact[i], gap, rankTol, n)
		}
	}
	// Extremes are tracked exactly, not approximated.
	if approx[0] != exact[0] || approx[perClass-1] != exact[perClass-1] {
		t.Fatalf("extreme percentiles diverge: stream [%v,%v] vs exact [%v,%v]",
			approx[0], approx[perClass-1], exact[0], exact[perClass-1])
	}
	if acc.Count() != n {
		t.Fatalf("count %d, want %d", acc.Count(), n)
	}
}

func TestStreamAccumulatorPropertyRandomStreams(t *testing.T) {
	for _, dist := range streamDistributions {
		t.Run(dist.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				for _, n := range []int{500, 2000, 8000} {
					rng := jobRNG(seed, 300, n)
					ps := make([]float64, n)
					for i := range ps {
						ps[i] = dist.draw(rng)
					}
					// The value bound tightens with stream length; the mass
					// bound does not, because on the near-atomic
					// confident/bimodal streams estimate and exact value can
					// sit on opposite sides of a CDF gap at any length.
					valueTol, rankTol := 0.05, 0.12
					if n >= 2000 {
						valueTol = 0.03
					}
					checkStreamVsExact(t, ps, 5, valueTol, rankTol)
				}
			}
		})
	}
}

func TestStreamAccumulatorPropertyCoarseGrid(t *testing.T) {
	rng := jobRNG(9, 301, 0)
	ps := make([]float64, 4000)
	for i := range ps {
		ps[i] = rng.Float64()
	}
	checkStreamVsExact(t, ps, 25, 0.03, 0.04)
}

// FuzzStreamAccumulator lets the fuzzer hunt for probability streams
// where the streaming sketch drifts from the exact featurizer or violates
// its structural invariants (monotonicity, exact extremes).
func FuzzStreamAccumulator(f *testing.F) {
	f.Add([]byte{0, 255, 128, 64, 32, 200, 17, 90})
	f.Add([]byte{1, 1, 1, 1, 1, 254, 254, 254, 254, 254, 127})
	seed := make([]byte, 600)
	for i := range seed {
		seed[i] = byte((i * 37) % 256)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 8 {
			t.Skip("stream too short for percentile features")
		}
		ps := make([]float64, len(raw))
		for i, b := range raw {
			ps[i] = float64(b) / 255
		}
		// Byte streams are adversarial (heavy atoms, tiny support): check
		// only the structural invariants on short streams, and generous
		// closeness/rank bounds on longer streams.
		valueTol, rankTol := -1.0, -1.0
		if len(ps) >= 128 {
			valueTol, rankTol = 0.1, 0.1
		}
		checkStreamVsExact(t, ps, 5, valueTol, rankTol)
	})
}
