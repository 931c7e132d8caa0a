package obs

import (
	"encoding/binary"
	"math"
	"math/rand"
	"time"

	"blackboxval/internal/stats"
)

// windowGen decodes fuzz bytes into timeline windows that reach every
// corner the encoder and the merge fold must agree on: empty and
// negative counts, NaN/±Inf/-0 values, nil and empty quantile maps,
// nil, flagged and negative exact sums, exact, bucketed, all-NaN and
// hostile-but-decodable sketches, escaped series names and times in
// other zones. An exhausted input reads as zeros.
type windowGen struct{ data []byte }

func (g *windowGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	c := g.data[0]
	g.data = g.data[1:]
	return c
}

func (g *windowGen) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(g.byte())
	}
	return v
}

var genFloats = []float64{0, 1, -1, 0.5, -2.25, 1e-7, 3e21, math.MaxFloat64, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0.125, 42}

func (g *windowGen) float() float64 {
	switch c := g.byte(); {
	case c < 200:
		return genFloats[int(c)%len(genFloats)]
	case c < 248:
		return float64(int8(g.byte())) / 8
	case c == 248:
		return math.NaN()
	case c == 249:
		return math.Inf(1)
	case c == 250:
		return math.Inf(-1)
	default:
		return math.Float64frombits(g.u64())
	}
}

var genNames = []string{"estimate", "ks_max", "alarm", "proba_class_0", "a<b&c>", "é", "quote\"\\", "\x01ctl", "\xff\xfe", ""}

func (g *windowGen) name(pool int) string {
	c := g.byte()
	if c >= 250 { // raw bytes
		n := int(g.byte() % 6)
		b := make([]byte, n)
		for i := range b {
			b[i] = g.byte()
		}
		return string(b)
	}
	return genNames[int(c)%pool]
}

var genZones = []*time.Location{
	time.UTC, time.Local,
	time.FixedZone("IST", 5*3600+30*60), time.FixedZone("", -8*3600),
	time.FixedZone("", 14*3600), time.FixedZone("bad", 25*3600), // outside RFC 3339
}

func (g *windowGen) time() time.Time {
	c := g.byte()
	switch c % 8 {
	case 0:
		return time.Time{}
	case 1: // any instant, mostly outside years 0..9999
		return time.Unix(int64(g.u64()), int64(g.byte())*1e6)
	}
	t := time.Unix(1_700_000_000+int64(int16(g.byte())<<8|int16(g.byte())), int64(g.u64()%1e9))
	return t.In(genZones[int(g.byte())%len(genZones)])
}

var genCounts = []int{1, 0, 2, 7, 200, -1, 1, 3}

// sketch returns nil, or a sketch in one of the regimes a window can
// carry, including states only a decoded payload can hold.
func (g *windowGen) sketch() *stats.KLL {
	switch g.byte() % 8 {
	case 0:
		return nil
	case 1: // no finite value, NaNs counted
		k := stats.NewKLL()
		for i := int(g.byte() % 3); i > 0; i-- {
			k.Add(math.NaN())
		}
		return k
	case 2, 3: // exact regime
		k := stats.NewKLL()
		for i := int(g.byte() % 12); i > 0; i-- {
			k.Add(g.float())
		}
		return k
	case 4, 5: // bucketed regime, negatives and zeros included
		k := stats.NewKLL()
		base, n := g.float(), 65+int(g.byte())
		for i := 0; i < n; i++ {
			k.Add(base * float64(i%23-7) / 3)
		}
		return k
	case 6: // decodable but hostile: negative zero counts, extremes that disagree with the buckets
		var k stats.KLL
		js := []string{
			`{"v":1,"count":65,"min":0,"max":0,"bucketed":true,"zero":-3,"pos":[[7,68]]}`,
			`{"v":1,"count":66,"min":1,"max":2,"bucketed":true,"zero":-2,"neg":[[3,68]]}`,
			`{"v":1,"count":0,"nans":4,"min":5,"max":-5,"zero":9}`,
		}[g.byte()%3]
		if err := k.UnmarshalJSON([]byte(js)); err != nil {
			panic(err)
		}
		return &k
	default: // a binary-decoded exact sketch, possibly with nonfinite extremes
		var b []byte
		b = append(b, 'K', 'L', 'S', 1, 0)
		b = binary.LittleEndian.AppendUint64(b, 1)
		b = binary.LittleEndian.AppendUint64(b, 0)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(g.float()))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(2))
		b = binary.LittleEndian.AppendUint32(b, 1)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(2))
		var k stats.KLL
		if err := k.UnmarshalBinary(b); err != nil {
			panic(err)
		}
		return &k
	}
}

func (g *windowGen) sum() *stats.ExactSum {
	if g.byte()%3 == 0 {
		return nil
	}
	s := stats.NewExactSum()
	for i := int(g.byte() % 4); i > 0; i-- {
		s.Add(g.float())
	}
	return s
}

func (g *windowGen) aggregate() Aggregate {
	a := Aggregate{Count: genCounts[int(g.byte())%len(genCounts)]}
	a.Sum, a.Min, a.Max, a.Last = g.float(), g.float(), g.float(), g.float()
	switch g.byte() % 4 {
	case 1:
		a.Quantiles = map[string]float64{}
	case 2, 3:
		a.Quantiles = map[string]float64{}
		for i := int(g.byte() % 4); i >= 0; i-- {
			a.Quantiles[[]string{"p50", "p90", "p99", "p99.9", "<q>"}[g.byte()%5]] = g.float()
		}
	}
	a.SumExact = g.sum()
	a.Sketch = g.sketch()
	return a
}

// window returns a window whose series names come from the first pool
// entries of genNames (a small pool makes windows share series).
func (g *windowGen) window(pool int) Window {
	w := Window{Index: int64(int8(g.byte())), Start: g.time(), End: g.time(), Batches: int(int8(g.byte()))}
	if g.byte()%5 == 0 {
		return w // nil Series
	}
	w.Series = map[string]Aggregate{}
	for i := int(g.byte() % 5); i > 0; i-- {
		w.Series[g.name(pool)] = g.aggregate()
	}
	return w
}

// genSeeds returns n deterministic pseudo-random fuzz inputs.
func genSeeds(n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 64+rng.Intn(512))
		rng.Read(out[i])
	}
	return out
}
