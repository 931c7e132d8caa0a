package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// kllDiffQs is the quantile grid the differential checks read.
var kllDiffQs = []float64{-1, 0, 1e-9, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1 - 1e-12, 1, 2}

// kllPair is one sketch and its map-based reference, fed the same ops.
type kllPair struct {
	k   *KLL
	ref *mapKLL
}

// kllDiffValue draws one observation: NaN, ±Inf, ±0, small repeated
// integers, arbitrary bit patterns, and values spread over many
// binades.
func kllDiffValue(rng *rand.Rand) float64 {
	switch rng.Intn(14) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Copysign(0, -1)
	case 4:
		return 0
	case 5, 6:
		return float64(rng.Intn(7) - 3)
	case 7:
		return math.Float64frombits(rng.Uint64())
	default:
		return rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
	}
}

// checkKLLPair asserts the sketch and its reference hold the same state:
// the same binary and JSON bytes, the same quantiles bit for bit.
func checkKLLPair(t testing.TB, step int, p kllPair) {
	t.Helper()
	got, err := p.k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d: binary form diverged from the map reference", step)
	}
	gotJS, errGot := p.k.AppendJSON(nil)
	wantJS, errWant := p.ref.AppendJSON(nil)
	if (errGot != nil) != (errWant != nil) || !bytes.Equal(gotJS, wantJS) {
		t.Fatalf("step %d: JSON diverged from the map reference:\n got %s (%v)\nwant %s (%v)", step, gotJS, errGot, wantJS, errWant)
	}
	gq, wq := p.k.Quantiles(kllDiffQs, nil), p.ref.Quantiles(kllDiffQs, nil)
	for i, q := range kllDiffQs {
		if math.Float64bits(gq[i]) != math.Float64bits(wq[i]) {
			t.Fatalf("step %d: Quantile(%v) = %v, map reference %v", step, q, gq[i], wq[i])
		}
	}
}

// runKLLDifferential interprets ops as a sequence of sketch operations
// on a pool of four sketch/reference pairs and checks, after every one,
// that the sorted-slice sketch and the map reference agree.
func runKLLDifferential(t testing.TB, seed int64, ops []byte) {
	rng := rand.New(rand.NewSource(seed))
	var pool [4]kllPair
	for i := range pool {
		pool[i] = kllPair{NewKLL(), newMapKLL()}
	}
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step], int(ops[step+1])
		p := &pool[int(op>>4)%len(pool)]
		o := &pool[arg%len(pool)]
		switch op % 8 {
		case 0: // one value
			x := kllDiffValue(rng)
			p.k.Add(x)
			p.ref.Add(x)
		case 1, 2: // a batch, long enough to cross the cutover
			xs := make([]float64, arg%97+rng.Intn(3)*(arg%53))
			for i := range xs {
				xs[i] = kllDiffValue(rng)
			}
			p.k.AddAll(xs)
			for _, x := range xs {
				p.ref.Add(x)
			}
		case 3: // merge in either direction, self included
			if err := p.k.Merge(o.k); err != nil {
				t.Fatal(err)
			}
			if err := p.ref.Merge(o.ref); err != nil {
				t.Fatal(err)
			}
		case 4:
			p.k.Reset()
			p.ref.Reset()
		case 5:
			*p = kllPair{o.k.Clone(), o.ref.Clone()}
		case 6: // JSON round trip
			js, err := json.Marshal(p.k)
			if err != nil {
				continue // a nonfinite extreme; checkKLLPair compares the error
			}
			var k KLL
			var ref mapKLL
			if err := json.Unmarshal(js, &k); err != nil {
				t.Fatalf("step %d: own JSON rejected: %v", step, err)
			}
			if err := json.Unmarshal(js, &ref); err != nil {
				t.Fatal(err)
			}
			*p = kllPair{&k, &ref}
		case 7: // binary round trip
			bin, err := p.k.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var k KLL
			var ref mapKLL
			if err := k.UnmarshalBinary(bin); err != nil {
				t.Fatalf("step %d: own binary form rejected: %v", step, err)
			}
			if err := ref.UnmarshalBinary(bin); err != nil {
				t.Fatal(err)
			}
			*p = kllPair{&k, &ref}
		}
		checkKLLPair(t, step, *p)
		for _, q := range pool {
			got, want := KSDistance(p.k, q.k), mapKSDistance(p.ref, q.ref)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: KSDistance = %v, map reference %v", step, got, want)
			}
		}
	}
}

func TestKLLMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		ops := make([]byte, 2*(20+rng.Intn(60)))
		rng.Read(ops)
		runKLLDifferential(t, int64(trial), ops)
	}
}

// FuzzKLLMatchesMapReference drives fuzzer-chosen operation sequences
// through the sketch and the map-based reference it replaced.
func FuzzKLLMatchesMapReference(f *testing.F) {
	f.Add(int64(1), []byte{1, 90, 0x11, 80, 3, 1, 0x13, 0, 5, 0, 6, 0, 7, 0, 4, 0, 3, 1})
	f.Add(int64(2), []byte{2, 200, 0x12, 30, 0x23, 1, 0x33, 2, 0x15, 3, 0x26, 2, 0x37, 1})
	f.Add(int64(3), []byte{0, 0, 0, 0, 3, 0, 1, 64, 0x21, 64, 3, 2})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			t.Skip("long sequences add nothing short ones do not cover")
		}
		runKLLDifferential(t, seed, ops)
	})
}

func TestKLLAddAllMatchesAdd(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -3, -1e-300, 5e-324, -math.MaxFloat64}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		one, bulk := NewKLL(), NewKLL()
		// A head of values, maybe past the cutover, then batches that
		// cross it in the middle or start beyond it.
		for i := rng.Intn(80); i > 0; i-- {
			x := kllDiffValue(rng)
			one.Add(x)
			bulk.Add(x)
		}
		for b := rng.Intn(4); b >= 0; b-- {
			xs := make([]float64, rng.Intn(150))
			for i := range xs {
				if rng.Intn(5) == 0 {
					xs[i] = special[rng.Intn(len(special))]
				} else {
					xs[i] = kllDiffValue(rng)
				}
			}
			for _, x := range xs {
				one.Add(x)
			}
			bulk.AddAll(xs)
			if !bytes.Equal(kllBytes(t, bulk), kllBytes(t, one)) {
				t.Fatalf("trial %d: AddAll state differs from Add on each value", trial)
			}
		}
	}
	// The exact-to-bucketed cutover in the middle of one batch.
	for _, head := range []int{0, 1, 30, kllCutover - 1, kllCutover} {
		xs := make([]float64, 200)
		for i := range xs {
			xs[i] = float64(i%37-18) / 7
		}
		xs[3], xs[100] = math.NaN(), math.NaN()
		one, bulk := NewKLL(), NewKLL()
		for _, x := range xs[:head] {
			one.Add(x)
			bulk.Add(x)
		}
		for _, x := range xs[head:] {
			one.Add(x)
		}
		bulk.AddAll(xs[head:])
		if !bytes.Equal(kllBytes(t, bulk), kllBytes(t, one)) {
			t.Fatalf("head %d: AddAll across the cutover differs from Add", head)
		}
	}
}

// warmBatch returns a bucketed batch of proba-like values.
func warmBatch(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	return xs
}

func TestKLLAllocGuards(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are checked without -short")
	}
	if size := unsafe.Sizeof(KLL{}); size > 88 {
		t.Fatalf("KLL is %d B, over the 88 B of its allocation size class", size)
	}
	a, b := NewKLL(), NewKLL()
	a.AddAll(warmBatch(500, 1))
	b.AddAll(warmBatch(300, 2))
	for i := 0; i < 40; i++ {
		b.Add(-float64(i))
	}
	qs := []float64{0.5, 0.9, 0.99}
	out := make([]float64, 0, len(qs))
	js := make([]byte, 0, 64<<10)
	acc := NewKLL()
	batch := warmBatch(500, 3)
	acc.AddAll(batch)
	acc.Merge(a)
	acc.Merge(b)
	for name, fn := range map[string]func(){
		"Quantiles":  func() { out = a.Quantiles(qs, out[:0]) },
		"AppendJSON": func() { js, _ = b.AppendJSON(js[:0]) },
		"KSDistance": func() { KSDistance(a, b) },
		"AddAll":     func() { acc.Reset(); acc.AddAll(batch) },
		"Merge":      func() { acc.Reset(); acc.Merge(a); acc.Merge(b) },
	} {
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
	if n := testing.AllocsPerRun(50, func() { b.Clone() }); n > 3 {
		t.Errorf("Clone of a bucketed sketch: %v allocs, want at most 3", n)
	}
}

// spreadBatch returns n values whose exponents are spread over
// 2^-1000…2^1000, signs mixed: nearly every value lands in its own
// bucket.
func spreadBatch(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Copysign(math.Ldexp(0.5+rng.Float64()/2, rng.Intn(2001)-1000), rng.NormFloat64())
	}
	return xs
}

// TestKLLAddAllSpreadInput feeds AddAll, in 500-value batches, the
// input that makes per-value sorted inserts quadratic — 100k values
// whose buckets barely repeat — and checks the sketch against the map
// reference. BenchmarkKLLAddAll/spread-100k measures its cost.
func TestKLLAddAllSpreadInput(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-value spread input")
	}
	xs := spreadBatch(100_000, 5)
	bulk := NewKLL()
	for i := 0; i < len(xs); i += 500 {
		bulk.AddAll(xs[i : i+500])
	}
	ref := newMapKLL()
	for _, x := range xs {
		ref.Add(x)
	}
	want, _ := ref.MarshalBinary()
	if !bytes.Equal(kllBytes(t, bulk), want) {
		t.Fatal("batched spread input differs from the map reference")
	}
}

func BenchmarkKLLAddAll(b *testing.B) {
	for _, c := range []struct {
		name string
		xs   []float64
	}{
		{"uniform", warmBatch(500, 1)},
		{"spread", spreadBatch(500, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			acc := NewKLL()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%64 == 0 { // a 64-batch window
					acc.Reset()
				}
				acc.AddAll(c.xs)
			}
		})
	}
	// 100k values spread over 2^-1000…2^1000: AddAll in 500-value
	// batches, a per-value sorted insert, and the map it replaced.
	xs := spreadBatch(100_000, 5)
	for _, c := range []struct {
		name string
		fill func()
	}{
		{"spread-100k/AddAll-500", func() {
			acc := NewKLL()
			for j := 0; j < len(xs); j += 500 {
				acc.AddAll(xs[j : j+500])
			}
		}},
		{"spread-100k/Add", func() {
			acc := NewKLL()
			for _, x := range xs {
				acc.Add(x)
			}
		}},
		{"spread-100k/map", func() {
			acc := newMapKLL()
			for _, x := range xs {
				acc.Add(x)
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fill()
			}
		})
	}
}

// nonCanonicalKLLs are payloads both decoders must reject, in JSON
// and binary form: a repeated or descending bucket index, a bucketed
// flag that disagrees with count > kllCutover, an exact sketch holding
// more than kllCutover values, negative NaN or zero counts, zeros
// counted by an exact sketch, a -0 value, and extremes that disagree
// with the values (an exact sketch's ends, a bucketed sketch's lowest
// and highest buckets, an empty sketch's zeros).
func nonCanonicalKLLs() []struct {
	name    string
	payload []byte
} {
	var cases []struct {
		name    string
		payload []byte
	}
	add := func(name string, payload []byte) {
		cases = append(cases, struct {
			name    string
			payload []byte
		}{name, payload})
	}
	// both adds a header in both wire forms; JSON cannot carry a
	// nonfinite extreme, so such headers go in binary only.
	both := func(name string, h kllJSON) {
		if js, err := json.Marshal(h); err == nil {
			add("json "+name, js)
		}
		add("binary "+name, kllBinary(h))
	}
	seventy := make([]float64, 70)
	for i := range seventy {
		seventy[i] = 1
	}
	xs, _ := json.Marshal(seventy)
	add("json repeated index, count 3", []byte(`{"v":1,"count":3,"min":1,"max":1,"bucketed":true,"pos":[[128,1],[128,2]]}`))
	add("json repeated index", []byte(`{"v":1,"count":70,"min":1,"max":1,"bucketed":true,"pos":[[128,30],[128,40]]}`))
	add("json descending index", []byte(`{"v":1,"count":70,"min":1,"max":1.01,"bucketed":true,"pos":[[129,30],[128,40]]}`))
	add("json bucketed at count 64", []byte(`{"v":1,"count":64,"min":1,"max":1,"bucketed":true,"pos":[[128,64]]}`))
	add("json bucketed at count 1", []byte(`{"v":1,"count":1,"min":1,"max":1,"bucketed":true,"pos":[[128,1]]}`))
	add("json exact with 70 values", []byte(`{"v":1,"count":70,"min":1,"max":1,"xs":`+string(xs)+`}`))
	add("binary repeated index", kllBinary(kllJSON{Bucketed: true, Count: 70, Min: 1, Max: 1, Pos: [][2]int64{{128, 30}, {128, 40}}}))
	add("binary descending index", kllBinary(kllJSON{Bucketed: true, Count: 70, Min: 1, Max: 1, Pos: [][2]int64{{129, 30}, {128, 40}}}))
	add("binary bucketed at count 64", kllBinary(kllJSON{Bucketed: true, Count: 64, Min: 1, Max: 1, Pos: [][2]int64{{128, 64}}}))
	add("binary bucketed at count 1", kllBinary(kllJSON{Bucketed: true, Count: 1, Min: 1, Max: 1, Pos: [][2]int64{{128, 1}}}))
	add("binary exact with 70 values", kllBinary(kllJSON{Count: 70, Min: 1, Max: 1, Xs: seventy}))

	// Bucket 128 holds [1, 1+1/128); buckets 0 and 1 hold values of
	// magnitude in [0.5, 0.5+1/512) and [0.5+1/512, 0.5+2/512).
	v := kllVersion
	both("negative zero count", kllJSON{V: v, Count: 65, Min: 1, Max: 1, Bucketed: true, Zero: -3, Pos: [][2]int64{{128, 68}}})
	both("negative nans", kllJSON{V: v, Count: 1, NaNs: -1, Min: 1, Max: 1, Xs: []float64{1}})
	both("negative nans, bucketed", kllJSON{V: v, Count: 65, NaNs: -2, Min: 1, Max: 1, Bucketed: true, Pos: [][2]int64{{128, 65}}})
	// The binary form of an exact sketch has no zero count.
	add("json zeros on an exact sketch", []byte(`{"v":1,"count":1,"min":1,"max":1,"xs":[1],"zero":4}`))
	add("json zeros on an empty sketch", []byte(`{"v":1,"count":0,"nans":4,"min":0,"max":0,"zero":9}`))
	both("-0 value", kllJSON{V: v, Count: 2, Min: math.Copysign(0, -1), Max: 1, Xs: []float64{math.Copysign(0, -1), 1}})
	both("exact min above the first value", kllJSON{V: v, Count: 2, Min: 1.5, Max: 2, Xs: []float64{1, 2}})
	both("exact max below the last value", kllJSON{V: v, Count: 2, Min: 1, Max: 1.5, Xs: []float64{1, 2}})
	both("empty sketch with extremes", kllJSON{V: v, NaNs: 4, Min: 5, Max: -5})
	both("bucketed min below the lowest bucket", kllJSON{V: v, Count: 65, Min: 0.5, Max: 1, Bucketed: true, Pos: [][2]int64{{128, 65}}})
	both("bucketed max above the highest bucket", kllJSON{V: v, Count: 65, Min: 1, Max: 2, Bucketed: true, Pos: [][2]int64{{128, 65}}})
	both("bucketed extremes out of order in one bucket", kllJSON{V: v, Count: 65, Min: 1.0078, Max: 1, Bucketed: true, Pos: [][2]int64{{128, 65}}})
	both("bucketed max of the wrong sign", kllJSON{V: v, Count: 65, Min: -1, Max: 1, Bucketed: true, Neg: [][2]int64{{128, 65}}})
	both("bucketed min not zero", kllJSON{V: v, Count: 66, Min: 0.5, Max: 1, Bucketed: true, Zero: 1, Pos: [][2]int64{{128, 65}}})
	both("bucketed -0 min", kllJSON{V: v, Count: 66, Min: math.Copysign(0, -1), Max: 1, Bucketed: true, Zero: 1, Pos: [][2]int64{{128, 65}}})
	both("bucketed infinite min", kllJSON{V: v, Count: 65, Min: math.Inf(-1), Max: 1, Bucketed: true, Pos: [][2]int64{{128, 65}}})
	both("exact infinite value", kllJSON{V: v, Count: 1, Min: math.Inf(1), Max: math.Inf(1), Xs: []float64{math.Inf(1)}})
	both("exact NaN extremes", kllJSON{V: v, Count: 1, Min: math.NaN(), Max: 1, Xs: []float64{1}})
	return cases
}

// kllBinary writes h in MarshalBinary's layout, whatever it holds.
func kllBinary(h kllJSON) []byte {
	le := binary.LittleEndian
	flags := byte(0)
	if h.Bucketed {
		flags = 1
	}
	b := append(append([]byte(nil), kllMagic[:]...), flags)
	b = le.AppendUint64(b, uint64(h.Count))
	b = le.AppendUint64(b, uint64(h.NaNs))
	b = le.AppendUint64(b, math.Float64bits(h.Min))
	b = le.AppendUint64(b, math.Float64bits(h.Max))
	if !h.Bucketed {
		b = le.AppendUint32(b, uint32(len(h.Xs)))
		for _, x := range h.Xs {
			b = le.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	b = le.AppendUint64(b, uint64(h.Zero))
	for _, side := range [2][][2]int64{h.Neg, h.Pos} {
		b = le.AppendUint32(b, uint32(len(side)))
		for _, p := range side {
			b = le.AppendUint32(b, uint32(p[0]))
			b = le.AppendUint64(b, uint64(p[1]))
		}
	}
	return b
}
