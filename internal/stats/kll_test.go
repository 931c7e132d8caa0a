package stats

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// kllBytes returns the canonical binary form, failing the test on error.
func kllBytes(t testing.TB, k *KLL) []byte {
	t.Helper()
	buf, err := k.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestKLLExactBelowCutover(t *testing.T) {
	k := NewKLL()
	for _, v := range []float64{1, 3, 2} {
		k.Add(v)
	}
	if got := k.Quantile(0.5); got != 2 {
		t.Fatalf("p50 of {1,3,2} = %v, want exactly 2", got)
	}
	if k.Quantile(0) != 1 || k.Quantile(1) != 3 {
		t.Fatalf("extremes = %v,%v, want 1,3", k.Quantile(0), k.Quantile(1))
	}
	single := NewKLL()
	single.Add(0.7)
	if got := single.Quantile(0.5); got != 0.7 {
		t.Fatalf("p50 of single sample = %v, want exactly 0.7", got)
	}
	if NewKLL().Quantile(0.5) != 0 {
		t.Fatal("empty sketch should report 0")
	}
}

// kllDistributions mirrors the streaming property test's sweep: the
// sketch must track exact percentiles across shapes, not just uniform.
func kllDistributions(rng *rand.Rand) map[string]func() float64 {
	return map[string]func() float64{
		"uniform":   func() float64 { return rng.Float64() * 100 },
		"normal":    func() float64 { return rng.NormFloat64()*5 + 50 },
		"lognormal": func() float64 { return math.Exp(rng.NormFloat64() * 2) },
		"bimodal": func() float64 {
			if rng.Intn(2) == 0 {
				return rng.NormFloat64() + 10
			}
			return rng.NormFloat64() + 1000
		},
		"signed": func() float64 { return rng.NormFloat64() * 1e6 },
		"heavy": func() float64 {
			return math.Copysign(math.Exp(rng.Float64()*20), rng.NormFloat64())
		},
	}
}

func TestKLLQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 5000
	for name, draw := range kllDistributions(rng) {
		k := NewKLL()
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
			k.Add(xs[i])
		}
		sort.Float64s(xs)
		for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			rank := int(math.Round(q * float64(n-1)))
			exact := xs[rank]
			got := k.Quantile(q)
			// The dyadic grid guarantees relative error ≤ ~1/(2·res);
			// allow 1.5/res to cover the bucket-midpoint convention.
			tol := math.Abs(exact)*1.5/kllResolution + 1e-12
			if math.Abs(got-exact) > tol {
				t.Errorf("%s q=%v: sketch %v, exact %v (tol %v)", name, q, got, exact, tol)
			}
		}
		if k.Quantile(0) != xs[0] || k.Quantile(1) != xs[n-1] {
			t.Errorf("%s: extremes not exact", name)
		}
	}
}

func TestKLLQuantileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	k := NewKLL()
	for i := 0; i < 2000; i++ {
		k.Add(rng.NormFloat64() * 100)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := k.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone: q=%v gives %v after %v", q, v, prev)
		}
		prev = v
	}
}

// TestKLLMergeBitEqualUnion pins the heart of the distributed
// determinism contract: merging shard sketches in shard order yields a
// state bit-identical to one sketch fed the union stream — and because
// the state is canonical in the multiset, merge order and merge tree
// shape don't matter either.
func TestKLLMergeBitEqualUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 10, 64, 65, 200, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
		}
		union := NewKLL()
		for _, x := range xs {
			union.Add(x)
		}
		want := kllBytes(t, union)
		for _, shards := range []int{1, 2, 3, 5} {
			parts := make([]*KLL, shards)
			for i := range parts {
				parts[i] = NewKLL()
			}
			for i, x := range xs {
				parts[i%shards].Add(x)
			}
			// Merge in shard order.
			merged := NewKLL()
			for _, p := range parts {
				if err := merged.Merge(p); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(kllBytes(t, merged), want) {
				t.Fatalf("n=%d shards=%d: merged state != union state", n, shards)
			}
			// Reversed merge order (commutativity).
			rev := NewKLL()
			for i := shards - 1; i >= 0; i-- {
				if err := rev.Merge(parts[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(kllBytes(t, rev), want) {
				t.Fatalf("n=%d shards=%d: reversed merge differs", n, shards)
			}
			// Tree merge (associativity): merge pairs first.
			if shards >= 3 {
				left := NewKLL()
				left.Merge(parts[0])
				left.Merge(parts[1])
				right := NewKLL()
				for _, p := range parts[2:] {
					right.Merge(p)
				}
				tree := NewKLL()
				tree.Merge(left)
				tree.Merge(right)
				if !bytes.Equal(kllBytes(t, tree), want) {
					t.Fatalf("n=%d shards=%d: tree merge differs", n, shards)
				}
			}
		}
	}
}

func TestKLLMergeDoesNotMutateOperand(t *testing.T) {
	a, b := NewKLL(), NewKLL()
	for i := 0; i < 100; i++ {
		a.Add(float64(i))
		b.Add(float64(i) * 2)
	}
	before := kllBytes(t, b)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(kllBytes(t, b), before) {
		t.Fatal("Merge mutated its operand")
	}
	clone := a.Clone()
	clone.Add(1e9)
	if clone.Count() == a.Count() {
		t.Fatal("Clone shares state with the original")
	}
}

func TestKLLSerializationRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 3, 64, 500} {
		k := NewKLL()
		for i := 0; i < n; i++ {
			k.Add(rng.NormFloat64() * 100)
		}
		k.Add(math.NaN()) // nans must round-trip too

		bin := kllBytes(t, k)
		var fromBin KLL
		if err := fromBin.UnmarshalBinary(bin); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(kllBytes(t, &fromBin), bin) {
			t.Fatalf("n=%d: binary round trip not bit-equal", n)
		}

		js, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		js2, _ := json.Marshal(k)
		if !bytes.Equal(js, js2) {
			t.Fatalf("n=%d: JSON encoding not deterministic", n)
		}
		var fromJSON KLL
		if err := json.Unmarshal(js, &fromJSON); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(kllBytes(t, &fromJSON), bin) {
			t.Fatalf("n=%d: JSON round trip not bit-equal to binary form", n)
		}
	}
}

func TestKLLSerializationRejectsGarbage(t *testing.T) {
	var k KLL
	if err := k.UnmarshalBinary([]byte("nope")); err == nil {
		t.Fatal("bad magic accepted")
	}
	good := NewKLL()
	good.Add(1)
	buf := kllBytes(t, good)
	if err := k.UnmarshalBinary(buf[:len(buf)-3]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if err := json.Unmarshal([]byte(`{"v":99,"count":0,"min":0,"max":0}`), &k); err == nil {
		t.Fatal("future version accepted")
	}
	if err := json.Unmarshal([]byte(`{"v":1,"count":3,"min":0,"max":0,"xs":[1]}`), &k); err == nil {
		t.Fatal("inconsistent count accepted")
	}
	if err := json.Unmarshal([]byte(`{"v":1,"count":100,"min":0,"max":1,"bucketed":true,"pos":[[0,5]]}`), &k); err == nil {
		t.Fatal("bucket counts that do not sum to count accepted")
	}
}

func TestKLLSpecialInputs(t *testing.T) {
	k := NewKLL()
	k.Add(math.NaN())
	k.Add(math.Inf(1))
	k.Add(math.Inf(-1))
	k.Add(math.Copysign(0, -1))
	if k.Count() != 3 || k.NaNs() != 1 {
		t.Fatalf("count = %d nans = %d, want 3 and 1", k.Count(), k.NaNs())
	}
	if k.Max() != math.MaxFloat64 || k.Min() != -math.MaxFloat64 {
		t.Fatalf("infinities not clamped: min=%v max=%v", k.Min(), k.Max())
	}
	if math.Signbit(k.Quantile(0.5)) {
		t.Fatal("-0 was not normalized to +0")
	}
}

func TestKLLKSDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b, c := NewKLL(), NewKLL(), NewKLL()
	for i := 0; i < 3000; i++ {
		a.Add(rng.NormFloat64())
		b.Add(rng.NormFloat64())
		c.Add(rng.NormFloat64() + 50) // disjoint support
	}
	if d := KSDistance(a, a); d != 0 {
		t.Fatalf("KS(a,a) = %v, want 0", d)
	}
	if d := KSDistance(a, b); d > 0.08 {
		t.Fatalf("KS of same-distribution samples = %v, want small", d)
	}
	if d := KSDistance(a, c); d != 1 {
		t.Fatalf("KS of disjoint samples = %v, want 1", d)
	}
	if d := KSDistance(a, NewKLL()); d != 0 {
		t.Fatalf("KS vs empty = %v, want 0", d)
	}

	// Bit-equality of the statistic under sharding: KS(merged, ref)
	// must equal KS(union, ref) exactly, since the sketches are.
	shards := []*KLL{NewKLL(), NewKLL(), NewKLL()}
	union := NewKLL()
	for i := 0; i < 2000; i++ {
		v := rng.NormFloat64() * 3
		union.Add(v)
		shards[i%3].Add(v)
	}
	merged := NewKLL()
	for _, s := range shards {
		merged.Merge(s)
	}
	du, dm := KSDistance(union, a), KSDistance(merged, a)
	if math.Float64bits(du) != math.Float64bits(dm) {
		t.Fatalf("KS(union)=%v != KS(merged)=%v", du, dm)
	}
}

// FuzzKLLMerge is the satellite fuzz target: arbitrary byte streams
// become float64 observations (NaN and ±Inf included), are split across
// a fuzzer-chosen shard count, and the merged sketch must be BIT-EQUAL
// to the union-stream sketch — a stronger property than the rank-error
// bound the ISSUE asks for — while both serializations round-trip
// bit-exactly.
func FuzzKLLMerge(f *testing.F) {
	seed := make([]byte, 0, 64)
	for _, v := range []float64{0, 1, -1, 0.5, math.Pi, 1e300, -1e-300, math.Inf(1), math.NaN()} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		seed = append(seed, b[:]...)
	}
	f.Add(seed, uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, shardByte uint8) {
		shards := 1 + int(shardByte%5)
		union := NewKLL()
		parts := make([]*KLL, shards)
		for i := range parts {
			parts[i] = NewKLL()
		}
		n := 0
		for i := 0; i+8 <= len(data) && n < 4096; i += 8 {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[i : i+8]))
			union.Add(v)
			parts[n%shards].Add(v)
			n++
		}
		merged := NewKLL()
		for _, p := range parts {
			if err := merged.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		want := kllBytes(t, union)
		if !bytes.Equal(kllBytes(t, merged), want) {
			t.Fatal("merged sketch not bit-equal to union-stream sketch")
		}
		if merged.Count() != union.Count() || merged.NaNs() != union.NaNs() {
			t.Fatalf("counts diverged: %d/%d vs %d/%d",
				merged.Count(), merged.NaNs(), union.Count(), union.NaNs())
		}

		// Serialization round-trips bit-equal.
		var back KLL
		if err := back.UnmarshalBinary(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kllBytes(t, &back), want) {
			t.Fatal("binary round trip not bit-equal")
		}
		js, err := json.Marshal(union)
		if err != nil {
			t.Fatal(err)
		}
		var fromJSON KLL
		if err := json.Unmarshal(js, &fromJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kllBytes(t, &fromJSON), want) {
			t.Fatal("JSON round trip not bit-equal")
		}

		// Quantiles stay inside [min,max] and monotone in q.
		if union.Count() > 0 {
			prev := math.Inf(-1)
			for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
				v := union.Quantile(q)
				if v < union.Min() || v > union.Max() {
					t.Fatalf("q=%v estimate %v outside [%v,%v]", q, v, union.Min(), union.Max())
				}
				if v < prev {
					t.Fatalf("quantiles not monotone at q=%v", q)
				}
				prev = v
			}
		}
	})
}

// FuzzKLLRoundTrip aims arbitrary bytes at the two decoders the
// /federate path exposes to the network. Garbage must be rejected with
// an error, never a panic; anything the decoder accepts must re-encode
// to the same canonical bytes (so a scraped sketch re-exported by an
// aggregator-of-aggregators is unchanged) and answer quantile queries
// without panicking.
func FuzzKLLRoundTrip(f *testing.F) {
	k := NewKLL()
	for i := 0; i < 200; i++ {
		k.Add(float64(i) * 1.7)
	}
	wire, err := k.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	js, err := json.Marshal(k)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add(js)
	f.Add([]byte{})
	f.Add([]byte(`{"count":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			t.Skip("decoder behavior is covered by small inputs; keep minimization cheap")
		}
		var fromBin KLL
		if err := fromBin.UnmarshalBinary(data); err == nil {
			out, err := fromBin.MarshalBinary()
			if err != nil {
				t.Fatalf("accepted binary input failed to re-encode: %v", err)
			}
			var again KLL
			if err := again.UnmarshalBinary(out); err != nil {
				t.Fatalf("re-encoded sketch rejected: %v", err)
			}
			if !bytes.Equal(kllBytes(t, &again), out) {
				t.Fatal("binary form not canonical after round trip")
			}
			_ = fromBin.Quantile(0.99)
			checkKLLJSON(t, &fromBin)
		}
		var fromJSON KLL
		if err := json.Unmarshal(data, &fromJSON); err == nil {
			out, err := json.Marshal(&fromJSON)
			if err != nil {
				t.Fatalf("accepted JSON input failed to re-encode: %v", err)
			}
			var again KLL
			if err := json.Unmarshal(out, &again); err != nil {
				t.Fatalf("re-encoded JSON rejected: %v", err)
			}
			out2, err := json.Marshal(&again)
			if err != nil || !bytes.Equal(out2, out) {
				t.Fatalf("JSON form not canonical after round trip (err %v)", err)
			}
			_ = fromJSON.Quantile(0.5)
			checkKLLJSON(t, &fromJSON)
		}
	})
}
