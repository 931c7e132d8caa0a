package stats

// kll.go: KLL, the mergeable quantile sketch behind the fleet-scale
// drift timeline. The classic KLL sketch (Karnin, Lang & Liberty 2016)
// compacts level buffers by randomized (or adaptively seeded)
// subsampling, which makes the merged state depend on merge order — a
// non-starter here, because DESIGN.md extends the determinism contract
// to distribution: merge(shard₁..shardₙ) must be BIT-EQUAL to a single
// node observing the union stream. Any lossy compaction scheme whose
// output depends on arrival or merge order breaks that, so this KLL
// keeps the KLL interface (Add/Quantile/Merge, bounded memory,
// guaranteed rank error) on top of a canonical structure: the sketch
// state is a pure function of the observed multiset.
//
// Two regimes:
//
//   - exact (≤ kllCutover samples): a sorted slice of the raw values —
//     tiny windows report exact order statistics, which the timeline
//     tests and dashboards rely on.
//   - bucketed (> kllCutover): counts over a fixed dyadic grid with
//     kllResolution sub-buckets per power of two. The bucket of a value
//     depends only on its bits (Frexp + exact mantissa arithmetic), so
//     bucketize(multiset) is pointwise and order-free, and merging is
//     integer count addition — associative, commutative, and bit-exact.
//
// The price of determinism is a fixed relative resolution instead of
// KLL's distribution-adaptive one: quantiles carry relative error
// ≤ 1/(2·kllResolution) ≈ 0.4% of the value (exact at the extremes,
// which are tracked separately). That is far tighter than the drift
// thresholds consuming these numbers.
//
// NaN inputs are counted but excluded; ±Inf are clamped to
// ±math.MaxFloat64; -0 is normalized to +0. All three rules are
// pointwise, preserving canonicality — and keeping every field JSON-
// representable.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

const (
	// kllResolution is the number of sub-buckets per power of two. It
	// must be a power of two so the mantissa→sub-bucket arithmetic is
	// exact in floating point. 128 gives ≤0.4% relative quantile error.
	kllResolution = 128
	// kllCutover is the largest sample count kept exactly; one sample
	// more and the sketch converts to the bucketed regime.
	kllCutover = 64
	// kllVersion tags the serialized forms.
	kllVersion = 1
)

// KLL is a deterministic mergeable quantile sketch. The zero value is
// an empty, usable sketch. Not safe for concurrent use.
type KLL struct {
	count    int64 // finite observations (after clamping/normalizing)
	nans     int64 // NaN inputs, excluded from count
	min, max float64

	// exact regime
	xs []float64 // sorted raw values; nil once bucketed

	// bucketed regime
	bucketed bool
	zero     int64
	neg, pos map[int32]int64 // bucket index (of |v|) → count
}

// NewKLL returns an empty sketch.
func NewKLL() *KLL { return &KLL{} }

// bucketIndex maps a positive finite v to its dyadic bucket. With
// v = f·2^e, f ∈ [0.5,1), the sub-bucket is ⌊(f−0.5)·2·res⌋: f−0.5 is
// exact (Sterbenz), and the scale is a power of two, so the index is a
// pure function of the bits of v on any IEEE-754 platform.
func bucketIndex(v float64) int32 {
	f, e := math.Frexp(v)
	sub := int32((f - 0.5) * (2 * kllResolution))
	return int32(e)*kllResolution + sub
}

// bucketValue returns the canonical representative (geometric midpoint
// of the mantissa range) of a positive bucket index.
func bucketValue(idx int32) float64 {
	e := idx / kllResolution
	sub := idx % kllResolution
	if sub < 0 { // floor division for negative exponents
		sub += kllResolution
		e--
	}
	m := 0.5 + (float64(sub)+0.5)/(2*kllResolution)
	return math.Ldexp(m, int(e))
}

// normalize applies the pointwise input rules shared by Add and the
// serialization validators.
func normalize(x float64) (float64, bool) {
	if math.IsNaN(x) {
		return 0, false
	}
	switch {
	case math.IsInf(x, 1):
		x = math.MaxFloat64
	case math.IsInf(x, -1):
		x = -math.MaxFloat64
	case x == 0:
		x = 0 // collapse -0 to +0
	}
	return x, true
}

// Add consumes one observation.
func (k *KLL) Add(x float64) {
	x, ok := normalize(x)
	if !ok {
		k.nans++
		return
	}
	if k.count == 0 || x < k.min {
		k.min = x
	}
	if k.count == 0 || x > k.max {
		k.max = x
	}
	k.count++
	if !k.bucketed {
		i := sort.SearchFloat64s(k.xs, x)
		k.xs = append(k.xs, 0)
		copy(k.xs[i+1:], k.xs[i:])
		k.xs[i] = x
		if len(k.xs) > kllCutover {
			k.toBuckets()
		}
		return
	}
	k.bucketAdd(x, 1)
}

// toBuckets converts the exact regime to the bucketed one. Bucketizing
// is pointwise, so the result depends only on the multiset, not on
// when the cutover happened.
func (k *KLL) toBuckets() {
	k.bucketed = true
	k.neg = map[int32]int64{}
	k.pos = map[int32]int64{}
	for _, x := range k.xs {
		k.bucketAdd(x, 1)
	}
	k.xs = nil
}

func (k *KLL) bucketAdd(x float64, n int64) {
	switch {
	case x == 0:
		k.zero += n
	case x > 0:
		k.pos[bucketIndex(x)] += n
	default:
		k.neg[bucketIndex(-x)] += n
	}
}

// Count returns the number of (finite) observations consumed.
func (k *KLL) Count() int { return int(k.count) }

// NaNs returns the number of NaN inputs that were dropped.
func (k *KLL) NaNs() int { return int(k.nans) }

// Min returns the exact minimum (0 for an empty sketch).
func (k *KLL) Min() float64 { return k.min }

// Max returns the exact maximum (0 for an empty sketch).
func (k *KLL) Max() float64 { return k.max }

// kllBucket is one (index, count) pair in value order.
type kllBucket struct {
	idx int32
	n   int64
}

// sortedBuckets returns the map's buckets ordered by ascending index.
func sortedBuckets(m map[int32]int64) []kllBucket {
	out := make([]kllBucket, 0, len(m))
	for idx, n := range m {
		out = append(out, kllBucket{idx, n})
	}
	slices.SortFunc(out, func(a, b kllBucket) int { return cmp.Compare(a.idx, b.idx) })
	return out
}

func clampRange(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Quantile returns the q-quantile estimate for q in [0,1], using the
// rank convention k = round(q·(n−1)). Exact below the cutover; within
// the bucket resolution above it. q=0 and q=1 are always exact.
func (k *KLL) Quantile(q float64) float64 {
	var out [1]float64
	return k.Quantiles([]float64{q}, out[:0])[0]
}

// Quantiles appends the estimate for each q in qs to out and returns
// the extended slice. It orders the buckets once and answers every q
// from that one ordering; each estimate is bit-identical to
// Quantile(q).
func (k *KLL) Quantiles(qs, out []float64) []float64 {
	var steps []kllStep // built on the first rank that needs the buckets
	for _, q := range qs {
		out = append(out, k.quantile(q, &steps))
	}
	return out
}

// kllStep is one support point of a bucketed sketch in value order:
// its representative value and the count of observations at or below
// it.
type kllStep struct {
	v   float64
	cum int64
}

func (k *KLL) quantile(q float64, steps *[]kllStep) float64 {
	if k.count == 0 {
		return 0
	}
	if q <= 0 {
		return k.min
	}
	if q >= 1 {
		return k.max
	}
	rank := int64(math.Round(q * float64(k.count-1)))
	if !k.bucketed {
		return k.xs[rank]
	}
	if rank == 0 {
		return k.min
	}
	if rank == k.count-1 {
		return k.max
	}
	if *steps == nil {
		*steps = k.steps()
	}
	s := *steps
	i := sort.Search(len(s), func(i int) bool { return s[i].cum > rank })
	if i == len(s) {
		return k.max
	}
	return clampRange(s[i].v, k.min, k.max)
}

// steps orders a bucketed sketch's buckets by value: negatives, then
// zero, then positives.
func (k *KLL) steps() []kllStep {
	out := make([]kllStep, 0, len(k.neg)+len(k.pos)+1)
	var c int64
	negs := sortedBuckets(k.neg)
	for i := len(negs) - 1; i >= 0; i-- { // descending |v| index = ascending value
		c += negs[i].n
		out = append(out, kllStep{-bucketValue(negs[i].idx), c})
	}
	c += k.zero
	out = append(out, kllStep{0, c})
	for _, b := range sortedBuckets(k.pos) {
		c += b.n
		out = append(out, kllStep{bucketValue(b.idx), c})
	}
	return out
}

// Merge folds o into k. Merging is associative and commutative in the
// strongest sense: the resulting state is bit-identical to a single
// sketch fed the union multiset, whatever the partition. o is not
// modified. The error return exists for wire-level use (it never fires
// for in-process sketches).
func (k *KLL) Merge(o *KLL) error {
	if o == nil {
		return nil
	}
	k.nans += o.nans
	if o.count == 0 {
		return nil
	}
	if k.count == 0 || o.min < k.min {
		k.min = o.min
	}
	if k.count == 0 || o.max > k.max {
		k.max = o.max
	}
	total := k.count + o.count
	if !k.bucketed && !o.bucketed && total <= kllCutover {
		merged := make([]float64, 0, total)
		merged = append(merged, k.xs...)
		merged = append(merged, o.xs...)
		sort.Float64s(merged)
		k.xs = merged
		k.count = total
		return nil
	}
	if !k.bucketed {
		k.toBuckets()
	}
	if o.bucketed {
		k.zero += o.zero
		for idx, n := range o.neg {
			k.neg[idx] += n
		}
		for idx, n := range o.pos {
			k.pos[idx] += n
		}
	} else {
		for _, x := range o.xs {
			k.bucketAdd(x, 1)
		}
	}
	k.count = total
	return nil
}

// Clone returns a deep copy.
func (k *KLL) Clone() *KLL {
	c := &KLL{count: k.count, nans: k.nans, min: k.min, max: k.max, bucketed: k.bucketed, zero: k.zero}
	if k.xs != nil {
		c.xs = append([]float64(nil), k.xs...)
	}
	if k.bucketed {
		c.neg = make(map[int32]int64, len(k.neg))
		for idx, n := range k.neg {
			c.neg[idx] = n
		}
		c.pos = make(map[int32]int64, len(k.pos))
		for idx, n := range k.pos {
			c.pos[idx] = n
		}
	}
	return c
}

// supports returns the sketch's support points (ascending, unique) and
// their counts — the empirical distribution the sketch represents.
func (k *KLL) supports() ([]float64, []int64) {
	if !k.bucketed {
		var vs []float64
		var ns []int64
		for _, x := range k.xs {
			if len(vs) > 0 && vs[len(vs)-1] == x {
				ns[len(ns)-1]++
				continue
			}
			vs = append(vs, x)
			ns = append(ns, 1)
		}
		return vs, ns
	}
	vs := make([]float64, 0, len(k.neg)+len(k.pos)+1)
	ns := make([]int64, 0, cap(vs))
	negs := sortedBuckets(k.neg)
	for i := len(negs) - 1; i >= 0; i-- {
		vs = append(vs, -bucketValue(negs[i].idx))
		ns = append(ns, negs[i].n)
	}
	if k.zero > 0 {
		vs = append(vs, 0)
		ns = append(ns, k.zero)
	}
	for _, b := range sortedBuckets(k.pos) {
		vs = append(vs, bucketValue(b.idx))
		ns = append(ns, b.n)
	}
	return vs, ns
}

// KSDistance returns the two-sample Kolmogorov–Smirnov statistic
// sup|F_a − F_b| between the empirical distributions of two sketches
// (0 when either is empty). Because the sketches are canonical, the
// statistic computed from merged shard sketches is bit-identical to
// the single-node value — the "drift-test sufficient statistics" the
// federation layer ships instead of raw samples.
func KSDistance(a, b *KLL) float64 {
	if a == nil || b == nil || a.count == 0 || b.count == 0 {
		return 0
	}
	va, ca := a.supports()
	vb, cb := b.supports()
	na, nb := float64(a.count), float64(b.count)
	var cumA, cumB int64
	var d float64
	i, j := 0, 0
	for i < len(va) || j < len(vb) {
		var v float64
		switch {
		case j >= len(vb):
			v = va[i]
		case i >= len(va):
			v = vb[j]
		case va[i] <= vb[j]:
			v = va[i]
		default:
			v = vb[j]
		}
		if i < len(va) && va[i] == v {
			cumA += ca[i]
			i++
		}
		if j < len(vb) && vb[j] == v {
			cumB += cb[j]
			j++
		}
		// Divide integer cumulative counts so the CDFs hit 0 and 1
		// exactly instead of drifting through float accumulation.
		if diff := math.Abs(float64(cumA)/na - float64(cumB)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// kllJSON is the canonical JSON wire form: field order is fixed by the
// struct, bucket arrays are ascending by index, so identical sketch
// states serialize to identical bytes.
type kllJSON struct {
	V        int        `json:"v"`
	Count    int64      `json:"count"`
	NaNs     int64      `json:"nans,omitempty"`
	Min      float64    `json:"min"`
	Max      float64    `json:"max"`
	Xs       []float64  `json:"xs,omitempty"`
	Bucketed bool       `json:"bucketed,omitempty"`
	Zero     int64      `json:"zero,omitempty"`
	Neg      [][2]int64 `json:"neg,omitempty"` // [bucket index, count]
	Pos      [][2]int64 `json:"pos,omitempty"`
}

// MarshalJSON encodes the sketch canonically.
func (k *KLL) MarshalJSON() ([]byte, error) {
	out := kllJSON{V: kllVersion, Count: k.count, NaNs: k.nans, Min: k.min, Max: k.max, Bucketed: k.bucketed, Zero: k.zero}
	if !k.bucketed {
		out.Xs = k.xs
	} else {
		for _, b := range sortedBuckets(k.neg) {
			out.Neg = append(out.Neg, [2]int64{int64(b.idx), b.n})
		}
		for _, b := range sortedBuckets(k.pos) {
			out.Pos = append(out.Pos, [2]int64{int64(b.idx), b.n})
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON restores a sketch serialized by MarshalJSON, validating
// structural invariants so malformed federation payloads fail loudly.
func (k *KLL) UnmarshalJSON(buf []byte) error {
	var in kllJSON
	if err := json.Unmarshal(buf, &in); err != nil {
		return err
	}
	if in.V != kllVersion {
		return fmt.Errorf("stats: sketch version %d, want %d", in.V, kllVersion)
	}
	r := &KLL{count: in.Count, nans: in.NaNs, min: in.Min, max: in.Max, bucketed: in.Bucketed, zero: in.Zero}
	if !in.Bucketed {
		if int64(len(in.Xs)) != in.Count {
			return fmt.Errorf("stats: exact sketch has %d values for count %d", len(in.Xs), in.Count)
		}
		if !sort.Float64sAreSorted(in.Xs) {
			return fmt.Errorf("stats: exact sketch values not sorted")
		}
		if len(in.Xs) > 0 {
			r.xs = append([]float64(nil), in.Xs...)
		}
	} else {
		r.neg = map[int32]int64{}
		r.pos = map[int32]int64{}
		total := in.Zero
		for _, side := range [][][2]int64{in.Neg, in.Pos} {
			for _, b := range side {
				if b[1] <= 0 || b[0] < math.MinInt32 || b[0] > math.MaxInt32 {
					return fmt.Errorf("stats: invalid sketch bucket %v", b)
				}
				total += b[1]
			}
		}
		if total != in.Count {
			return fmt.Errorf("stats: sketch bucket counts sum to %d, want %d", total, in.Count)
		}
		for _, b := range in.Neg {
			r.neg[int32(b[0])] = b[1]
		}
		for _, b := range in.Pos {
			r.pos[int32(b[0])] = b[1]
		}
	}
	*k = *r
	return nil
}

var kllMagic = [4]byte{'K', 'L', 'S', kllVersion}

// MarshalBinary encodes the sketch in a compact deterministic binary
// form (little-endian, buckets ascending by index).
func (k *KLL) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(kllMagic[:])
	var flags byte
	if k.bucketed {
		flags |= 1
	}
	buf.WriteByte(flags)
	writeU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	writeU32 := func(v uint32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
	writeU64(uint64(k.count))
	writeU64(uint64(k.nans))
	writeU64(math.Float64bits(k.min))
	writeU64(math.Float64bits(k.max))
	if !k.bucketed {
		writeU32(uint32(len(k.xs)))
		for _, x := range k.xs {
			writeU64(math.Float64bits(x))
		}
		return buf.Bytes(), nil
	}
	writeU64(uint64(k.zero))
	for _, m := range []map[int32]int64{k.neg, k.pos} {
		bs := sortedBuckets(m)
		writeU32(uint32(len(bs)))
		for _, b := range bs {
			writeU32(uint32(b.idx))
			writeU64(uint64(b.n))
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (k *KLL) UnmarshalBinary(data []byte) error {
	rd := bytes.NewReader(data)
	var magic [4]byte
	if _, err := io.ReadFull(rd, magic[:]); err != nil || magic != kllMagic {
		return fmt.Errorf("stats: bad sketch header")
	}
	flags, err := rd.ReadByte()
	if err != nil {
		return err
	}
	readU64 := func() (uint64, error) {
		var b [8]byte
		if _, err := io.ReadFull(rd, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(b[:]), nil
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(rd, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	r := &KLL{bucketed: flags&1 != 0}
	fields := []*int64{&r.count, &r.nans}
	for _, f := range fields {
		v, err := readU64()
		if err != nil {
			return err
		}
		*f = int64(v)
	}
	for _, f := range []*float64{&r.min, &r.max} {
		v, err := readU64()
		if err != nil {
			return err
		}
		*f = math.Float64frombits(v)
	}
	if !r.bucketed {
		n, err := readU32()
		if err != nil {
			return err
		}
		if int64(n) != r.count || n > kllCutover {
			return fmt.Errorf("stats: exact sketch has %d values for count %d", n, r.count)
		}
		for i := uint32(0); i < n; i++ {
			v, err := readU64()
			if err != nil {
				return err
			}
			r.xs = append(r.xs, math.Float64frombits(v))
		}
		if !sort.Float64sAreSorted(r.xs) {
			return fmt.Errorf("stats: exact sketch values not sorted")
		}
	} else {
		z, err := readU64()
		if err != nil {
			return err
		}
		r.zero = int64(z)
		total := r.zero
		r.neg = map[int32]int64{}
		r.pos = map[int32]int64{}
		for _, m := range []map[int32]int64{r.neg, r.pos} {
			n, err := readU32()
			if err != nil {
				return err
			}
			for i := uint32(0); i < n; i++ {
				idx, err := readU32()
				if err != nil {
					return err
				}
				cnt, err := readU64()
				if err != nil {
					return err
				}
				if int64(cnt) <= 0 {
					return fmt.Errorf("stats: invalid sketch bucket count %d", int64(cnt))
				}
				m[int32(idx)] = int64(cnt)
				total += int64(cnt)
			}
		}
		if total != r.count {
			return fmt.Errorf("stats: sketch bucket counts sum to %d, want %d", total, r.count)
		}
	}
	if rd.Len() != 0 {
		return fmt.Errorf("stats: %d trailing bytes after sketch", rd.Len())
	}
	*k = *r
	return nil
}
