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
//     The counts of each sign are kept as (index, count) slices in
//     ascending index order, so every reader (quantiles, KS, the wire
//     forms) walks them in order and a merge is one pass from the back.
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
	"strconv"

	"blackboxval/internal/jsonenc"
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
	xs []float64 // sorted raw values; empty once bucketed

	// bucketed regime
	bucketed bool
	zero     int64
	b        *kllBuckets // non-nil once bucketed; kept by Reset
}

// kllBuckets holds a bucketed sketch's counts behind one pointer, so a
// KLL stays in its allocation size class: exact-regime sketches — most
// windows' — carry 8 bytes for it, not two slice headers.
type kllBuckets struct {
	// neg and pos are the buckets of |v| of each sign, ascending by
	// index, every count above 0.
	neg, pos []kllBucket
	// keys, runs and hist are AddAll's scratch: a batch's bucket
	// indices, their run-length counts, and the histogram that counts
	// them (all zero between calls). Clones and the wire forms never
	// carry them.
	keys []int32
	runs []kllBucket
	hist []uint32
}

// kllBucket is one (index, count) pair.
type kllBucket struct {
	idx int32
	n   int64
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

// observe updates the count and the extremes for a normalized x.
func (k *KLL) observe(x float64) {
	if k.count == 0 || x < k.min {
		k.min = x
	}
	if k.count == 0 || x > k.max {
		k.max = x
	}
	k.count++
}

// Add consumes one observation.
func (k *KLL) Add(x float64) {
	x, ok := normalize(x)
	if !ok {
		k.nans++
		return
	}
	k.observe(x)
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
	switch {
	case x == 0:
		k.zero++
	case x > 0:
		k.b.pos = addBucket(k.b.pos, bucketIndex(x))
	default:
		k.b.neg = addBucket(k.b.neg, bucketIndex(-x))
	}
}

// addBucket counts one observation of bucket idx in bs: an append when
// idx is past the last bucket, else a binary search and an insert.
func addBucket(bs []kllBucket, idx int32) []kllBucket {
	if n := len(bs); n == 0 || idx > bs[n-1].idx {
		return append(bs, kllBucket{idx, 1})
	}
	i, found := slices.BinarySearchFunc(bs, idx, func(b kllBucket, idx int32) int { return cmp.Compare(b.idx, idx) })
	if found {
		bs[i].n++
		return bs
	}
	return slices.Insert(bs, i, kllBucket{idx, 1})
}

// AddAll consumes a batch of observations. The state afterwards equals
// that of calling Add on each in turn, but in the bucketed regime the
// batch's bucket indices are counted into runs once and merged in one
// pass, so a batch costs one walk of the buckets rather than one
// binary-search insert per value.
func (k *KLL) AddAll(xs []float64) {
	if !k.bucketed {
		finite := k.count
		for _, x := range xs {
			if !math.IsNaN(x) {
				finite++
			}
		}
		if finite <= kllCutover {
			for _, x := range xs {
				k.Add(x)
			}
			return
		}
		k.toBuckets() // bucketing is pointwise: converting early changes nothing
	}
	b := k.b
	keys := slices.Grow(b.keys[:0], len(xs))[:len(xs)]
	p, q := 0, len(keys) // positive values' indices fill keys[:p], negative ones' keys[q:]
	for _, x := range xs {
		x, ok := normalize(x)
		if !ok {
			k.nans++
			continue
		}
		k.observe(x)
		switch {
		case x == 0:
			k.zero++
		case x > 0:
			keys[p] = bucketIndex(x)
			p++
		default:
			q--
			keys[q] = bucketIndex(-x)
		}
	}
	b.runs = b.countRuns(keys[q:])
	b.neg = mergeBuckets(b.neg, b.runs)
	b.runs = b.countRuns(keys[:p])
	b.pos = mergeBuckets(b.pos, b.runs)
	b.keys = keys
}

// countRuns returns the run-length counts of the bucket indices keys,
// ascending, in the runs scratch. Indices that span a narrow range —
// a batch drawn from a few binades, the usual case — are counted in a
// histogram; others are sorted.
func (b *kllBuckets) countRuns(keys []int32) []kllBucket {
	runs := b.runs[:0]
	if len(keys) == 0 {
		return runs
	}
	lo, hi := keys[0], keys[0]
	for _, key := range keys[1:] {
		lo, hi = min(lo, key), max(hi, key)
	}
	span := int(hi-lo) + 1
	if span > 4*len(keys)+16*kllResolution {
		slices.Sort(keys)
		for _, key := range keys {
			runs = appendRun(runs, key)
		}
		return runs
	}
	if cap(b.hist) < span {
		b.hist = make([]uint32, span)
	}
	hist := b.hist[:span] // all zero between calls
	for _, key := range keys {
		hist[key-lo]++
	}
	for i, n := range hist {
		if n > 0 {
			runs = append(runs, kllBucket{lo + int32(i), int64(n)})
			hist[i] = 0
		}
	}
	return runs
}

// appendRun counts one observation of idx, which is at or past the last
// run's index.
func appendRun(runs []kllBucket, idx int32) []kllBucket {
	if n := len(runs); n > 0 && runs[n-1].idx == idx {
		runs[n-1].n++
		return runs
	}
	return append(runs, kllBucket{idx, 1})
}

// mergeBuckets adds the counts of src into dst (both ascending by index,
// indices unique) and returns the union. It merges in place from the
// back, growing dst only when the union outgrows its capacity.
func mergeBuckets(dst, src []kllBucket) []kllBucket {
	if len(src) == 0 {
		return dst
	}
	u := len(dst) // the union's length: dst plus src's new indices
	for i, j := 0, 0; j < len(src); {
		switch {
		case i == len(dst):
			u += len(src) - j
			j = len(src)
		case src[j].idx < dst[i].idx:
			u++
			j++
		case src[j].idx == dst[i].idx:
			i++
			j++
		default:
			i++
		}
	}
	i, j := len(dst)-1, len(src)-1
	dst = slices.Grow(dst, u-len(dst))[:u]
	for w := u - 1; j >= 0; w-- {
		switch {
		case i >= 0 && dst[i].idx > src[j].idx:
			dst[w] = dst[i]
			i--
		case i >= 0 && dst[i].idx == src[j].idx:
			dst[w] = kllBucket{dst[i].idx, dst[i].n + src[j].n}
			i--
			j--
		default:
			dst[w] = src[j]
			j--
		}
	}
	return dst
}

// toBuckets converts the exact regime to the bucketed one. Bucketizing
// is pointwise, so the result depends only on the multiset, not on
// when the cutover happened. The buckets and the value slice a Reset
// kept are reused (outside the bucketed regime the buckets are empty).
func (k *KLL) toBuckets() {
	k.bucketed = true
	if k.b == nil {
		k.b = &kllBuckets{}
	}
	k.addSorted(k.xs)
	k.xs = k.xs[:0]
}

// addSorted folds ascending normalized values into the buckets.
// Negative values ascend by value, so descend by bucket index: they
// are walked backwards.
func (k *KLL) addSorted(xs []float64) {
	b := k.b
	lo := sort.SearchFloat64s(xs, 0) // first value ≥ 0
	hi := lo
	for hi < len(xs) && xs[hi] == 0 {
		hi++
	}
	k.zero += int64(hi - lo)
	b.runs = b.runs[:0]
	for i := lo - 1; i >= 0; i-- {
		b.runs = appendRun(b.runs, bucketIndex(-xs[i]))
	}
	b.neg = mergeBuckets(b.neg, b.runs)
	b.runs = b.runs[:0]
	for _, x := range xs[hi:] {
		b.runs = appendRun(b.runs, bucketIndex(x))
	}
	b.pos = mergeBuckets(b.pos, b.runs)
}

// Reset empties the sketch in place, keeping its storage for the next
// stream: the state afterwards is that of NewKLL.
func (k *KLL) Reset() {
	b := k.b
	if b != nil {
		b.neg, b.pos = b.neg[:0], b.pos[:0]
	}
	*k = KLL{xs: k.xs[:0], b: b}
}

// Count returns the number of (finite) observations consumed.
func (k *KLL) Count() int { return int(k.count) }

// NaNs returns the number of NaN inputs that were dropped.
func (k *KLL) NaNs() int { return int(k.nans) }

// Min returns the exact minimum (0 for an empty sketch).
func (k *KLL) Min() float64 { return k.min }

// Max returns the exact maximum (0 for an empty sketch).
func (k *KLL) Max() float64 { return k.max }

// kllCursor walks a sketch's support in ascending value order — each
// distinct value of the exact regime, or each bucket's representative
// (and zero, when it holds observations) of the bucketed one — with its
// count: the empirical distribution KSDistance compares.
type kllCursor struct {
	k    *KLL
	part int // bucketed: 0 negatives, 1 zero, 2 positives
	i    int
	v    float64
	n    int64
}

// next advances to the next support point, reporting false past the
// last.
func (c *kllCursor) next() bool {
	k := c.k
	if !k.bucketed {
		if c.i >= len(k.xs) {
			return false
		}
		j := c.i + 1
		for j < len(k.xs) && k.xs[j] == k.xs[c.i] {
			j++
		}
		c.v, c.n, c.i = k.xs[c.i], int64(j-c.i), j
		return true
	}
	if c.part == 0 {
		if neg := k.b.neg; c.i < len(neg) { // descending |v| = ascending v
			bk := neg[len(neg)-1-c.i]
			c.v, c.n = -bucketValue(bk.idx), bk.n
			c.i++
			return true
		}
		c.part, c.i = 1, 0
		if k.zero > 0 {
			c.v, c.n = 0, k.zero
			return true
		}
	}
	c.part = 2
	if pos := k.b.pos; c.i < len(pos) {
		c.v, c.n = bucketValue(pos[c.i].idx), pos[c.i].n
		c.i++
		return true
	}
	return false
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
	// Walk the counts in value order; only the bucket that passes the
	// rank is turned into a value.
	var cum int64
	neg := k.b.neg
	for i := len(neg) - 1; i >= 0; i-- {
		if cum += neg[i].n; cum > rank {
			return clampRange(-bucketValue(neg[i].idx), k.min, k.max)
		}
	}
	if cum += k.zero; cum > rank {
		return clampRange(0, k.min, k.max)
	}
	for _, bk := range k.b.pos {
		if cum += bk.n; cum > rank {
			return clampRange(bucketValue(bk.idx), k.min, k.max)
		}
	}
	return k.max
}

// Quantiles appends the estimate for each q in qs to out and returns
// the extended slice; each estimate is Quantile(q).
func (k *KLL) Quantiles(qs, out []float64) []float64 {
	for _, q := range qs {
		out = append(out, k.Quantile(q))
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
		k.xs = append(k.xs, o.xs...)
		slices.Sort(k.xs)
		k.count = total
		return nil
	}
	if !k.bucketed {
		k.toBuckets()
	}
	if o.bucketed {
		k.zero += o.zero
		k.b.neg = mergeBuckets(k.b.neg, o.b.neg)
		k.b.pos = mergeBuckets(k.b.pos, o.b.pos)
	} else {
		k.addSorted(o.xs)
	}
	k.count = total
	return nil
}

// Clone returns a deep copy whose storage is sized to the state: the
// buckets of both signs share one exact-size array.
func (k *KLL) Clone() *KLL {
	c := &KLL{count: k.count, nans: k.nans, min: k.min, max: k.max, bucketed: k.bucketed, zero: k.zero}
	if len(k.xs) > 0 {
		c.xs = make([]float64, len(k.xs))
		copy(c.xs, k.xs)
	}
	if k.bucketed {
		c.b = newBuckets(len(k.b.neg), len(k.b.pos))
		copy(c.b.neg, k.b.neg)
		copy(c.b.pos, k.b.pos)
	}
	return c
}

// newBuckets returns buckets of nneg and npos entries carved from one
// array (the negative side capped, so appending to it cannot overwrite
// the positive side).
func newBuckets(nneg, npos int) *kllBuckets {
	all := make([]kllBucket, nneg+npos)
	return &kllBuckets{neg: all[:nneg:nneg], pos: all[nneg:]}
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
	ca, cb := kllCursor{k: a}, kllCursor{k: b}
	okA, okB := ca.next(), cb.next()
	na, nb := float64(a.count), float64(b.count)
	var cumA, cumB int64
	var d float64
	for okA || okB {
		var v float64
		switch {
		case !okB:
			v = ca.v
		case !okA:
			v = cb.v
		case ca.v <= cb.v:
			v = ca.v
		default:
			v = cb.v
		}
		if okA && ca.v == v {
			cumA += ca.n
			okA = ca.next()
		}
		if okB && cb.v == v {
			cumB += cb.n
			okB = cb.next()
		}
		// Divide integer cumulative counts so the CDFs hit 0 and 1
		// exactly instead of drifting through float accumulation.
		if diff := math.Abs(float64(cumA)/na - float64(cumB)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// kllJSON is the canonical JSON wire form, decoded by UnmarshalJSON and
// written field for field, in this order, by AppendJSON: bucket arrays
// are ascending by index, so identical sketch states serialize to
// identical bytes.
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
func (k *KLL) MarshalJSON() ([]byte, error) { return k.AppendJSON(nil) }

// AppendJSON appends the canonical JSON of the sketch to b: the bytes
// encoding/json writes for kllJSON. A nonfinite min or max is an error,
// as it is there (no sketch holds one: Add clamps infinities, and both
// decoders reject them).
func (k *KLL) AppendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, kllVersion, 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, k.count, 10)
	if k.nans != 0 {
		b = append(b, `,"nans":`...)
		b = strconv.AppendInt(b, k.nans, 10)
	}
	var err error
	b = append(b, `,"min":`...)
	if b, err = jsonenc.AppendFloat(b, k.min); err != nil {
		return nil, err
	}
	b = append(b, `,"max":`...)
	if b, err = jsonenc.AppendFloat(b, k.max); err != nil {
		return nil, err
	}
	if !k.bucketed && len(k.xs) > 0 {
		b = append(b, `,"xs":`...)
		if b, err = jsonenc.AppendFloats(b, k.xs); err != nil {
			return nil, err
		}
	}
	if k.bucketed {
		b = append(b, `,"bucketed":true`...)
	}
	if k.zero != 0 {
		b = append(b, `,"zero":`...)
		b = strconv.AppendInt(b, k.zero, 10)
	}
	if k.bucketed {
		b = appendBuckets(b, `,"neg":`, k.b.neg)
		b = appendBuckets(b, `,"pos":`, k.b.pos)
	}
	return append(b, '}'), nil
}

// appendBuckets appends key and the [index, count] pairs of bs; no
// buckets append nothing.
func appendBuckets(b []byte, key string, bs []kllBucket) []byte {
	if len(bs) == 0 {
		return b
	}
	b = append(b, key...)
	for i, bk := range bs {
		if i == 0 {
			b = append(b, "[["...)
		} else {
			b = append(b, ",["...)
		}
		b = strconv.AppendInt(b, int64(bk.idx), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, bk.n, 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

// checkShape rejects the headers of non-canonical sketches: the
// bucketed flag must agree with count > kllCutover, and an exact
// sketch holds exactly count values.
func checkShape(bucketed bool, count int64, nxs int) error {
	if bucketed != (count > kllCutover) {
		return fmt.Errorf("stats: sketch of count %d has bucketed=%v, want %v", count, bucketed, !bucketed)
	}
	if !bucketed && int64(nxs) != count {
		return fmt.Errorf("stats: exact sketch has %d values for count %d", nxs, count)
	}
	return nil
}

// checkCounts rejects negative NaN and zero counts, and zeros counted
// outside the bucketed regime (the exact regime keeps zeros in xs).
func checkCounts(bucketed bool, nans, zero int64) error {
	if nans < 0 || zero < 0 {
		return fmt.Errorf("stats: sketch has negative counts (nans %d, zero %d)", nans, zero)
	}
	if !bucketed && zero != 0 {
		return fmt.Errorf("stats: exact sketch counts %d zeros outside its values", zero)
	}
	return nil
}

// canonical reports whether x is a value Add keeps as it is: finite,
// and not -0.
func canonical(x float64) bool {
	y, ok := normalize(x)
	return ok && math.Float64bits(y) == math.Float64bits(x)
}

// checkValues rejects values and extremes no sequence of Adds produces:
// an exact sketch's values must be canonical and its min and max its
// first and last value (both +0 when it holds none); a bucketed
// sketch's min and max must be canonical, in order, and fall in its
// lowest and highest occupied bucket. Call after checkShape and
// checkBuckets.
func (k *KLL) checkValues() error {
	if !k.bucketed {
		for _, x := range k.xs {
			if !canonical(x) {
				return fmt.Errorf("stats: sketch value %v is not canonical", x)
			}
		}
		lo, hi := 0.0, 0.0
		if n := len(k.xs); n > 0 {
			lo, hi = k.xs[0], k.xs[n-1]
		}
		if math.Float64bits(k.min) != math.Float64bits(lo) || math.Float64bits(k.max) != math.Float64bits(hi) {
			return fmt.Errorf("stats: sketch extremes %v..%v disagree with its values %v..%v", k.min, k.max, lo, hi)
		}
		return nil
	}
	if !canonical(k.min) || !canonical(k.max) || k.min > k.max || !k.inLowest(k.min) || !k.inHighest(k.max) {
		return fmt.Errorf("stats: sketch extremes %v..%v fall outside its lowest and highest buckets", k.min, k.max)
	}
	return nil
}

// inLowest reports whether v falls in the bucketed sketch's lowest
// occupied bucket: the negative bucket of largest magnitude, else zero,
// else the first positive bucket.
func (k *KLL) inLowest(v float64) bool {
	switch neg := k.b.neg; {
	case len(neg) > 0:
		return v < 0 && bucketIndex(-v) == neg[len(neg)-1].idx
	case k.zero > 0:
		return v == 0
	default:
		return v > 0 && bucketIndex(v) == k.b.pos[0].idx
	}
}

// inHighest reports whether v falls in the bucketed sketch's highest
// occupied bucket: the last positive bucket, else zero, else the
// negative bucket of smallest magnitude.
func (k *KLL) inHighest(v float64) bool {
	switch pos := k.b.pos; {
	case len(pos) > 0:
		return v > 0 && bucketIndex(v) == pos[len(pos)-1].idx
	case k.zero > 0:
		return v == 0
	default:
		return v < 0 && bucketIndex(-v) == k.b.neg[0].idx
	}
}

// checkBuckets validates decoded buckets: within each sign, indices
// strictly ascending (no repeats) and counts positive; with zero, the
// counts sum to count (checked as they run, so they cannot overflow).
func checkBuckets(count, zero int64, neg, pos []kllBucket) error {
	total := zero
	for _, bs := range [2][]kllBucket{neg, pos} {
		for i, bk := range bs {
			if bk.n <= 0 || bk.n > count-total {
				return fmt.Errorf("stats: invalid sketch bucket count %d", bk.n)
			}
			if i > 0 && bk.idx <= bs[i-1].idx {
				return fmt.Errorf("stats: sketch bucket index %d not above %d", bk.idx, bs[i-1].idx)
			}
			total += bk.n
		}
	}
	if total != count {
		return fmt.Errorf("stats: sketch bucket counts sum to %d, want %d", total, count)
	}
	return nil
}

// UnmarshalJSON restores a sketch serialized by MarshalJSON, accepting
// only canonical states so malformed federation payloads fail loudly.
func (k *KLL) UnmarshalJSON(buf []byte) error {
	var in kllJSON
	if err := json.Unmarshal(buf, &in); err != nil {
		return err
	}
	if in.V != kllVersion {
		return fmt.Errorf("stats: sketch version %d, want %d", in.V, kllVersion)
	}
	if err := checkShape(in.Bucketed, in.Count, len(in.Xs)); err != nil {
		return err
	}
	if err := checkCounts(in.Bucketed, in.NaNs, in.Zero); err != nil {
		return err
	}
	r := KLL{count: in.Count, nans: in.NaNs, min: in.Min, max: in.Max, bucketed: in.Bucketed, zero: in.Zero}
	if !in.Bucketed {
		if !sort.Float64sAreSorted(in.Xs) {
			return fmt.Errorf("stats: exact sketch values not sorted")
		}
		if len(in.Xs) > 0 {
			r.xs = in.Xs
		}
		if err := r.checkValues(); err != nil {
			return err
		}
		*k = r
		return nil
	}
	r.b = newBuckets(len(in.Neg), len(in.Pos))
	for _, side := range [2]struct {
		pairs [][2]int64
		dst   []kllBucket
	}{{in.Neg, r.b.neg}, {in.Pos, r.b.pos}} {
		for i, p := range side.pairs {
			if p[0] < math.MinInt32 || p[0] > math.MaxInt32 {
				return fmt.Errorf("stats: invalid sketch bucket %v", p)
			}
			side.dst[i] = kllBucket{int32(p[0]), p[1]}
		}
	}
	if err := checkBuckets(r.count, r.zero, r.b.neg, r.b.pos); err != nil {
		return err
	}
	if err := r.checkValues(); err != nil {
		return err
	}
	*k = r
	return nil
}

var kllMagic = [4]byte{'K', 'L', 'S', kllVersion}

// MarshalBinary encodes the sketch in a compact deterministic binary
// form (little-endian, buckets ascending by index).
func (k *KLL) MarshalBinary() ([]byte, error) {
	size := len(kllMagic) + 1 + 4*8 + 4 + 8*len(k.xs)
	if k.bucketed {
		size = len(kllMagic) + 1 + 5*8 + 2*4 + 12*(len(k.b.neg)+len(k.b.pos))
	}
	buf := append(make([]byte, 0, size), kllMagic[:]...)
	var flags byte
	if k.bucketed {
		flags |= 1
	}
	le := binary.LittleEndian
	buf = append(buf, flags)
	buf = le.AppendUint64(buf, uint64(k.count))
	buf = le.AppendUint64(buf, uint64(k.nans))
	buf = le.AppendUint64(buf, math.Float64bits(k.min))
	buf = le.AppendUint64(buf, math.Float64bits(k.max))
	if !k.bucketed {
		buf = le.AppendUint32(buf, uint32(len(k.xs)))
		for _, x := range k.xs {
			buf = le.AppendUint64(buf, math.Float64bits(x))
		}
		return buf, nil
	}
	buf = le.AppendUint64(buf, uint64(k.zero))
	for _, bs := range [2][]kllBucket{k.b.neg, k.b.pos} {
		buf = le.AppendUint32(buf, uint32(len(bs)))
		for _, bk := range bs {
			buf = le.AppendUint32(buf, uint32(bk.idx))
			buf = le.AppendUint64(buf, uint64(bk.n))
		}
	}
	return buf, nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary,
// accepting only canonical states.
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
	r := KLL{bucketed: flags&1 != 0}
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
		if err := checkShape(false, r.count, int(n)); err != nil {
			return err
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
		if err := checkShape(true, r.count, 0); err != nil {
			return err
		}
		z, err := readU64()
		if err != nil {
			return err
		}
		r.zero = int64(z)
		r.b = &kllBuckets{}
		for _, dst := range []*[]kllBucket{&r.b.neg, &r.b.pos} {
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
				*dst = append(*dst, kllBucket{int32(idx), int64(cnt)})
			}
		}
		if err := checkBuckets(r.count, r.zero, r.b.neg, r.b.pos); err != nil {
			return err
		}
	}
	if rd.Len() != 0 {
		return fmt.Errorf("stats: %d trailing bytes after sketch", rd.Len())
	}
	if err := checkCounts(r.bucketed, r.nans, r.zero); err != nil {
		return err
	}
	if err := r.checkValues(); err != nil {
		return err
	}
	*k = r
	return nil
}
