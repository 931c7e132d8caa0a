package stats

// kll_reference_test.go: mapKLL is a verbatim copy (renamed) of the
// map-based KLL that the sorted-slice representation replaced: bucket
// maps, sorted into fresh slices by every reader. It shares the pure
// helpers (bucketIndex, bucketValue, normalize, clampRange) and the
// wire struct, and is the reference the differential tests and
// FuzzKLLMatchesMapReference hold the sketch to: same serialized bytes,
// same quantiles and KS distances, bit for bit.

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

// mapKLL is a deterministic mergeable quantile sketch. The zero value is
// an empty, usable sketch. Not safe for concurrent use.
type mapKLL struct {
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

// newMapKLL returns an empty sketch.
func newMapKLL() *mapKLL { return &mapKLL{} }

// Add consumes one observation.
func (k *mapKLL) Add(x float64) {
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
// when the cutover happened. Maps and the value slice a Reset kept are
// reused (outside the bucketed regime the maps are always empty).
func (k *mapKLL) toBuckets() {
	k.bucketed = true
	if k.neg == nil {
		k.neg = map[int32]int64{}
		k.pos = map[int32]int64{}
	}
	for _, x := range k.xs {
		k.bucketAdd(x, 1)
	}
	k.xs = k.xs[:0]
}

// Reset empties the sketch in place, keeping its storage for the next
// stream: the state afterwards is that of newMapKLL.
func (k *mapKLL) Reset() {
	clear(k.neg)
	clear(k.pos)
	*k = mapKLL{xs: k.xs[:0], neg: k.neg, pos: k.pos}
}

func (k *mapKLL) bucketAdd(x float64, n int64) {
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
func (k *mapKLL) Count() int { return int(k.count) }

// NaNs returns the number of NaN inputs that were dropped.
func (k *mapKLL) NaNs() int { return int(k.nans) }

// Min returns the exact minimum (0 for an empty sketch).
func (k *mapKLL) Min() float64 { return k.min }

// Max returns the exact maximum (0 for an empty sketch).
func (k *mapKLL) Max() float64 { return k.max }

// mapBucket is one (index, count) pair in value order.
type mapBucket struct {
	idx int32
	n   int64
}

// mapSortedBuckets returns the map's buckets ordered by ascending index.
func mapSortedBuckets(m map[int32]int64) []mapBucket {
	out := make([]mapBucket, 0, len(m))
	for idx, n := range m {
		out = append(out, mapBucket{idx, n})
	}
	slices.SortFunc(out, func(a, b mapBucket) int { return cmp.Compare(a.idx, b.idx) })
	return out
}

// Quantile returns the q-quantile estimate for q in [0,1], using the
// rank convention k = round(q·(n−1)). Exact below the cutover; within
// the bucket resolution above it. q=0 and q=1 are always exact.
func (k *mapKLL) Quantile(q float64) float64 {
	var out [1]float64
	return k.Quantiles([]float64{q}, out[:0])[0]
}

// Quantiles appends the estimate for each q in qs to out and returns
// the extended slice. It orders the buckets once and answers every q
// from that one ordering; each estimate is bit-identical to
// Quantile(q).
func (k *mapKLL) Quantiles(qs, out []float64) []float64 {
	var steps []mapStep // built on the first rank that needs the buckets
	for _, q := range qs {
		out = append(out, k.quantile(q, &steps))
	}
	return out
}

// mapStep is one support point of a bucketed sketch in value order:
// its representative value and the count of observations at or below
// it.
type mapStep struct {
	v   float64
	cum int64
}

func (k *mapKLL) quantile(q float64, steps *[]mapStep) float64 {
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
func (k *mapKLL) steps() []mapStep {
	out := make([]mapStep, 0, len(k.neg)+len(k.pos)+1)
	var c int64
	negs := mapSortedBuckets(k.neg)
	for i := len(negs) - 1; i >= 0; i-- { // descending |v| index = ascending value
		c += negs[i].n
		out = append(out, mapStep{-bucketValue(negs[i].idx), c})
	}
	c += k.zero
	out = append(out, mapStep{0, c})
	for _, b := range mapSortedBuckets(k.pos) {
		c += b.n
		out = append(out, mapStep{bucketValue(b.idx), c})
	}
	return out
}

// Merge folds o into k. Merging is associative and commutative in the
// strongest sense: the resulting state is bit-identical to a single
// sketch fed the union multiset, whatever the partition. o is not
// modified. The error return exists for wire-level use (it never fires
// for in-process sketches).
func (k *mapKLL) Merge(o *mapKLL) error {
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
		sort.Float64s(k.xs)
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

// Clone returns a deep copy whose storage is sized to the state.
func (k *mapKLL) Clone() *mapKLL {
	c := &mapKLL{count: k.count, nans: k.nans, min: k.min, max: k.max, bucketed: k.bucketed, zero: k.zero}
	if len(k.xs) > 0 {
		c.xs = make([]float64, len(k.xs))
		copy(c.xs, k.xs)
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
func (k *mapKLL) supports() ([]float64, []int64) {
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
	negs := mapSortedBuckets(k.neg)
	for i := len(negs) - 1; i >= 0; i-- {
		vs = append(vs, -bucketValue(negs[i].idx))
		ns = append(ns, negs[i].n)
	}
	if k.zero > 0 {
		vs = append(vs, 0)
		ns = append(ns, k.zero)
	}
	for _, b := range mapSortedBuckets(k.pos) {
		vs = append(vs, bucketValue(b.idx))
		ns = append(ns, b.n)
	}
	return vs, ns
}

// mapKSDistance returns the two-sample Kolmogorov–Smirnov statistic
// sup|F_a − F_b| between the empirical distributions of two sketches
// (0 when either is empty). Because the sketches are canonical, the
// statistic computed from merged shard sketches is bit-identical to
// the single-node value — the "drift-test sufficient statistics" the
// federation layer ships instead of raw samples.
func mapKSDistance(a, b *mapKLL) float64 {
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

// MarshalJSON encodes the sketch canonically.
func (k *mapKLL) MarshalJSON() ([]byte, error) { return k.AppendJSON(nil) }

// AppendJSON appends the canonical JSON of the sketch to b: the bytes
// encoding/json writes for kllJSON. A nonfinite min or max (only a
// binary-decoded sketch can hold one) is an error, as it is there.
func (k *mapKLL) AppendJSON(b []byte) ([]byte, error) {
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
		b = mapAppendBuckets(b, `,"neg":`, k.neg)
		b = mapAppendBuckets(b, `,"pos":`, k.pos)
	}
	return append(b, '}'), nil
}

// mapAppendBuckets appends key and the [index, count] pairs of m in
// ascending index order; an empty map appends nothing.
func mapAppendBuckets(b []byte, key string, m map[int32]int64) []byte {
	if len(m) == 0 {
		return b
	}
	b = append(b, key...)
	for i, bk := range mapSortedBuckets(m) {
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

// UnmarshalJSON restores a sketch serialized by MarshalJSON, validating
// structural invariants so malformed federation payloads fail loudly.
func (k *mapKLL) UnmarshalJSON(buf []byte) error {
	var in kllJSON
	if err := json.Unmarshal(buf, &in); err != nil {
		return err
	}
	if in.V != kllVersion {
		return fmt.Errorf("stats: sketch version %d, want %d", in.V, kllVersion)
	}
	r := &mapKLL{count: in.Count, nans: in.NaNs, min: in.Min, max: in.Max, bucketed: in.Bucketed, zero: in.Zero}
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

// MarshalBinary encodes the sketch in a compact deterministic binary
// form (little-endian, buckets ascending by index).
func (k *mapKLL) MarshalBinary() ([]byte, error) {
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
		bs := mapSortedBuckets(m)
		writeU32(uint32(len(bs)))
		for _, b := range bs {
			writeU32(uint32(b.idx))
			writeU64(uint64(b.n))
		}
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a sketch serialized by MarshalBinary.
func (k *mapKLL) UnmarshalBinary(data []byte) error {
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
	r := &mapKLL{bucketed: flags&1 != 0}
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
