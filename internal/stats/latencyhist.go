package stats

// latencyhist.go: LatencyHist, the mergeable log-bucketed latency
// histogram behind the serving SLO observatory (DESIGN.md §15). It
// shares the KLL sketch's dyadic bucket grid (bucketIndex/bucketValue:
// kllResolution sub-buckets per power of two, pure functions of the
// value's bits) so the same determinism contract holds: the histogram
// state is a pure function of the observed multiset, Merge is
// associative and commutative, and fleet-merged p99/p999 are bit-equal
// to a single node observing the union stream. Nothing in it depends
// on arrival order, so the coordinated-omission analysis in open-loop
// load tests stays honest under sharding.
//
// On top of the counts, each bucket carries up to `slots` bounded
// **exemplars** — (latency, X-Request-ID) pairs — so a slow p999
// bucket links straight to `/history` and incident bundles. Exemplar
// retention is itself order-free: a bucket keeps the top-K of its
// exemplars under the total order (value descending, request ID
// ascending). Top-K-of-union truncation is a homomorphism — an
// exemplar outside the top-K of A∪B has K better exemplars that also
// appear in A∪B∪C, so it can never re-enter a later merge — which
// makes exemplar merging associative and commutative too, and the
// canonical JSON form byte-stable across any shard partition.
//
// Input rules: latencies are seconds ≥ 0. NaN inputs are counted but
// excluded; +Inf clamps to math.MaxFloat64; negative values (clock
// weirdness) clamp to 0. The exact sum is carried in an ExactSum
// superaccumulator so fleet mean latency is grouping-invariant.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultExemplarSlots is the per-bucket exemplar bound used when a
// LatencyHist is built with slots <= 0.
const DefaultExemplarSlots = 4

// latencyHistVersion tags the serialized form.
const latencyHistVersion = 1

// Exemplar is one retained (latency, request ID) observation. The
// canonical order — value descending, then request ID ascending — is
// the total order exemplar truncation uses.
type Exemplar struct {
	Value     float64 `json:"v"`
	RequestID string  `json:"id,omitempty"`
}

// exemplarLess reports whether a precedes b in canonical order.
func exemplarLess(a, b Exemplar) bool {
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.RequestID < b.RequestID
}

// latBucket is one histogram cell: a count plus bounded exemplars kept
// in canonical order.
type latBucket struct {
	n  int64
	ex []Exemplar
}

// insertExemplar adds e to the bucket's canonical top-K list, bounded
// by slots. Insertion keeps the list sorted; ties and duplicates are
// legal (the list is a multiset prefix).
func (b *latBucket) insertExemplar(e Exemplar, slots int) {
	if slots <= 0 {
		return
	}
	i := sort.Search(len(b.ex), func(i int) bool { return !exemplarLess(b.ex[i], e) })
	if i >= slots {
		return
	}
	b.ex = append(b.ex, Exemplar{})
	copy(b.ex[i+1:], b.ex[i:])
	b.ex[i] = e
	if len(b.ex) > slots {
		b.ex = b.ex[:slots]
	}
}

// LatencyHist is a deterministic, mergeable log-bucketed latency
// histogram with bounded per-bucket exemplars. The zero value is an
// empty, usable histogram with DefaultExemplarSlots. Not safe for
// concurrent use; callers wrap it in their own lock.
type LatencyHist struct {
	slots    int // exemplar bound per bucket
	count    int64
	nans     int64
	min, max float64
	sum      *ExactSum
	zero     *latBucket           // observations exactly 0 (after clamping)
	pos      map[int32]*latBucket // dyadic bucket index → cell
}

// NewLatencyHist returns an empty histogram keeping at most slots
// exemplars per bucket (DefaultExemplarSlots when slots <= 0).
func NewLatencyHist(slots int) *LatencyHist {
	if slots <= 0 {
		slots = DefaultExemplarSlots
	}
	return &LatencyHist{slots: slots, sum: NewExactSum(), pos: map[int32]*latBucket{}}
}

// lazyInit upgrades a zero-value histogram to a usable one.
func (h *LatencyHist) lazyInit() {
	if h.slots <= 0 {
		h.slots = DefaultExemplarSlots
	}
	if h.sum == nil {
		h.sum = NewExactSum()
	}
	if h.pos == nil {
		h.pos = map[int32]*latBucket{}
	}
}

// normalizeLatency applies the pointwise input rules: NaN is rejected,
// +Inf clamps to MaxFloat64, anything ≤ 0 (including -0 and -Inf)
// clamps to 0.
func normalizeLatency(v float64) (float64, bool) {
	if math.IsNaN(v) {
		return 0, false
	}
	if math.IsInf(v, 1) {
		return math.MaxFloat64, true
	}
	if v <= 0 {
		return 0, true
	}
	return v, true
}

// Observe consumes one latency observation (seconds) with no exemplar.
func (h *LatencyHist) Observe(v float64) { h.ObserveID(v, "") }

// ObserveID consumes one latency observation tagged with a request ID.
// An empty ID records the count without an exemplar.
func (h *LatencyHist) ObserveID(v float64, requestID string) {
	h.lazyInit()
	v, ok := normalizeLatency(v)
	if !ok {
		h.nans++
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum.Add(v)
	b := h.bucketFor(v)
	b.n++
	if requestID != "" {
		b.insertExemplar(Exemplar{Value: v, RequestID: requestID}, h.slots)
	}
}

// bucketFor returns (allocating if needed) the cell for normalized v.
func (h *LatencyHist) bucketFor(v float64) *latBucket {
	if v == 0 {
		if h.zero == nil {
			h.zero = &latBucket{}
		}
		return h.zero
	}
	idx := bucketIndex(v)
	b := h.pos[idx]
	if b == nil {
		b = &latBucket{}
		h.pos[idx] = b
	}
	return b
}

// Count returns the number of (finite) observations consumed.
func (h *LatencyHist) Count() int { return int(h.count) }

// NaNs returns the number of NaN inputs that were dropped.
func (h *LatencyHist) NaNs() int { return int(h.nans) }

// Min returns the exact minimum (0 for an empty histogram).
func (h *LatencyHist) Min() float64 { return h.min }

// Max returns the exact maximum (0 for an empty histogram).
func (h *LatencyHist) Max() float64 { return h.max }

// Sum returns the exact sum of observations.
func (h *LatencyHist) Sum() float64 { return h.sum.Value() }

// Mean returns the mean latency (0 for an empty histogram).
func (h *LatencyHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum.Value() / float64(h.count)
}

// Slots returns the per-bucket exemplar bound.
func (h *LatencyHist) Slots() int { return h.slots }

// Quantile returns the q-quantile estimate using the same rank
// convention as the KLL sketch (k = round(q·(n−1))): bucket midpoints
// inside the range, exact at the extremes. Relative error is bounded
// by the grid resolution (≤ 1/(2·kllResolution) ≈ 0.4%).
func (h *LatencyHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Round(q * float64(h.count-1)))
	if rank == 0 {
		return h.min
	}
	if rank == h.count-1 {
		return h.max
	}
	var c int64
	if h.zero != nil {
		c += h.zero.n
		if c > rank {
			return clampRange(0, h.min, h.max)
		}
	}
	for _, b := range h.sortedCells() {
		c += b.cell.n
		if c > rank {
			return clampRange(bucketValue(b.idx), h.min, h.max)
		}
	}
	return h.max
}

// latCell pairs a bucket index with its cell, for ordered iteration.
type latCell struct {
	idx  int32
	cell *latBucket
}

// sortedCells returns the positive cells ascending by bucket index.
func (h *LatencyHist) sortedCells() []latCell {
	out := make([]latCell, 0, len(h.pos))
	for idx, b := range h.pos {
		out = append(out, latCell{idx, b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].idx < out[j].idx })
	return out
}

// mergeExemplars folds the canonical lists a and b into the canonical
// top-K of their union.
func mergeExemplars(a, b []Exemplar, slots int) []Exemplar {
	if len(b) == 0 {
		return a
	}
	out := make([]Exemplar, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool { return exemplarLess(out[i], out[j]) })
	if len(out) > slots {
		out = out[:slots]
	}
	return out
}

// Merge folds o into h. The resulting state — counts, exact sum, and
// exemplars — is bit-identical to a single histogram fed the union
// multiset, whatever the partition. o is not modified. Histograms with
// different exemplar bounds refuse to merge (truncation depth is part
// of the canonical form).
func (h *LatencyHist) Merge(o *LatencyHist) error {
	if o == nil {
		return nil
	}
	h.lazyInit()
	oSlots := o.slots
	if oSlots <= 0 {
		oSlots = DefaultExemplarSlots
	}
	if oSlots != h.slots {
		return fmt.Errorf("stats: latency hist exemplar slots %d != %d", oSlots, h.slots)
	}
	h.nans += o.nans
	if o.count == 0 {
		return nil
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if h.count == 0 || o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	if o.sum != nil {
		h.sum.Merge(o.sum)
	}
	if o.zero != nil {
		z := h.zero
		if z == nil {
			z = &latBucket{}
			h.zero = z
		}
		z.n += o.zero.n
		z.ex = mergeExemplars(z.ex, o.zero.ex, h.slots)
	}
	for idx, ob := range o.pos {
		b := h.pos[idx]
		if b == nil {
			b = &latBucket{}
			h.pos[idx] = b
		}
		b.n += ob.n
		b.ex = mergeExemplars(b.ex, ob.ex, h.slots)
	}
	return nil
}

// Clone returns a deep copy.
func (h *LatencyHist) Clone() *LatencyHist {
	sum := NewExactSum()
	if h.sum != nil {
		sum = h.sum.Clone()
	}
	c := &LatencyHist{slots: h.slots, count: h.count, nans: h.nans, min: h.min, max: h.max,
		sum: sum, pos: make(map[int32]*latBucket, len(h.pos))}
	if h.zero != nil {
		c.zero = &latBucket{n: h.zero.n, ex: append([]Exemplar(nil), h.zero.ex...)}
	}
	for idx, b := range h.pos {
		c.pos[idx] = &latBucket{n: b.n, ex: append([]Exemplar(nil), b.ex...)}
	}
	return c
}

// TopExemplars returns up to k exemplars across all buckets in
// canonical order (slowest first) — the "these exact requests were
// slow" list for /slo and incident bundles.
func (h *LatencyHist) TopExemplars(k int) []Exemplar {
	if k <= 0 {
		return nil
	}
	var out []Exemplar
	if h.zero != nil {
		out = append(out, h.zero.ex...)
	}
	for _, b := range h.pos {
		out = append(out, b.ex...)
	}
	sort.Slice(out, func(i, j int) bool { return exemplarLess(out[i], out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// latBucketJSON is one serialized cell.
type latBucketJSON struct {
	Idx int32      `json:"i"`
	N   int64      `json:"n"`
	Ex  []Exemplar `json:"ex,omitempty"`
}

// latencyHistJSON is the canonical JSON wire form: fixed field order,
// buckets ascending by index, exemplars in canonical order — identical
// states serialize to identical bytes.
type latencyHistJSON struct {
	V       int             `json:"v"`
	Slots   int             `json:"slots"`
	Count   int64           `json:"count"`
	NaNs    int64           `json:"nans,omitempty"`
	Min     float64         `json:"min"`
	Max     float64         `json:"max"`
	Sum     *ExactSum       `json:"sum,omitempty"`
	Zero    *latBucketJSON  `json:"zero,omitempty"`
	Buckets []latBucketJSON `json:"buckets,omitempty"`
}

// MarshalJSON encodes the histogram canonically.
func (h *LatencyHist) MarshalJSON() ([]byte, error) {
	slots := h.slots
	if slots <= 0 {
		slots = DefaultExemplarSlots
	}
	out := latencyHistJSON{V: latencyHistVersion, Slots: slots, Count: h.count, NaNs: h.nans, Min: h.min, Max: h.max}
	if h.sum != nil && !h.sum.IsZero() {
		out.Sum = h.sum
	}
	if h.zero != nil && h.zero.n > 0 {
		out.Zero = &latBucketJSON{Idx: 0, N: h.zero.n, Ex: h.zero.ex}
	}
	for _, c := range h.sortedCells() {
		out.Buckets = append(out.Buckets, latBucketJSON{Idx: c.idx, N: c.cell.n, Ex: c.cell.ex})
	}
	return json.Marshal(out)
}

// validateCell checks one decoded cell against the bucket it claims.
// zero==true means the cell is the zero bucket (values exactly 0).
func validateCell(c latBucketJSON, slots int, zero bool) error {
	if c.N <= 0 {
		return fmt.Errorf("stats: latency hist bucket count %d", c.N)
	}
	if len(c.Ex) > slots {
		return fmt.Errorf("stats: latency hist bucket has %d exemplars for %d slots", len(c.Ex), slots)
	}
	if int64(len(c.Ex)) > c.N {
		return fmt.Errorf("stats: latency hist bucket has %d exemplars for count %d", len(c.Ex), c.N)
	}
	for i, e := range c.Ex {
		v, ok := normalizeLatency(e.Value)
		if !ok || v != e.Value {
			return fmt.Errorf("stats: latency hist exemplar value %v not normalized", e.Value)
		}
		if zero {
			if v != 0 {
				return fmt.Errorf("stats: zero-bucket exemplar value %v", v)
			}
		} else if v == 0 || bucketIndex(v) != c.Idx {
			return fmt.Errorf("stats: exemplar value %v outside bucket %d", v, c.Idx)
		}
		if i > 0 && exemplarLess(e, c.Ex[i-1]) {
			return fmt.Errorf("stats: latency hist exemplars not in canonical order")
		}
	}
	return nil
}

// UnmarshalJSON restores a histogram serialized by MarshalJSON,
// validating structural invariants so malformed federation payloads
// fail loudly.
func (h *LatencyHist) UnmarshalJSON(buf []byte) error {
	var in latencyHistJSON
	if err := json.Unmarshal(buf, &in); err != nil {
		return err
	}
	if in.V != latencyHistVersion {
		return fmt.Errorf("stats: latency hist version %d, want %d", in.V, latencyHistVersion)
	}
	if in.Slots <= 0 {
		return fmt.Errorf("stats: latency hist exemplar slots %d", in.Slots)
	}
	r := NewLatencyHist(in.Slots)
	r.count, r.nans, r.min, r.max = in.Count, in.NaNs, in.Min, in.Max
	if in.Sum != nil {
		r.sum = in.Sum.Clone()
	}
	var total int64
	if in.Zero != nil {
		if err := validateCell(*in.Zero, in.Slots, true); err != nil {
			return err
		}
		r.zero = &latBucket{n: in.Zero.N, ex: append([]Exemplar(nil), in.Zero.Ex...)}
		total += in.Zero.N
	}
	for i, c := range in.Buckets {
		if i > 0 && c.Idx <= in.Buckets[i-1].Idx {
			return fmt.Errorf("stats: latency hist buckets not ascending")
		}
		if err := validateCell(c, in.Slots, false); err != nil {
			return err
		}
		r.pos[c.Idx] = &latBucket{n: c.N, ex: append([]Exemplar(nil), c.Ex...)}
		total += c.N
	}
	if total != in.Count {
		return fmt.Errorf("stats: latency hist bucket counts sum to %d, want %d", total, in.Count)
	}
	*h = *r
	return nil
}
