package stats

// exactsum.go: an exact, order- and grouping-invariant accumulator for
// float64 sums. Floating-point addition is not associative, so a naive
// running sum depends on arrival order — which breaks the fleet
// determinism contract, where merge(shard₁..shardₙ) must be bit-equal
// to a single node observing the union stream. ExactSum sidesteps the
// problem with a Kulisch-style superaccumulator: every float64 is a
// 53-bit integer scaled by a power of two, so the whole double range
// fits in one 2176-bit fixed-point register (2^-1074 .. 2^1023 plus
// ~77 bits of carry headroom). Integer addition IS associative and
// commutative, so any shard partition, merge tree or arrival order
// yields the same limbs — and Value() rounds the exact total to the
// nearest float64 exactly once.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

const (
	// sumLimbs is the register width in 64-bit limbs. Bit i of limb j
	// weighs 2^(64j+i-sumBias); 34 limbs span bits -1074..1101, leaving
	// ~2^77 max-magnitude additions before the two's-complement register
	// could wrap.
	sumLimbs = 34
	// sumBias aligns bit 0 of limb 0 with 2^-1074, the smallest
	// subnormal double.
	sumBias = 1074
)

// ExactSum accumulates float64 values exactly. The zero value is
// unusable; call NewExactSum. Not safe for concurrent use.
type ExactSum struct {
	limbs [sumLimbs]uint64 // two's complement fixed-point total
	nan   bool             // saw a NaN input
	pinf  bool             // saw +Inf
	ninf  bool             // saw -Inf
}

// NewExactSum returns an empty accumulator.
func NewExactSum() *ExactSum { return &ExactSum{} }

// Add accumulates one value. Nonfinite inputs set sticky flags that
// dominate Value() (NaN, or +Inf and -Inf together, yield NaN) without
// corrupting the finite total.
func (s *ExactSum) Add(x float64) {
	b := math.Float64bits(x)
	exp := int((b >> 52) & 0x7ff)
	frac := b & (1<<52 - 1)
	neg := b>>63 == 1
	if exp == 0x7ff {
		switch {
		case frac != 0:
			s.nan = true
		case neg:
			s.ninf = true
		default:
			s.pinf = true
		}
		return
	}
	var m uint64
	var e int
	if exp == 0 {
		m, e = frac, -sumBias // subnormal (covers ±0: m == 0)
	} else {
		m, e = frac|1<<52, exp-1075
	}
	if m == 0 {
		return
	}
	p := e + sumBias // bit position of the mantissa's LSB, always >= 0
	limb, off := p>>6, uint(p&63)
	lo := m << off
	var hi uint64
	if off != 0 {
		hi = m >> (64 - off)
	}
	if neg {
		s.subAt(limb, lo, hi)
	} else {
		s.addAt(limb, lo, hi)
	}
}

// addAt adds the 128-bit quantity (hi,lo) at limb i, rippling carries.
func (s *ExactSum) addAt(i int, lo, hi uint64) {
	var c uint64
	s.limbs[i], c = bits.Add64(s.limbs[i], lo, 0)
	if i+1 < sumLimbs {
		s.limbs[i+1], c = bits.Add64(s.limbs[i+1], hi, c)
	}
	for j := i + 2; j < sumLimbs && c != 0; j++ {
		s.limbs[j], c = bits.Add64(s.limbs[j], 0, c)
	}
}

// subAt subtracts the 128-bit quantity (hi,lo) at limb i, rippling
// borrows; the register wraps mod 2^2176, i.e. two's complement.
func (s *ExactSum) subAt(i int, lo, hi uint64) {
	var c uint64
	s.limbs[i], c = bits.Sub64(s.limbs[i], lo, 0)
	if i+1 < sumLimbs {
		s.limbs[i+1], c = bits.Sub64(s.limbs[i+1], hi, c)
	}
	for j := i + 2; j < sumLimbs && c != 0; j++ {
		s.limbs[j], c = bits.Sub64(s.limbs[j], 0, c)
	}
}

// Merge folds another accumulator into s (limbwise integer addition, so
// merging is associative and commutative). o is not modified.
func (s *ExactSum) Merge(o *ExactSum) {
	if o == nil {
		return
	}
	var c uint64
	for i := 0; i < sumLimbs; i++ {
		s.limbs[i], c = bits.Add64(s.limbs[i], o.limbs[i], c)
	}
	s.nan = s.nan || o.nan
	s.pinf = s.pinf || o.pinf
	s.ninf = s.ninf || o.ninf
}

// Reset zeroes the accumulator in place.
func (s *ExactSum) Reset() { *s = ExactSum{} }

// Clone returns a deep copy.
func (s *ExactSum) Clone() *ExactSum {
	c := *s
	return &c
}

// Equal reports bit-identical accumulator state.
func (s *ExactSum) Equal(o *ExactSum) bool {
	if o == nil {
		return false
	}
	return *s == *o
}

// IsZero reports whether the accumulator holds an exact zero total and
// no nonfinite flags.
func (s *ExactSum) IsZero() bool {
	return *s == ExactSum{}
}

// negative reports the sign of the two's-complement register.
func (s *ExactSum) negative() bool { return s.limbs[sumLimbs-1]>>63 == 1 }

// negateLimbs flips mag to its two's complement (in place).
func negateLimbs(mag *[sumLimbs]uint64) {
	var c uint64 = 1
	for i := 0; i < sumLimbs; i++ {
		mag[i], c = bits.Add64(^mag[i], 0, c)
	}
}

// extractBits reads n (<= 53) bits starting at bit position pos.
func extractBits(mag *[sumLimbs]uint64, pos, n int) uint64 {
	limb, off := pos>>6, uint(pos&63)
	v := mag[limb] >> off
	if off != 0 && limb+1 < sumLimbs {
		v |= mag[limb+1] << (64 - off)
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

// anyBitBelow reports whether any bit strictly below pos is set.
func anyBitBelow(mag *[sumLimbs]uint64, pos int) bool {
	if pos <= 0 {
		return false
	}
	limb, off := pos>>6, uint(pos&63)
	for i := 0; i < limb; i++ {
		if mag[i] != 0 {
			return true
		}
	}
	if off == 0 {
		return false
	}
	return mag[limb]&(1<<off-1) != 0
}

// Value rounds the exact total to the nearest float64 (ties to even) —
// the uniquely-determined correctly-rounded sum of every Add so far.
func (s *ExactSum) Value() float64 {
	switch {
	case s.nan || (s.pinf && s.ninf):
		return math.NaN()
	case s.pinf:
		return math.Inf(1)
	case s.ninf:
		return math.Inf(-1)
	}
	mag := s.limbs
	sign := 1.0
	if s.negative() {
		sign = -1
		negateLimbs(&mag)
	}
	h := sumLimbs - 1
	for h >= 0 && mag[h] == 0 {
		h--
	}
	if h < 0 {
		return 0
	}
	top := h*64 + 63 - bits.LeadingZeros64(mag[h]) // highest set bit
	if top <= 52 {
		// At most 53 low bits: the total is an exact (sub)normal.
		return sign * math.Ldexp(float64(mag[0]), -sumBias)
	}
	mant := extractBits(&mag, top-52, 53)
	guard := extractBits(&mag, top-53, 1)
	sticky := anyBitBelow(&mag, top-53)
	if guard == 1 && (sticky || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant = 1 << 52
			top++
		}
	}
	// mant ∈ [2^52, 2^53), exponent top-sumBias-52 >= -1073: normal
	// range, so Ldexp is exact (or overflows to ±Inf, which is the
	// correctly rounded answer).
	return sign * math.Ldexp(float64(mant), top-sumBias-52)
}

// sumLimbJSON is one nonzero limb in the canonical JSON encoding.
type sumLimbJSON struct {
	I int    `json:"i"`
	V string `json:"v"` // hex, no leading zeros
}

// exactSumJSON is the canonical sign-magnitude wire form, decoded by
// UnmarshalJSON and written field for field, in this order, by
// AppendJSON: identical accumulator states always serialize to
// identical bytes.
type exactSumJSON struct {
	Neg   bool          `json:"neg,omitempty"`
	Limbs []sumLimbJSON `json:"limbs,omitempty"`
	NaN   bool          `json:"nan,omitempty"`
	PInf  bool          `json:"pinf,omitempty"`
	NInf  bool          `json:"ninf,omitempty"`
}

// MarshalJSON encodes the accumulator as sign + sparse magnitude limbs
// (ascending limb index), a canonical deterministic form.
func (s *ExactSum) MarshalJSON() ([]byte, error) { return s.AppendJSON(nil), nil }

// AppendJSON appends the canonical JSON of the accumulator to b: the
// bytes encoding/json writes for exactSumJSON.
func (s *ExactSum) AppendJSON(b []byte) []byte {
	mag := s.limbs
	neg := s.negative()
	if neg {
		negateLimbs(&mag)
	}
	b = append(b, '{')
	open := len(b)
	field := func(name string) {
		if len(b) > open {
			b = append(b, ',')
		}
		b = append(b, name...)
	}
	if neg {
		field(`"neg":true`)
	}
	limbs := false
	for i, v := range mag {
		if v == 0 {
			continue
		}
		if !limbs {
			field(`"limbs":[`)
			limbs = true
		} else {
			b = append(b, ',')
		}
		b = append(b, `{"i":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"v":"`...)
		b = strconv.AppendUint(b, v, 16)
		b = append(b, `"}`...)
	}
	if limbs {
		b = append(b, ']')
	}
	if s.nan {
		field(`"nan":true`)
	}
	if s.pinf {
		field(`"pinf":true`)
	}
	if s.ninf {
		field(`"ninf":true`)
	}
	return append(b, '}')
}

// UnmarshalJSON restores an accumulator serialized by MarshalJSON.
func (s *ExactSum) UnmarshalJSON(buf []byte) error {
	var in exactSumJSON
	if err := json.Unmarshal(buf, &in); err != nil {
		return err
	}
	var mag [sumLimbs]uint64
	for _, l := range in.Limbs {
		if l.I < 0 || l.I >= sumLimbs {
			return fmt.Errorf("stats: exact sum limb index %d out of range", l.I)
		}
		v, err := strconv.ParseUint(l.V, 16, 64)
		if err != nil {
			return fmt.Errorf("stats: exact sum limb %d: %w", l.I, err)
		}
		mag[l.I] = v
	}
	if in.Neg {
		negateLimbs(&mag)
	}
	s.limbs = mag
	s.nan, s.pinf, s.ninf = in.NaN, in.PInf, in.NInf
	return nil
}
