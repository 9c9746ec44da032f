package quality

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
)

// accWords is the width of the exact accumulator: every finite float64 is
// an integer multiple of 2⁻¹⁰⁷⁴ below 2¹⁰²⁴, so 2099 bits hold any one
// addend and the remaining 77 bits of 34 words (one of them the two's
// complement sign) absorb carries of more addends than any clustering has
// pairs.
const accWords = 34

// acc is an exact sum of non-negative float64 values — squared distances:
// a two's complement fixed-point integer in units of 2⁻¹⁰⁷⁴ (the smallest
// subnormal), so every finite value lands on it with no rounding, and
// addition and subtraction are integer operations — associative and
// commutative, so the sum depends only on the multiset of values, never on
// their order or grouping. NaN and +Inf addends are counted instead of
// summed; a value with the sign bit set, which no square has, counts as
// NaN.
type acc struct {
	w        [accWords]uint64
	nan, inf int64
}

// add adds x exactly. The hot path is one exponent test — it also catches
// the sign bit — and add-only carry propagation.
func (a *acc) add(x float64) {
	b := math.Float64bits(x)
	e := b >> 52
	if e >= 0x7ff {
		a.count(x, 1)
		return
	}
	lo, hi, w := place(b, e)
	var c uint64
	a.w[w], c = bits.Add64(a.w[w], lo, 0)
	a.w[w+1], c = bits.Add64(a.w[w+1], hi, c)
	if c != 0 {
		a.carry(w + 2)
	}
}

// sub subtracts x exactly; sub(x) after add(x) restores the prior state.
func (a *acc) sub(x float64) {
	b := math.Float64bits(x)
	e := b >> 52
	if e >= 0x7ff {
		a.count(x, -1)
		return
	}
	lo, hi, w := place(b, e)
	var c uint64
	a.w[w], c = bits.Sub64(a.w[w], lo, 0)
	a.w[w+1], c = bits.Sub64(a.w[w+1], hi, c)
	if c != 0 {
		a.borrow(w + 2)
	}
}

// place splits a non-negative finite float64 (bits b, biased exponent e)
// into its fixed-point words: the integer significand shifted to bit
// position max(e−1, 0) ≤ 2045, as the pair (lo, hi) starting at word
// w ≤ 31. The masks restate those bounds for the compiler, and hi shifts
// in two steps so that no count reaches 64, so the hot path shifts and
// indexes without checks.
func place(b, e uint64) (lo, hi uint64, w int) {
	m := b & (1<<52 - 1)
	if e != 0 {
		m |= 1 << 52
		e--
	}
	s := e & 63
	return m << s, m >> (63 - s) >> 1, int(e>>6) & 31
}

// carry propagates a carry into word i and up.
func (a *acc) carry(i int) {
	for ; i < accWords; i++ {
		if a.w[i]++; a.w[i] != 0 {
			return
		}
	}
}

// borrow propagates a borrow into word i and up.
func (a *acc) borrow(i int) {
	for ; i < accWords; i++ {
		if a.w[i]--; a.w[i] != ^uint64(0) {
			return
		}
	}
}

// count records what the hot path does not sum: +Inf, and anything else
// the exponent test routes here as NaN. sign is +1 to add one, −1 to
// remove one.
func (a *acc) count(x float64, sign int64) {
	if x > math.MaxFloat64 {
		a.inf += sign
	} else {
		a.nan += sign
	}
}

// merge adds o into a exactly.
func (a *acc) merge(o *acc) {
	var c uint64
	for i := range a.w {
		a.w[i], c = bits.Add64(a.w[i], o.w[i], c)
	}
	a.nan += o.nan
	a.inf += o.inf
}

// float rounds the exact sum once, to the nearest float64 with ties to
// even (overflowing to +Inf), through math/big. A counted NaN reads NaN,
// else a counted +Inf reads +Inf.
func (a *acc) float() float64 {
	switch {
	case a.nan != 0:
		return math.NaN()
	case a.inf != 0:
		return math.Inf(1)
	}
	var buf [8 * accWords]byte
	for i, x := range a.w {
		binary.BigEndian.PutUint64(buf[len(buf)-8*(i+1):], x)
	}
	f := new(big.Float).SetInt(new(big.Int).SetBytes(buf[:]))
	r, _ := f.SetMantExp(f, -1074).Float64()
	return r
}
