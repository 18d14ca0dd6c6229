// Package smt decides the first-order verification conditions of the IPA
// analysis by grounding them over a small finite scope and encoding the
// result into SAT (package sat). It plays the role the Z3 SMT solver plays
// in the paper: the analysis constructs states (pre-state, per-operation
// post-states, merged state), applies operation effects, and asks for a
// model that satisfies the invariant before and violates it after merge.
//
// Numeric reasoning (counts, numeric fields, symbolic constants such as
// Capacity) uses two's-complement bit-vectors built circuit-style: every
// internal adder/comparator node gets a fresh solver variable, keeping the
// encoded formulas flat.
package smt

import "ipa/internal/sat"

// bv is a little-endian two's-complement bit-vector of formulas.
type bv []*sat.Formula

// constBV encodes the signed integer n in the fewest bits that hold it.
func constBV(n int) bv {
	w := 2
	for ; w < 32; w++ {
		min, max := -(1 << (w - 1)), 1<<(w-1)-1
		if n >= min && n <= max {
			break
		}
	}
	out := make(bv, w)
	u := uint(n) // two's complement bit pattern
	for i := 0; i < w; i++ {
		if u&(1<<i) != 0 {
			out[i] = sat.TrueF()
		} else {
			out[i] = sat.FalseF()
		}
	}
	return out
}

// define returns f's Tseitin literal as a formula, keeping downstream
// circuitry flat. Constants and literals pass through.
func (e *Encoder) define(f *sat.Formula) *sat.Formula {
	if c, _ := f.IsConst(); c || f.IsLiteral() {
		return f
	}
	return sat.Literal(e.S.Lit(f))
}

func xor(a, b *sat.Formula) *sat.Formula {
	return sat.Or(sat.And(a, sat.Not(b)), sat.And(sat.Not(a), b))
}

// signExtend widens v to w bits.
func signExtend(v bv, w int) bv {
	if len(v) >= w {
		return v
	}
	out := make(bv, w)
	copy(out, v)
	sign := v[len(v)-1]
	for i := len(v); i < w; i++ {
		out[i] = sign
	}
	return out
}

// add returns a+b with one extra result bit, so it never overflows.
func (e *Encoder) add(a, b bv) bv {
	w := len(a)
	if len(b) > w {
		w = len(b)
	}
	w++ // result width: no overflow possible
	a = signExtend(a, w)
	b = signExtend(b, w)
	out := make(bv, w)
	carry := sat.FalseF()
	for i := 0; i < w; i++ {
		s := xor(xor(a[i], b[i]), carry)
		c := sat.Or(sat.And(a[i], b[i]), sat.And(a[i], carry), sat.And(b[i], carry))
		out[i] = e.define(s)
		carry = e.define(c)
	}
	return out
}

// neg returns -a (two's complement), one bit wider to represent -min.
func (e *Encoder) neg(a bv) bv {
	w := len(a) + 1
	a = signExtend(a, w)
	inv := make(bv, w)
	for i := range a {
		inv[i] = sat.Not(a[i])
	}
	one := bv{sat.TrueF(), sat.FalseF()} // +1 with a clear sign bit
	return e.add(inv, one)
}

// sub returns a-b.
func (e *Encoder) sub(a, b bv) bv { return e.add(a, e.neg(b)) }

// equal returns the formula a = b.
func (e *Encoder) equal(a, b bv) *sat.Formula {
	w := len(a)
	if len(b) > w {
		w = len(b)
	}
	a = signExtend(a, w)
	b = signExtend(b, w)
	parts := make([]*sat.Formula, w)
	for i := 0; i < w; i++ {
		parts[i] = sat.Not(xor(a[i], b[i]))
	}
	return e.define(sat.And(parts...))
}

// less returns the formula a < b (signed).
func (e *Encoder) less(a, b bv) *sat.Formula {
	w := len(a)
	if len(b) > w {
		w = len(b)
	}
	a = signExtend(a, w)
	b = signExtend(b, w)
	// Unsigned comparison of magnitude bits with the sign bit flipped
	// implements signed comparison: compare (sign XOR 1) as MSB.
	// a < b  iff  (sa & !sb) | (sa==sb & ultLow)
	sa, sb := a[w-1], b[w-1]
	lt := sat.FalseF()
	for i := 0; i < w-1; i++ {
		bitLt := sat.And(sat.Not(a[i]), b[i])
		bitEq := sat.Not(xor(a[i], b[i]))
		lt = sat.Or(bitLt, sat.And(bitEq, lt))
		lt = e.define(lt)
	}
	sameSign := sat.Not(xor(sa, sb))
	return e.define(sat.Or(sat.And(sa, sat.Not(sb)), sat.And(sameSign, lt)))
}

// sum adds a list of single-bit values (0/1 each) into a bit-vector.
func (e *Encoder) sum(bits []*sat.Formula) bv {
	if len(bits) == 0 {
		return constBV(0)
	}
	// Balanced tree of adds over 2-bit non-negative vectors.
	vecs := make([]bv, len(bits))
	for i, b := range bits {
		vecs[i] = bv{b, sat.FalseF()} // value 0 or 1, sign bit clear
	}
	for len(vecs) > 1 {
		var next []bv
		for i := 0; i+1 < len(vecs); i += 2 {
			next = append(next, e.add(vecs[i], vecs[i+1]))
		}
		if len(vecs)%2 == 1 {
			next = append(next, vecs[len(vecs)-1])
		}
		vecs = next
	}
	return vecs[0]
}

// valueOf decodes the model value of v after a successful solve.
func (e *Encoder) valueOf(v bv) int {
	model := e.S.Model()
	n := 0
	for i, f := range v {
		if f.Eval(model) {
			n |= 1 << i
		}
	}
	// Sign extend from the top bit.
	if v[len(v)-1].Eval(model) {
		n -= 1 << len(v)
	}
	return n
}
