package sat

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Formula is a propositional formula over solver variables. Build formulas
// with Var, Not, And, Or, Implies, Iff and the constants TrueF/FalseF, then
// assert them on a Solver with Assert (Tseitin transformation).
type Formula struct {
	kind formulaKind
	v    int // for fVar
	args []*Formula
}

type formulaKind uint8

const (
	fTrue formulaKind = iota
	fFalse
	fVar
	fNot
	fAnd
	fOr
)

// TrueF is the constant true formula.
func TrueF() *Formula { return &Formula{kind: fTrue} }

// FalseF is the constant false formula.
func FalseF() *Formula { return &Formula{kind: fFalse} }

// Var lifts solver variable v (allocated with NewVar) into a formula.
func Var(v int) *Formula {
	if v <= 0 {
		panic("sat: Var requires a positive variable index")
	}
	return &Formula{kind: fVar, v: v}
}

// Not negates f, folding constants and double negation.
func Not(f *Formula) *Formula {
	switch f.kind {
	case fTrue:
		return FalseF()
	case fFalse:
		return TrueF()
	case fNot:
		return f.args[0]
	}
	return &Formula{kind: fNot, args: []*Formula{f}}
}

// And is n-ary conjunction with constant folding.
func And(fs ...*Formula) *Formula {
	out := make([]*Formula, 0, len(fs))
	for _, f := range fs {
		switch f.kind {
		case fTrue:
			continue
		case fFalse:
			return FalseF()
		case fAnd:
			out = append(out, f.args...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return TrueF()
	case 1:
		return out[0]
	}
	return &Formula{kind: fAnd, args: out}
}

// Or is n-ary disjunction with constant folding.
func Or(fs ...*Formula) *Formula {
	out := make([]*Formula, 0, len(fs))
	for _, f := range fs {
		switch f.kind {
		case fFalse:
			continue
		case fTrue:
			return TrueF()
		case fOr:
			out = append(out, f.args...)
		default:
			out = append(out, f)
		}
	}
	switch len(out) {
	case 0:
		return FalseF()
	case 1:
		return out[0]
	}
	return &Formula{kind: fOr, args: out}
}

// Implies returns a → b.
func Implies(a, b *Formula) *Formula { return Or(Not(a), b) }

// Iff returns a ↔ b.
func Iff(a, b *Formula) *Formula { return And(Implies(a, b), Implies(b, a)) }

// IsConst reports whether f is a constant, and if so its value.
func (f *Formula) IsConst() (isConst, val bool) {
	switch f.kind {
	case fTrue:
		return true, true
	case fFalse:
		return true, false
	}
	return false, false
}

// IsLiteral reports whether f is a plain variable or a negated variable.
func (f *Formula) IsLiteral() bool {
	return f.kind == fVar || (f.kind == fNot && f.args[0].kind == fVar)
}

// String renders the formula for debugging.
func (f *Formula) String() string {
	switch f.kind {
	case fTrue:
		return "true"
	case fFalse:
		return "false"
	case fVar:
		return fmt.Sprintf("x%d", f.v)
	case fNot:
		return "!" + f.args[0].String()
	case fAnd, fOr:
		op := " & "
		if f.kind == fOr {
			op = " | "
		}
		parts := make([]string, len(f.args))
		for i, a := range f.args {
			parts[i] = a.String()
		}
		return "(" + strings.Join(parts, op) + ")"
	}
	return "?"
}

// Assert adds clauses to s equivalent to requiring f to hold, using the
// Tseitin transformation (fresh definition variables for internal nodes).
// Returns false if the formula is detected unsatisfiable during encoding.
func (s *Solver) Assert(f *Formula) bool {
	switch f.kind {
	case fTrue:
		return true
	case fFalse:
		return s.AddClause() // empty clause: UNSAT
	case fAnd:
		for _, a := range f.args {
			if !s.Assert(a) {
				return false
			}
		}
		return true
	}
	return s.AddClause(s.Lit(f))
}

// Lit returns a literal equivalent to f, adding Tseitin defining clauses
// for its internal nodes. Definitions are hash-consed: an And or Or over
// child literals already defined on this solver reuses its variable, and
// the constants share one variable forced true, so encoding the same
// structure again adds no variables and no clauses. The literal can be
// asserted (AddClause) or passed to Solve as an assumption.
func (s *Solver) Lit(f *Formula) int {
	switch f.kind {
	case fTrue:
		return s.trueLit()
	case fFalse:
		return -s.trueLit()
	case fVar:
		return f.v
	case fNot:
		return -s.Lit(f.args[0])
	case fAnd, fOr:
		lits := make([]int, len(f.args))
		for i, a := range f.args {
			lits[i] = s.Lit(a)
		}
		return s.gate(f.kind, lits)
	}
	panic("sat: unknown formula kind")
}

// gate returns the definition variable of the And or Or of lits,
// adding its Tseitin clauses unless the same gate is already defined.
func (s *Solver) gate(kind formulaKind, lits []int) int {
	key := s.defKey[:0]
	key = append(key, byte(kind))
	for _, l := range lits {
		key = binary.AppendVarint(key, int64(l))
	}
	s.defKey = key
	if d, ok := s.frozenDefs[string(key)]; ok {
		return d
	}
	if d, ok := s.defs[string(key)]; ok {
		return d
	}
	d := s.NewVar()
	s.defs[string(key)] = d
	all := s.gateBuf[:0]
	if kind == fAnd {
		for _, la := range lits {
			s.AddClause(-d, la) // d → a
			all = append(all, -la)
		}
		all = append(all, d) // (∧a) → d
	} else {
		for _, la := range lits {
			s.AddClause(d, -la) // a → d
			all = append(all, la)
		}
		all = append(all, -d) // d → (∨a)
	}
	s.AddClause(all...)
	s.gateBuf = all
	return d
}

// Gate returns a literal equivalent to the conjunction (or, with or set,
// the disjunction) of lits: Lit of the same gate over the same child
// literals, with the constant literal folded away first. It overwrites
// lits.
func (s *Solver) Gate(or bool, lits []int) int {
	unit, kind := s.trueVar, fAnd // the literal And drops; its negation decides
	if or {
		unit, kind = -s.trueVar, fOr
	}
	n := 0
	for _, l := range lits {
		switch {
		case l != unit && l != -unit: // always, before the constant exists
			lits[n] = l
			n++
		case l == -unit:
			return -unit
		}
	}
	switch n {
	case 0:
		if or {
			return -s.trueLit()
		}
		return s.trueLit()
	case 1:
		return lits[0]
	}
	return s.gate(kind, lits[:n])
}

// Definitions lists the And and Or gates Lit and Gate have defined, by
// their definition variable: the Tseitin circuit the solver was given.
func (s *Solver) Definitions() map[int]Definition {
	out := make(map[int]Definition, len(s.frozenDefs)+len(s.defs))
	for _, defs := range []map[string]int{s.frozenDefs, s.defs} {
		for key, d := range defs {
			g := Definition{Or: formulaKind(key[0]) == fOr}
			for rest := []byte(key[1:]); len(rest) > 0; {
				l, n := binary.Varint(rest)
				g.Args = append(g.Args, int(l))
				rest = rest[n:]
			}
			out[d] = g
		}
	}
	return out
}

// Definition is one Tseitin gate: its variable is equivalent to the And
// (or the Or) of Args.
type Definition struct {
	Or   bool
	Args []int
}

// trueLit returns the variable shared by every constant, forced true on
// first use.
func (s *Solver) trueLit() int {
	if s.trueVar == 0 {
		s.trueVar = s.NewVar()
		s.AddClause(s.trueVar)
	}
	return s.trueVar
}

// Literal lifts a literal (as returned by Solver.Lit) into a formula.
func Literal(l int) *Formula {
	if l < 0 {
		return Not(Var(-l))
	}
	return Var(l)
}

// Eval evaluates f under the assignment given by model (indexed by
// variable). Used by tests to cross-check solver models.
func (f *Formula) Eval(model []bool) bool {
	switch f.kind {
	case fTrue:
		return true
	case fFalse:
		return false
	case fVar:
		return model[f.v]
	case fNot:
		return !f.args[0].Eval(model)
	case fAnd:
		for _, a := range f.args {
			if !a.Eval(model) {
				return false
			}
		}
		return true
	case fOr:
		for _, a := range f.args {
			if a.Eval(model) {
				return true
			}
		}
		return false
	}
	panic("sat: unknown formula kind")
}
