package smt

import (
	"fmt"
	"maps"
	"slices"

	"ipa/internal/logic"
	"ipa/internal/sat"
)

// Binding maps variable names to domain elements.
type Binding map[string]string

// Formula grounds the closed first-order formula f in state st and returns
// the propositional encoding. Quantifiers expand over the encoder's domain;
// predicate atoms resolve to the state's atom variables; numeric
// comparisons are encoded as bit-vector circuits. The formula must have no
// free variables beyond those bound in env.
func (e *Encoder) Formula(f logic.Formula, st *State, env Binding) (*sat.Formula, error) {
	if e.Work != nil {
		e.Work.Walks++
	}
	return e.formula(f, st, env)
}

func (e *Encoder) formula(f logic.Formula, st *State, env Binding) (*sat.Formula, error) {
	switch g := f.(type) {
	case *logic.BoolLit:
		if g.Val {
			return sat.TrueF(), nil
		}
		return sat.FalseF(), nil

	case *logic.Atom:
		args, err := e.groundArgs(g.Args, env, g.Pred)
		if err != nil {
			return nil, err
		}
		// A wildcard argument in a formula atom means "for every element":
		// the atom is true iff it holds for all matching ground atoms. This
		// mirrors the effect-side wildcard.
		combos, err := e.expandWildcards(g.Pred, args)
		if err != nil {
			return nil, err
		}
		parts := make([]*sat.Formula, len(combos))
		for i, c := range combos {
			parts[i] = st.Atom(g.Pred, c)
		}
		return sat.And(parts...), nil

	case *logic.Not:
		inner, err := e.formula(g.F, st, env)
		if err != nil {
			return nil, err
		}
		return sat.Not(inner), nil

	case *logic.And:
		parts := make([]*sat.Formula, len(g.L))
		for i, c := range g.L {
			p, err := e.formula(c, st, env)
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
		return sat.And(parts...), nil

	case *logic.Or:
		parts := make([]*sat.Formula, len(g.L))
		for i, c := range g.L {
			p, err := e.formula(c, st, env)
			if err != nil {
				return nil, err
			}
			parts[i] = p
		}
		return sat.Or(parts...), nil

	case *logic.Implies:
		a, err := e.formula(g.A, st, env)
		if err != nil {
			return nil, err
		}
		b, err := e.formula(g.B, st, env)
		if err != nil {
			return nil, err
		}
		return sat.Implies(a, b), nil

	case *logic.Forall:
		return e.expandForall(g, st, env)

	case *logic.Cmp:
		l, err := e.numTerm(g.L, st, env)
		if err != nil {
			return nil, err
		}
		r, err := e.numTerm(g.R, st, env)
		if err != nil {
			return nil, err
		}
		return e.compare(g.Op, l, r), nil
	}
	return nil, fmt.Errorf("smt: unknown formula node %T", f)
}

func (e *Encoder) expandForall(g *logic.Forall, st *State, env Binding) (*sat.Formula, error) {
	// Expand variables one tuple at a time (depth-first product), rebinding
	// them in one private copy of env: grounding the body retains no env.
	inner := make(Binding, len(env)+len(g.Vars))
	for k, x := range env {
		inner[k] = x
	}
	var parts []*sat.Formula
	var rec func(i int) error
	rec = func(i int) error {
		if i == len(g.Vars) {
			p, err := e.formula(g.Body, st, inner)
			if err != nil {
				return err
			}
			parts = append(parts, p)
			return nil
		}
		v := g.Vars[i]
		elems, ok := e.Dom[v.Sort]
		if !ok {
			return fmt.Errorf("smt: sort %q not in domain", v.Sort)
		}
		for _, el := range elems {
			inner[v.Name] = el
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return sat.And(parts...), nil
}

func (e *Encoder) compare(op logic.CmpOp, l, r bv) *sat.Formula {
	switch op {
	case logic.EQ:
		return e.equal(l, r)
	case logic.NE:
		return sat.Not(e.equal(l, r))
	case logic.LT:
		return e.less(l, r)
	case logic.LE:
		return sat.Not(e.less(r, l))
	case logic.GT:
		return e.less(r, l)
	case logic.GE:
		return sat.Not(e.less(l, r))
	}
	panic("smt: unknown comparison operator")
}

func (e *Encoder) numTerm(t logic.NumTerm, st *State, env Binding) (bv, error) {
	switch u := t.(type) {
	case *logic.IntLit:
		return constBV(u.N), nil
	case *logic.ConstRef:
		return e.constVec(u.Name), nil
	case *logic.FnApp:
		args, err := e.groundArgs(u.Args, env, u.Fn)
		if err != nil {
			return nil, err
		}
		for _, a := range args {
			if a == "" {
				return nil, fmt.Errorf("smt: wildcard argument in numeric field %s", u.Fn)
			}
		}
		return st.Fn(u.Fn, args), nil
	case *logic.Count:
		args, err := e.groundArgs(u.Args, env, u.Pred)
		if err != nil {
			return nil, err
		}
		combos, err := e.expandWildcards(u.Pred, args)
		if err != nil {
			return nil, err
		}
		bits := make([]*sat.Formula, len(combos))
		for i, c := range combos {
			bits[i] = st.Atom(u.Pred, c)
		}
		return e.sum(bits), nil
	case *logic.NumBin:
		l, err := e.numTerm(u.L, st, env)
		if err != nil {
			return nil, err
		}
		r, err := e.numTerm(u.R, st, env)
		if err != nil {
			return nil, err
		}
		if u.Op == '-' {
			return e.sub(l, r), nil
		}
		return e.add(l, r), nil
	}
	return nil, fmt.Errorf("smt: unknown numeric term %T", t)
}

// groundArgs resolves terms to domain elements: variables through env,
// constants as themselves, wildcards as "".
func (e *Encoder) groundArgs(args []logic.Term, env Binding, what string) ([]string, error) {
	out := make([]string, len(args))
	for i, a := range args {
		switch a.Kind {
		case logic.TermVar:
			el, ok := env[a.Name]
			if !ok {
				return nil, fmt.Errorf("smt: unbound variable %q in %s", a.Name, what)
			}
			out[i] = el
		case logic.TermConst:
			out[i] = a.Name
		case logic.TermWildcard:
			out[i] = ""
		}
	}
	return out, nil
}

// expandWildcards enumerates ground argument tuples for a pattern that may
// contain wildcards, using the predicate signature for the sorts.
func (e *Encoder) expandWildcards(pred string, args []string) ([][]string, error) {
	hasWild := false
	for _, a := range args {
		if a == "" {
			hasWild = true
			break
		}
	}
	if !hasWild {
		return [][]string{args}, nil
	}
	sorts, ok := e.Sig[pred]
	if !ok || len(sorts) != len(args) {
		return nil, fmt.Errorf("smt: wildcard in %s needs a signature with %d sorts", pred, len(args))
	}
	out := [][]string{{}}
	for i, a := range args {
		var next [][]string
		if a != "" {
			for _, prefix := range out {
				next = append(next, append(append([]string{}, prefix...), a))
			}
		} else {
			elems, ok := e.Dom[sorts[i]]
			if !ok {
				return nil, fmt.Errorf("smt: sort %q of %s arg %d not in domain", sorts[i], pred, i)
			}
			for _, prefix := range out {
				for _, el := range elems {
					next = append(next, append(append([]string{}, prefix...), el))
				}
			}
		}
		out = next
	}
	return out, nil
}

// Assert grounds f in st and asserts it must hold.
func (e *Encoder) Assert(f logic.Formula, st *State) error {
	p, err := e.Formula(f, st, Binding{})
	if err != nil {
		return err
	}
	e.S.Assert(p)
	return nil
}

// AssertNot grounds f in st and asserts its negation.
func (e *Encoder) AssertNot(f logic.Formula, st *State) error {
	p, err := e.Formula(f, st, Binding{})
	if err != nil {
		return err
	}
	e.S.Assert(sat.Not(p))
	return nil
}

// Solve runs the SAT solver.
func (e *Encoder) Solve() bool { return e.S.Solve() }

// AtomValue reports the model value of a ground atom in st after a
// satisfiable query (for counterexample printing). The atom must have been
// mentioned by an encoded formula.
func (st *State) AtomValue(pred string, args []string) (bool, bool) {
	return st.AtomValueByKey(atomKey(pred, args))
}

// FnValue reports the model value of a ground numeric field in st.
func (st *State) FnValue(fn string, args []string) (int, bool) {
	return st.FnValueByKey(atomKey(fn, args))
}

// Atoms lists the ground atoms this state has materialised (model
// inspection helper).
func (st *State) Atoms() []string {
	out := slices.Collect(maps.Keys(st.atoms))
	for k := range st.frozenAtoms {
		if _, ok := st.atoms[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// Fns lists the ground numeric fields this state has materialised.
func (st *State) Fns() []string {
	out := slices.Collect(maps.Keys(st.fns))
	for k := range st.frozenFns {
		if _, ok := st.fns[k]; !ok {
			out = append(out, k)
		}
	}
	return out
}

// FnValueByKey reports the model value of a materialised numeric field by
// its canonical key (as returned by Fns).
func (st *State) FnValueByKey(key string) (int, bool) {
	v, ok := st.fns[key]
	if !ok {
		v, ok = st.frozenFns[key]
	}
	if !ok {
		return 0, false
	}
	return st.enc.valueOf(v), true
}

// AtomValueByKey reports the model value of a materialised atom by its
// canonical key (as returned by Atoms).
func (st *State) AtomValueByKey(key string) (bool, bool) {
	f, ok := st.atoms[key]
	if !ok {
		f, ok = st.frozenAtoms[key]
	}
	if !ok {
		return false, false
	}
	return f.Eval(st.enc.S.Model()), true
}
