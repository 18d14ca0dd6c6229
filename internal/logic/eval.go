package logic

import (
	"fmt"
	"strings"
)

// Interp is a finite interpretation: a domain per sort, truth values for
// ground boolean atoms, integer values for ground numeric fields, and
// values for named constants. Missing atoms read as false, missing
// numeric entries as zero — convenient for sparse states.
type Interp struct {
	Domain map[Sort][]string
	Truth  map[string]bool
	Nums   map[string]int
	Consts map[string]int
}

// GroundAtom builds the canonical key Eval uses for a ground atom, e.g.
// "enrolled(P1,T1)".
func GroundAtom(pred string, args ...string) string {
	if len(args) == 0 {
		return pred
	}
	var buf [64]byte
	return string(AppendGroundAtom(buf[:0], pred, args...))
}

// AppendGroundAtom appends GroundAtom's key to buf, for callers that
// look a key up (m[string(b)] does not allocate) before they must keep
// it.
func AppendGroundAtom(buf []byte, pred string, args ...string) []byte {
	buf = append(buf, pred...)
	if len(args) == 0 {
		return buf
	}
	for i, a := range args {
		if i == 0 {
			buf = append(buf, '(')
		} else {
			buf = append(buf, ',')
		}
		buf = append(buf, a...)
	}
	return append(buf, ')')
}

// Eval evaluates a formula under the interpretation with the given
// variable binding. Quantifiers range over the interpretation's domain.
// It returns an error for unbound variables or unknown sorts.
//
// Counts enumerate the domain, so wildcard arguments need the predicate's
// argument sorts; pass them via Interp.Domain and the sorts parameter of
// EvalCount — for formula-level use, wildcards only appear inside counts
// whose sorts are provided by the quantifier context of the paper's
// invariants, so Eval restricts wildcards to single-sort domains: if the
// domain has exactly one sort, wildcards range over it; otherwise counts
// with wildcards need every argument bound and Eval reports an error.
func (in Interp) Eval(f Formula, env map[string]string) (bool, error) {
	switch g := f.(type) {
	case *BoolLit:
		return g.Val, nil
	case *Atom:
		var buf [64]byte
		key, err := appendGroundKey(buf[:0], g.Pred, g.Args, env)
		if err != nil {
			return false, err
		}
		return in.Truth[string(key)], nil
	case *Not:
		v, err := in.Eval(g.F, env)
		return !v, err
	case *And:
		for _, c := range g.L {
			v, err := in.Eval(c, env)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	case *Or:
		for _, c := range g.L {
			v, err := in.Eval(c, env)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	case *Implies:
		a, err := in.Eval(g.A, env)
		if err != nil {
			return false, err
		}
		if !a {
			return true, nil
		}
		return in.Eval(g.B, env)
	case *Forall:
		return in.evalForall(g, env)
	case *Cmp:
		l, err := in.evalNum(g.L, env)
		if err != nil {
			return false, err
		}
		r, err := in.evalNum(g.R, env)
		if err != nil {
			return false, err
		}
		switch g.Op {
		case EQ:
			return l == r, nil
		case NE:
			return l != r, nil
		case LT:
			return l < r, nil
		case LE:
			return l <= r, nil
		case GT:
			return l > r, nil
		case GE:
			return l >= r, nil
		}
		return false, fmt.Errorf("logic: unknown comparison %v", g.Op)
	}
	return false, fmt.Errorf("logic: cannot evaluate %T", f)
}

func (in Interp) evalForall(g *Forall, env map[string]string) (bool, error) {
	var rec func(i int, env map[string]string) (bool, error)
	rec = func(i int, env map[string]string) (bool, error) {
		if i == len(g.Vars) {
			return in.Eval(g.Body, env)
		}
		elems, ok := in.Domain[g.Vars[i].Sort]
		if !ok {
			return false, fmt.Errorf("logic: sort %q not in domain", g.Vars[i].Sort)
		}
		for _, el := range elems {
			inner := make(map[string]string, len(env)+1)
			for k, v := range env {
				inner[k] = v
			}
			inner[g.Vars[i].Name] = el
			v, err := rec(i+1, inner)
			if err != nil || !v {
				return false, err
			}
		}
		return true, nil
	}
	return rec(0, env)
}

func (in Interp) evalNum(t NumTerm, env map[string]string) (int, error) {
	switch u := t.(type) {
	case *IntLit:
		return u.N, nil
	case *ConstRef:
		return in.Consts[u.Name], nil
	case *FnApp:
		var buf [64]byte
		key, err := appendGroundKey(buf[:0], u.Fn, u.Args, env)
		if err != nil {
			return 0, err
		}
		return in.Nums[string(key)], nil
	case *Count:
		return in.evalCount(u, env)
	case *NumBin:
		l, err := in.evalNum(u.L, env)
		if err != nil {
			return 0, err
		}
		r, err := in.evalNum(u.R, env)
		if err != nil {
			return 0, err
		}
		if u.Op == '-' {
			return l - r, nil
		}
		return l + r, nil
	}
	return 0, fmt.Errorf("logic: cannot evaluate numeric term %T", t)
}

// evalCount counts true atoms matching the pattern. Wildcards enumerate
// the whole atom table: any true atom of the predicate whose bound
// positions match is counted, which avoids needing per-position sorts.
func (in Interp) evalCount(u *Count, env map[string]string) (int, error) {
	// Resolve the bound positions.
	pattern := make([]string, len(u.Args))
	for i, a := range u.Args {
		switch a.Kind {
		case TermVar:
			el, ok := env[a.Name]
			if !ok {
				return 0, fmt.Errorf("logic: unbound variable %q in count", a.Name)
			}
			pattern[i] = el
		case TermConst:
			pattern[i] = a.Name
		case TermWildcard:
			pattern[i] = ""
		}
	}
	n := 0
	prefix := u.Pred + "("
	for key, v := range in.Truth {
		if !v || !strings.HasPrefix(key, prefix) || !strings.HasSuffix(key, ")") {
			continue
		}
		args := strings.Split(key[len(prefix):len(key)-1], ",")
		if len(args) != len(pattern) {
			continue
		}
		match := true
		for i := range pattern {
			if pattern[i] != "" && pattern[i] != args[i] {
				match = false
				break
			}
		}
		if match {
			n++
		}
	}
	return n, nil
}

// appendGroundKey appends the Truth/Nums lookup key for an atom under
// env — GroundAtom's key — to buf. Eval runs it once per atom per guard
// evaluation into a stack buffer and looks the key up without
// converting it, so evaluation allocates no keys.
func appendGroundKey(buf []byte, pred string, args []Term, env map[string]string) ([]byte, error) {
	buf = append(buf, pred...)
	if len(args) == 0 {
		return buf, nil
	}
	buf = append(buf, '(')
	for i, a := range args {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch a.Kind {
		case TermVar:
			el, ok := env[a.Name]
			if !ok {
				return nil, fmt.Errorf("logic: unbound variable %q in %s", a.Name, pred)
			}
			buf = append(buf, el...)
		case TermConst:
			buf = append(buf, a.Name...)
		case TermWildcard:
			return nil, fmt.Errorf("logic: wildcard outside count in %s", pred)
		}
	}
	return append(buf, ')'), nil
}
