// Package spec models IPA application specifications: operations with
// their effects over logical predicates, application invariants, and
// per-predicate convergence rules (paper §3.1, Fig. 1).
//
// A specification can be written programmatically or parsed from the
// textual format:
//
//	spec tournament
//
//	const Capacity = 16
//
//	invariant forall (Player: p, Tournament: t) :- enrolled(p, t) => player(p) and tournament(t)
//
//	rule player add-wins
//
//	operation enroll(Player: p, Tournament: t) {
//	    enrolled(p, t) := true
//	}
package spec

import (
	"fmt"
	"sort"
	"strings"

	"ipa/internal/logic"
	"ipa/internal/smt"
)

// Policy is a per-predicate convergence rule: the outcome when concurrent
// operations write opposing values to the same predicate instance.
type Policy uint8

// Convergence policies.
const (
	NoPolicy Policy = iota // no rule: merge outcome unconstrained
	AddWins                // concurrent add/remove resolves to present
	RemWins                // concurrent add/remove resolves to absent
)

func (p Policy) String() string {
	switch p {
	case AddWins:
		return "add-wins"
	case RemWins:
		return "rem-wins"
	}
	return "none"
}

// EffectKind distinguishes boolean assignments from numeric deltas.
type EffectKind uint8

// Effect kinds.
const (
	BoolAssign EffectKind = iota // pred(args) := true/false
	NumDelta                     // fn(args) += n
)

// Effect is one predicate update performed by an operation. Args refer to
// operation parameters, wildcards, or constants.
type Effect struct {
	Kind  EffectKind
	Pred  string
	Args  []logic.Term
	Val   bool // for BoolAssign
	Delta int  // for NumDelta
	// Injected marks an effect the analysis added to repair a conflict
	// (printed as a leading "injected" keyword). It records where the
	// effect came from, not what it does: Equal ignores it, and the
	// engine runs an injected re-assertion as a payload-preserving touch.
	Injected bool
}

func (e Effect) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	head := fmt.Sprintf("%s(%s)", e.Pred, strings.Join(args, ", "))
	if e.Kind == BoolAssign {
		return fmt.Sprintf("%s := %v", head, e.Val)
	}
	if e.Delta < 0 {
		return fmt.Sprintf("%s -= %d", head, -e.Delta)
	}
	return fmt.Sprintf("%s += %d", head, e.Delta)
}

// Equal reports structural equality of effects; the Injected mark does
// not take part.
func (e Effect) Equal(o Effect) bool {
	if e.Kind != o.Kind || e.Pred != o.Pred || len(e.Args) != len(o.Args) {
		return false
	}
	for i := range e.Args {
		if e.Args[i] != o.Args[i] {
			return false
		}
	}
	return e.Val == o.Val && e.Delta == o.Delta
}

// Operation is a named operation with sorted parameters, optional
// preconditions, and effects.
type Operation struct {
	Name   string
	Params []logic.Var
	// Pre are explicit preconditions ("requires" clauses): formulas over
	// the operation's parameters that must hold in the origin replica's
	// visible state for the operation to execute (the paper's model has
	// every operation verify its preconditions against local state; a
	// failed precondition makes the operation a no-op). The analysis
	// ignores them — restricting executability can only remove conflicts,
	// so reasoning without them is conservative.
	Pre     []logic.Formula
	Effects []Effect
}

// Clone returns a deep copy of the operation.
func (o *Operation) Clone() *Operation {
	c := &Operation{Name: o.Name}
	c.Params = append([]logic.Var(nil), o.Params...)
	c.Pre = append([]logic.Formula(nil), o.Pre...)
	for _, e := range o.Effects {
		e.Args = append([]logic.Term(nil), e.Args...)
		c.Effects = append(c.Effects, e)
	}
	return c
}

// HasEffect reports whether the operation already contains an effect equal
// to e.
func (o *Operation) HasEffect(e Effect) bool {
	for _, x := range o.Effects {
		if x.Equal(e) {
			return true
		}
	}
	return false
}

// Param returns the first parameter with the given sort, if any.
func (o *Operation) Param(s logic.Sort) (logic.Var, bool) {
	for _, p := range o.Params {
		if p.Sort == s {
			return p, true
		}
	}
	return logic.Var{}, false
}

func (o *Operation) String() string {
	params := make([]string, len(o.Params))
	for i, p := range o.Params {
		params[i] = p.String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "operation %s(%s) {\n", o.Name, strings.Join(params, ", "))
	for _, p := range o.Pre {
		fmt.Fprintf(&b, "    requires %s\n", p)
	}
	for _, e := range o.Effects {
		mark := ""
		if e.Injected {
			mark = "injected "
		}
		fmt.Fprintf(&b, "    %s%s\n", mark, e)
	}
	b.WriteString("}")
	return b.String()
}

// Ground instantiates the operation's effects under a parameter binding,
// producing the footprint the smt encoder consumes. Unbound wildcard
// arguments stay wildcards ("").
func (o *Operation) Ground(binding map[string]string) (smt.GroundEffects, error) {
	var out smt.GroundEffects
	for _, e := range o.Effects {
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			switch a.Kind {
			case logic.TermVar:
				el, ok := binding[a.Name]
				if !ok {
					return smt.GroundEffects{}, fmt.Errorf("spec: operation %s: unbound parameter %q", o.Name, a.Name)
				}
				args[i] = el
			case logic.TermConst:
				args[i] = a.Name
			case logic.TermWildcard:
				args[i] = ""
			}
		}
		if e.Kind == BoolAssign {
			out.Bools = append(out.Bools, smt.BoolEffect{Pred: e.Pred, Args: args, Val: e.Val})
		} else {
			out.Nums = append(out.Nums, smt.NumEffect{Fn: e.Pred, Args: args, Delta: e.Delta})
		}
	}
	return out, nil
}

// Spec is a full application specification.
type Spec struct {
	Name       string
	Invariants []logic.Formula
	Operations []*Operation
	Rules      map[string]Policy // per-predicate convergence rules
	Consts     map[string]int    // concrete values for symbolic constants (runtime use)
	Tags       []string          // free-form metadata, e.g. "unique-ids"
}

// New returns an empty specification with the given name.
func New(name string) *Spec {
	return &Spec{Name: name, Rules: map[string]Policy{}, Consts: map[string]int{}}
}

// Clone returns a deep copy of the specification.
func (s *Spec) Clone() *Spec {
	c := New(s.Name)
	c.Invariants = append([]logic.Formula(nil), s.Invariants...)
	for _, o := range s.Operations {
		c.Operations = append(c.Operations, o.Clone())
	}
	for k, v := range s.Rules {
		c.Rules[k] = v
	}
	for k, v := range s.Consts {
		c.Consts[k] = v
	}
	c.Tags = append([]string(nil), s.Tags...)
	return c
}

// Invariant returns the conjunction of all invariants.
func (s *Spec) Invariant() logic.Formula {
	return logic.Conj(s.Invariants...)
}

// Operation looks up an operation by name.
func (s *Spec) Operation(name string) (*Operation, bool) {
	for _, o := range s.Operations {
		if o.Name == name {
			return o, true
		}
	}
	return nil, false
}

// Replace swaps the operation with the same name for the given one.
func (s *Spec) Replace(op *Operation) {
	for i, o := range s.Operations {
		if o.Name == op.Name {
			s.Operations[i] = op
			return
		}
	}
	s.Operations = append(s.Operations, op)
}

// Sorts returns every sort used by invariants and operation parameters.
func (s *Spec) Sorts() []logic.Sort {
	set := map[logic.Sort]bool{}
	for _, o := range s.Operations {
		for _, p := range o.Params {
			set[p.Sort] = true
		}
	}
	for _, ref := range logic.Predicates(s.Invariant()) {
		for _, srt := range ref.Sorts {
			if srt != "" {
				set[srt] = true
			}
		}
	}
	out := make([]logic.Sort, 0, len(set))
	for srt := range set {
		out = append(out, srt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Signature derives the predicate signature from invariants and effects,
// for wildcard expansion in the analysis.
func (s *Spec) Signature() (smt.Signature, error) {
	sig := smt.Signature{}
	merge := func(name string, sorts []logic.Sort) error {
		if old, ok := sig[name]; ok {
			if len(old) != len(sorts) {
				return fmt.Errorf("spec: predicate %s used with arities %d and %d", name, len(old), len(sorts))
			}
			for i := range old {
				if old[i] == "" {
					old[i] = sorts[i]
				} else if sorts[i] != "" && sorts[i] != old[i] {
					return fmt.Errorf("spec: predicate %s arg %d used with sorts %s and %s", name, i, old[i], sorts[i])
				}
			}
			return nil
		}
		cp := append([]logic.Sort(nil), sorts...)
		sig[name] = cp
		return nil
	}
	for _, ref := range logic.Predicates(s.Invariant()) {
		if err := merge(ref.Name, ref.Sorts); err != nil {
			return nil, err
		}
	}
	for _, o := range s.Operations {
		paramSort := map[string]logic.Sort{}
		for _, p := range o.Params {
			paramSort[p.Name] = p.Sort
		}
		for _, e := range o.Effects {
			sorts := make([]logic.Sort, len(e.Args))
			for i, a := range e.Args {
				if a.Kind == logic.TermVar {
					sorts[i] = paramSort[a.Name]
				}
			}
			if err := merge(e.Pred, sorts); err != nil {
				return nil, err
			}
		}
	}
	return sig, nil
}

// Validate checks internal consistency: effect arguments refer to declared
// parameters, predicate arities are coherent, and convergence rules name
// known predicates.
func (s *Spec) Validate() error {
	if _, err := s.Signature(); err != nil {
		return err
	}
	sig, _ := s.Signature()
	for _, o := range s.Operations {
		params := map[string]bool{}
		for _, p := range o.Params {
			if params[p.Name] {
				return fmt.Errorf("spec: operation %s: duplicate parameter %q", o.Name, p.Name)
			}
			params[p.Name] = true
		}
		if len(o.Effects) == 0 {
			return fmt.Errorf("spec: operation %s has no effects", o.Name)
		}
		for _, pre := range o.Pre {
			for _, v := range logic.FreeVars(pre) {
				if !params[v] {
					return fmt.Errorf("spec: operation %s: precondition %s uses undeclared parameter %q", o.Name, pre, v)
				}
			}
		}
		for _, e := range o.Effects {
			for _, a := range e.Args {
				if a.Kind == logic.TermVar && !params[a.Name] {
					return fmt.Errorf("spec: operation %s: effect %s uses undeclared parameter %q", o.Name, e, a.Name)
				}
			}
			if e.Kind == NumDelta && e.Delta == 0 {
				return fmt.Errorf("spec: operation %s: numeric effect %s has zero delta", o.Name, e)
			}
		}
	}
	for pred := range s.Rules {
		if _, ok := sig[pred]; !ok {
			return fmt.Errorf("spec: convergence rule for unknown predicate %q", pred)
		}
	}
	return nil
}

// String renders the specification in the parseable textual format.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spec %s\n", s.Name)
	for _, t := range s.Tags {
		fmt.Fprintf(&b, "tag %s\n", t)
	}
	b.WriteByte('\n')
	consts := make([]string, 0, len(s.Consts))
	for k := range s.Consts {
		consts = append(consts, k)
	}
	sort.Strings(consts)
	for _, k := range consts {
		fmt.Fprintf(&b, "const %s = %d\n", k, s.Consts[k])
	}
	if len(consts) > 0 {
		b.WriteByte('\n')
	}
	for _, inv := range s.Invariants {
		fmt.Fprintf(&b, "invariant %s\n", inv)
	}
	if len(s.Invariants) > 0 {
		b.WriteByte('\n')
	}
	rules := make([]string, 0, len(s.Rules))
	for k := range s.Rules {
		rules = append(rules, k)
	}
	sort.Strings(rules)
	for _, k := range rules {
		if s.Rules[k] != NoPolicy {
			fmt.Fprintf(&b, "rule %s %s\n", k, s.Rules[k])
		}
	}
	if len(rules) > 0 {
		b.WriteByte('\n')
	}
	for i, o := range s.Operations {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Resolver adapts the convergence rules to the smt.ResolveFunc interface.
func (s *Spec) Resolver() smt.ResolveFunc {
	return func(pred string) (bool, bool) {
		switch s.Rules[pred] {
		case AddWins:
			return true, true
		case RemWins:
			return false, true
		}
		return false, false
	}
}
