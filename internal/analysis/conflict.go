// Package analysis implements the IPA static analysis (paper §3, Alg. 1):
// detecting pairs of operations whose concurrent execution can violate an
// application invariant, proposing minimal repairs that restore operation
// preconditions through additional effects and convergence rules, and
// synthesising compensations for numeric invariants that cannot reasonably
// be prevented up front (§3.4).
//
// Conflict detection follows the paper's formulation (Fig. 2): a pair
// (o1, o2) conflicts iff there is an I-valid pre-state S admitting both
// operations — i.e. o1(S) and o2(S) are I-valid — whose merged state
// merge(o1(S), o2(S)) under the convergence rules violates I. The check is
// grounded over a small scope and decided by the SAT-based solver in
// package smt (standing in for Z3), with all parameter-aliasing patterns
// covered by binding enumeration (pairwise checking is sound, Gotsman et
// al. [24]).
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ipa/internal/logic"
	"ipa/internal/sat"
	"ipa/internal/smt"
	"ipa/internal/spec"
)

// Options tunes the analysis.
type Options struct {
	// Scope is the number of domain elements per sort (default 2).
	Scope int
	// MaxRepairPreds caps how many extra effects one repair may add
	// (default 2). The search enumerates candidate sets by increasing
	// size, so found repairs are minimal regardless of the cap.
	MaxRepairPreds int
	// DisableRuleSuggestion forbids the repair search from introducing
	// convergence rules for predicates the programmer left unconstrained;
	// by default the search may propose them (a programmer-provided rule
	// is never overridden either way).
	DisableRuleSuggestion bool
	// Chooser picks among the candidate repairs for one conflict; the
	// default picks the first (repairs are ordered smallest-first, ties
	// broken deterministically). This is the paper's pickResolution hook,
	// used interactively by cmd/ipa.
	Chooser func(*Conflict, []Repair) int
	// MaxIters bounds the repair loop (default 32).
	MaxIters int
}

// DefaultOptions returns the options used when zero values are passed.
func DefaultOptions() Options {
	return Options{Scope: 2, MaxRepairPreds: 2, MaxIters: 32}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Scope <= 0 {
		o.Scope = d.Scope
	}
	if o.MaxRepairPreds <= 0 {
		o.MaxRepairPreds = d.MaxRepairPreds
	}
	if o.MaxIters <= 0 {
		o.MaxIters = d.MaxIters
	}
	return o
}

// Conflict reports that two operations are not I-confluent, with the
// counterexample found by the solver.
type Conflict struct {
	Op1, Op2 *spec.Operation
	// Binding1/Binding2 give the parameter instantiation of the
	// counterexample (parameter name -> domain element).
	Binding1, Binding2 map[string]string
	// ViolatedClauses are the invariant clauses false in the merged state.
	ViolatedClauses []logic.Formula
	// Numeric reports that every violated clause involves a count or
	// numeric field, routing the conflict to compensations (§3.4).
	Numeric bool
	// Example is the witness state assignment.
	Example *Counterexample
}

// Key identifies the (unordered) operation pair.
func (c *Conflict) Key() string { return pairKey(c.Op1.Name, c.Op2.Name) }

func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "∥" + b
}

func (c *Conflict) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "conflict %s(%s) ∥ %s(%s)", c.Op1.Name, bindingString(c.Binding1, c.Op1), c.Op2.Name, bindingString(c.Binding2, c.Op2))
	for _, cl := range c.ViolatedClauses {
		fmt.Fprintf(&b, "\n  violates: %s", cl)
	}
	return b.String()
}

func bindingString(b map[string]string, op *spec.Operation) string {
	parts := make([]string, len(op.Params))
	for i, p := range op.Params {
		parts[i] = b[p.Name]
	}
	return strings.Join(parts, ", ")
}

// Counterexample is the model the solver found: an initial state, the two
// post-states, and the invalid merged state.
type Counterexample struct {
	Pre, Post1, Post2, Merged map[string]bool
	PreFns, MergedFns         map[string]int
	Consts                    map[string]int
}

func (ce *Counterexample) String() string {
	var b strings.Builder
	writeState := func(name string, atoms map[string]bool, fns map[string]int) {
		keys := make([]string, 0, len(atoms))
		for k, v := range atoms {
			if v {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "  %-7s {%s}", name, strings.Join(keys, " "))
		fkeys := make([]string, 0, len(fns))
		for k := range fns {
			fkeys = append(fkeys, k)
		}
		sort.Strings(fkeys)
		for _, k := range fkeys {
			fmt.Fprintf(&b, " %s=%d", k, fns[k])
		}
		b.WriteByte('\n')
	}
	writeState("pre", ce.Pre, ce.PreFns)
	writeState("post1", ce.Post1, nil)
	writeState("post2", ce.Post2, nil)
	writeState("merged", ce.Merged, ce.MergedFns)
	if len(ce.Consts) > 0 {
		keys := make([]string, 0, len(ce.Consts))
		for k := range ce.Consts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  const %s=%d\n", k, ce.Consts[k])
		}
	}
	return b.String()
}

// domainFor builds the analysis scope for the spec's sorts.
func domainFor(s *spec.Spec, scope int) smt.Domain {
	return smt.UniformScope(s.Sorts(), scope)
}

// clauseFilter selects which invariant clauses may appear violated in the
// merged state; nil means all.
type clauseFilter func(logic.Formula) bool

func boolClausesOnly(f logic.Formula) bool { return !logic.HasCount(f) }

// IsConflicting checks one operation pair under every parameter binding
// and returns the first conflict found, or nil (paper isConflicting). The
// filter restricts which clauses count as violations (nil = all). The
// bindings are decided on one session; the reported conflict's witness
// is re-solved on a fresh encoder.
func IsConflicting(s *spec.Spec, op1, op2 *spec.Operation, opts Options, filter clauseFilter) (*Conflict, error) {
	return isConflicting(s, op1, op2, opts.withDefaults(), filter, &groundings{})
}

// isConflicting is IsConflicting with the run's groundings.
func isConflicting(s *spec.Spec, op1, op2 *spec.Operation, opts Options, filter clauseFilter, g *groundings) (*Conflict, error) {
	clauses := logic.Clauses(s.Invariant())
	var checked []logic.Formula
	for _, cl := range clauses {
		if filter == nil || filter(cl) {
			checked = append(checked, cl)
		}
	}
	if len(checked) == 0 {
		return nil, nil
	}
	ss, err := g.session(s, opts, g.main())
	if err != nil {
		return nil, err
	}
	b1, b2, found, err := ss.firstConflict(op1, op2, filter)
	if err != nil || !found {
		return nil, err
	}
	c, err := checkBinding(s, ss.enc.Dom, ss.enc.Sig, clauses, checked, op1, op2, b1, b2)
	if err != nil {
		return nil, err
	}
	if c == nil {
		return nil, fmt.Errorf("analysis: %s(%s) ∥ %s(%s) conflicts on the session but not on a fresh solve",
			op1.Name, bindingString(b1, op1), op2.Name, bindingString(b2, op2))
	}
	return c, nil
}

// checkBinding runs one four-state satisfiability query.
func checkBinding(s *spec.Spec, dom smt.Domain, sig smt.Signature, allClauses, checked []logic.Formula,
	op1, op2 *spec.Operation, b1, b2 map[string]string) (*Conflict, error) {

	ge1, err := op1.Ground(b1)
	if err != nil {
		return nil, err
	}
	ge2, err := op2.Ground(b2)
	if err != nil {
		return nil, err
	}

	enc := smt.NewEncoder(dom, sig)
	pre := enc.NewState("pre")
	post1 := enc.Apply(pre, ge1, "post1")
	post2 := enc.Apply(pre, ge2, "post2")
	merged := enc.Merge(pre, ge1, ge2, s.Resolver(), "merged")

	inv := logic.Conj(allClauses...)
	for _, st := range []*smt.State{pre, post1, post2} {
		if err := enc.Assert(inv, st); err != nil {
			return nil, err
		}
	}
	// Encode each checked clause on the merged state separately so the
	// violated ones can be identified from the model afterwards.
	mergedClauses := make([]*sat.Formula, len(checked))
	for i, cl := range checked {
		f, err := enc.Formula(cl, merged, smt.Binding{})
		if err != nil {
			return nil, err
		}
		mergedClauses[i] = f
	}
	enc.S.Assert(sat.Not(sat.And(mergedClauses...)))

	if !enc.Solve() {
		return nil, nil
	}

	model := enc.S.Model()
	c := &Conflict{Op1: op1, Op2: op2, Binding1: b1, Binding2: b2, Numeric: true}
	for i, f := range mergedClauses {
		if !f.Eval(model) {
			c.ViolatedClauses = append(c.ViolatedClauses, checked[i])
			if !logic.HasCount(checked[i]) {
				c.Numeric = false
			}
		}
	}
	c.Example = extractExample(enc, pre, post1, post2, merged)
	return c, nil
}

func extractExample(enc *smt.Encoder, pre, post1, post2, merged *smt.State) *Counterexample {
	ce := &Counterexample{
		Pre: map[string]bool{}, Post1: map[string]bool{}, Post2: map[string]bool{}, Merged: map[string]bool{},
		PreFns: map[string]int{}, MergedFns: map[string]int{}, Consts: map[string]int{},
	}
	read := func(st *smt.State, out map[string]bool) {
		for _, k := range st.Atoms() {
			if v, ok := st.AtomValueByKey(k); ok {
				out[k] = v
			}
		}
	}
	read(pre, ce.Pre)
	read(post1, ce.Post1)
	read(post2, ce.Post2)
	read(merged, ce.Merged)
	for _, k := range pre.Fns() {
		if v, ok := pre.FnValueByKey(k); ok {
			ce.PreFns[k] = v
		}
	}
	for _, k := range merged.Fns() {
		if v, ok := merged.FnValueByKey(k); ok {
			ce.MergedFns[k] = v
		}
	}
	for _, name := range enc.Consts() {
		ce.Consts[name], _ = enc.ConstValue(name)
	}
	return ce
}

// enumBindings enumerates parameter bindings over the domain. When
// canonical is set, bindings are restricted to first-occurrence canonical
// form (each new parameter of a sort uses at most one element beyond those
// already used for that sort), which is sound because domain elements are
// interchangeable.
func enumBindings(params []logic.Var, dom smt.Domain, canonical bool) []map[string]string {
	out := []map[string]string{{}}
	used := map[logic.Sort]int{} // per-sort high-water mark for canonical form
	for _, p := range params {
		elems := dom[p.Sort]
		var next []map[string]string
		limit := len(elems)
		if canonical {
			if used[p.Sort]+1 < limit {
				limit = used[p.Sort] + 1
			}
			used[p.Sort]++
			if used[p.Sort] > len(elems) {
				used[p.Sort] = len(elems)
			}
		}
		for _, b := range out {
			for i := 0; i < limit; i++ {
				nb := make(map[string]string, len(b)+1)
				for k, v := range b {
					nb[k] = v
				}
				nb[p.Name] = elems[i]
				next = append(next, nb)
			}
		}
		out = next
	}
	return out
}

// FindConflicts scans every unordered operation pair (including an
// operation with itself) in deterministic order and returns all conflicts,
// one per conflicting pair.
func FindConflicts(s *spec.Spec, opts Options) ([]*Conflict, error) {
	opts = opts.withDefaults()
	g := &groundings{}
	var out []*Conflict
	for i := 0; i < len(s.Operations); i++ {
		for j := i; j < len(s.Operations); j++ {
			c, err := isConflicting(s, s.Operations[i], s.Operations[j], opts, nil, g)
			if err != nil {
				return nil, err
			}
			if c != nil {
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// findFirstConflict returns the first conflicting pair not in skip.
func findFirstConflict(s *spec.Spec, opts Options, skip map[string]bool, filter clauseFilter, g *groundings) (*Conflict, error) {
	for i := 0; i < len(s.Operations); i++ {
		for j := i; j < len(s.Operations); j++ {
			if skip[pairKey(s.Operations[i].Name, s.Operations[j].Name)] {
				continue
			}
			c, err := isConflicting(s, s.Operations[i], s.Operations[j], opts, filter, g)
			if err != nil {
				return nil, err
			}
			if c != nil {
				return c, nil
			}
		}
	}
	return nil, nil
}
