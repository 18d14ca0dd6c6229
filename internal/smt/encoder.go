package smt

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"

	"ipa/internal/logic"
	"ipa/internal/sat"
)

// Domain assigns each sort a finite set of distinct elements — the "small
// scope" over which the analysis grounds quantifiers. Two elements per sort
// suffice for purely relational invariants; counting invariants need three
// (one pre-existing element plus two concurrently added ones).
type Domain map[logic.Sort][]string

// UniformScope builds a domain with n synthetic elements per sort, named
// Sort1..Sortn.
func UniformScope(sorts []logic.Sort, n int) Domain {
	d := make(Domain, len(sorts))
	for _, s := range sorts {
		elems := make([]string, n)
		for i := range elems {
			elems[i] = fmt.Sprintf("%s%d", s, i+1)
		}
		d[s] = elems
	}
	return d
}

// Sorts returns the domain's sorts in deterministic order.
func (d Domain) Sorts() []logic.Sort {
	out := make([]logic.Sort, 0, len(d))
	for s := range d {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Signature records the argument sorts of every predicate and numeric
// field, so wildcards and counts know what to range over.
type Signature map[string][]logic.Sort

// BoolEffect is a ground (or wildcard-pattern) boolean assignment:
// Pred(Args) := Val. An empty string in Args is a wildcard matching every
// domain element of the corresponding sort.
type BoolEffect struct {
	Pred string
	Args []string
	Val  bool
}

func (be BoolEffect) String() string {
	args := make([]string, len(be.Args))
	for i, a := range be.Args {
		if a == "" {
			args[i] = "*"
		} else {
			args[i] = a
		}
	}
	return fmt.Sprintf("%s(%s) := %v", be.Pred, strings.Join(args, ","), be.Val)
}

// NumEffect is a ground numeric delta: Fn(Args) += Delta.
type NumEffect struct {
	Fn    string
	Args  []string
	Delta int
}

func (ne NumEffect) String() string {
	op := "+="
	d := ne.Delta
	if d < 0 {
		op, d = "-=", -d
	}
	return fmt.Sprintf("%s(%s) %s %d", ne.Fn, strings.Join(ne.Args, ","), op, d)
}

// GroundEffects is the grounded footprint of one operation invocation.
type GroundEffects struct {
	Bools []BoolEffect
	Nums  []NumEffect
}

// AppendKey appends to dst a key that two footprints share iff they have
// the same effects in the same order.
func (ge GroundEffects) AppendKey(dst []byte) []byte {
	for _, be := range ge.Bools {
		dst = append(dst, 'b')
		dst = append(dst, be.Pred...)
		for _, a := range be.Args {
			dst = append(dst, 0)
			dst = append(dst, a...)
		}
		dst = append(dst, 1)
		dst = strconv.AppendBool(dst, be.Val)
	}
	for _, ne := range ge.Nums {
		dst = append(dst, 'n')
		dst = append(dst, ne.Fn...)
		for _, a := range ne.Args {
			dst = append(dst, 0)
			dst = append(dst, a...)
		}
		dst = append(dst, 1)
		dst = strconv.AppendInt(dst, int64(ne.Delta), 10)
	}
	return dst
}

// Encoder owns a SAT solver and the shared symbolic constants; states are
// created against it. Create one Encoder per satisfiability query.
type Encoder struct {
	S   *sat.Solver
	Dom Domain
	Sig Signature
	// Work, if set, counts the formulas Formula walks and the clause
	// literals Grounding.Clause rebuilds.
	Work   *Work
	consts map[string]bv
	key    []byte // scratch for State.Atom/Fn cache lookups
	vals   []int  // scratch for Grounding.Clause: one literal per node
	args   []int  // scratch for Grounding.Clause: one gate's child literals
}

// Work counts what encoders ground, for the tests that pin it.
type Work struct {
	Walks          int // formula ASTs walked by Formula
	Instantiations int // clause literals rebuilt in a derived state by Grounding.Clause
}

// NewEncoder returns an encoder over the given domain and signature.
func NewEncoder(dom Domain, sig Signature) *Encoder {
	return &Encoder{S: sat.New(), Dom: dom, Sig: sig, consts: map[string]bv{}}
}

// Prefix is an encoder frozen after grounding: its solver, its symbolic
// constants, and the atom and field tables of one root state. It is
// immutable; Start begins any number of encoders from it.
type Prefix struct {
	dom    Domain
	sig    Signature
	solver *sat.Prefix
	consts map[string]bv
	root   string
	atoms  map[string]*sat.Formula
	fns    map[string]bv
}

// Freeze returns the encoder, with root — a root state created by e — as
// a prefix. Nothing e or root do later changes the prefix.
func (e *Encoder) Freeze(root *State) *Prefix {
	atoms := make(map[string]*sat.Formula, len(root.frozenAtoms)+len(root.atoms))
	maps.Copy(atoms, root.frozenAtoms)
	maps.Copy(atoms, root.atoms)
	fns := make(map[string]bv, len(root.frozenFns)+len(root.fns))
	maps.Copy(fns, root.frozenFns)
	maps.Copy(fns, root.fns)
	return &Prefix{dom: e.Dom, sig: e.Sig, solver: e.S.Freeze(), consts: maps.Clone(e.consts),
		root: root.name, atoms: atoms, fns: fns}
}

// Start returns a new encoder that begins where the frozen one stood, and
// a root state that reads the frozen root's atoms and fields and adds its
// own. Both number variables exactly as the frozen encoder and root would
// have from that point on, so whatever is encoded next yields the same
// clauses over the same variables.
func (p *Prefix) Start() (*Encoder, *State) { return p.StartOn(new(sat.Solver)) }

// StartOn is Start on a given solver, which it resets to the frozen one
// (sat.Solver.ResetFrom) and so reuses the buffers of: the solver is the
// new encoder's, and nothing earlier encoded on it may be used again.
func (p *Prefix) StartOn(s *sat.Solver) (*Encoder, *State) {
	s.ResetFrom(p.solver)
	e := &Encoder{S: s, Dom: p.dom, Sig: p.sig, consts: maps.Clone(p.consts)}
	return e, &State{enc: e, name: p.root, frozenAtoms: p.atoms, frozenFns: p.fns}
}

// constWidth is the bit width of symbolic constants (range 0..2^(w-1)-1).
const constWidth = 7

// constVec returns (allocating on first use) the bit-vector of the named
// symbolic constant, constrained to be non-negative.
func (e *Encoder) constVec(name string) bv {
	if v, ok := e.consts[name]; ok {
		return v
	}
	v := make(bv, constWidth)
	for i := range v {
		v[i] = sat.Var(e.S.NewVar())
	}
	e.S.Assert(sat.Not(v[constWidth-1])) // sign bit clear: value >= 0
	e.consts[name] = v
	return v
}

// Consts lists, sorted, the symbolic constants the encoded formulas
// mention.
func (e *Encoder) Consts() []string {
	out := make([]string, 0, len(e.consts))
	for name := range e.consts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ConstValue reports the model value of a named constant after a
// satisfiable query (for counterexample printing).
func (e *Encoder) ConstValue(name string) (int, bool) {
	v, ok := e.consts[name]
	if !ok {
		return 0, false
	}
	return e.valueOf(v), true
}

// State is one copy of the database state. A root state has a fresh
// unconstrained variable per ground atom and numeric field; a derived
// state overlays the effects of one or two operations on its base.
type State struct {
	enc  *Encoder
	name string
	base *State

	// For derived states: effect overlay.
	bools []BoolEffect
	nums  []NumEffect
	// For merged states: the convergence-rule resolver, plus fresh
	// unconstrained variables for atoms with opposing assignments and no
	// convergence rule.
	resolve ResolveFunc
	unknown map[string]*sat.Formula

	atoms map[string]*sat.Formula // cache: ground atom -> formula
	fns   map[string]bv           // cache: ground numeric field -> vector
	// A root state started from a prefix reads the frozen root's tables,
	// shared and never written, before its own.
	frozenAtoms map[string]*sat.Formula
	frozenFns   map[string]bv

	// tmpl, set on Compile's template state, makes each atom and field of
	// a root state a slot of the circuit being compiled.
	tmpl *compiling
	// wrote caches, for Grounding.Clause, the slots a derived state writes.
	wrote *written
}

// NewState creates a root (pre-) state with the given diagnostic name.
func (e *Encoder) NewState(name string) *State {
	return &State{enc: e, name: name}
}

// Apply creates the post-state of executing the given effects on base.
func (e *Encoder) Apply(base *State, eff GroundEffects, name string) *State {
	return &State{enc: e, name: name, base: base, bools: eff.Bools, nums: eff.Nums}
}

// ResolveFunc decides the merged value of an atom assigned opposing values
// by two concurrent operations: the convergence rule of the predicate
// (true for add-wins, false for rem-wins). ok=false means no rule is
// defined and the merged value is unconstrained (either outcome possible).
type ResolveFunc func(pred string) (val bool, ok bool)

// Merge creates the state after both operations' effects are integrated,
// resolving opposing boolean assignments through the convergence rules and
// summing numeric deltas (paper Fig. 2 and Alg. 1, isConflicting).
func (e *Encoder) Merge(base *State, e1, e2 GroundEffects, resolve ResolveFunc, name string) *State {
	st := &State{enc: e, name: name, base: base}

	// Opposing exact assignments on the same atom: apply the convergence
	// rule; wildcard-vs-exact opposition is resolved the same way per atom
	// during lookup, by checking both effect lists.
	st.bools = append(st.bools, e1.Bools...)
	st.bools = append(st.bools, e2.Bools...)
	st.nums = append(st.nums, e1.Nums...)
	st.nums = append(st.nums, e2.Nums...)
	st.resolve = resolve
	return st
}

// atomKey builds the canonical ground-atom name.
func atomKey(pred string, args []string) string {
	return string(appendAtomKey(nil, pred, args))
}

// appendAtomKey appends the canonical ground-atom name to dst.
func appendAtomKey(dst []byte, pred string, args []string) []byte {
	dst = append(dst, pred...)
	if len(args) == 0 {
		return dst
	}
	for i, a := range args {
		if i == 0 {
			dst = append(dst, '(')
		} else {
			dst = append(dst, ',')
		}
		dst = append(dst, a...)
	}
	return append(dst, ')')
}

// lookupKey builds pred(args) in the encoder's scratch buffer, so a cache
// hit costs no allocation; the caller converts it to a string only to
// insert.
func (e *Encoder) lookupKey(pred string, args []string) []byte {
	e.key = appendAtomKey(e.key[:0], pred, args)
	return e.key
}

// matches reports whether the effect pattern covers the ground args.
func patternMatches(pat, args []string) bool {
	if len(pat) != len(args) {
		return false
	}
	for i := range pat {
		if pat[i] != "" && pat[i] != args[i] {
			return false
		}
	}
	return true
}

// Atom returns the formula for ground atom pred(args) in this state.
func (s *State) Atom(pred string, args []string) *sat.Formula {
	buf := s.enc.lookupKey(pred, args)
	if f, ok := s.atoms[string(buf)]; ok {
		return f
	}
	if f, ok := s.frozenAtoms[string(buf)]; ok {
		return f
	}
	key := string(buf)
	f := s.computeAtom(pred, args, key)
	if s.atoms == nil {
		s.atoms = map[string]*sat.Formula{}
	}
	s.atoms[key] = f
	return f
}

func (s *State) computeAtom(pred string, args []string, key string) *sat.Formula {
	if s.base == nil {
		// Root state: fresh unconstrained variable.
		v := s.enc.S.NewVar()
		if s.tmpl != nil {
			s.tmpl.slot(pred, args, false, []int{v})
		}
		return sat.Var(v)
	}
	// Collect assignments from the overlay, most specific first.
	assignedTrue, assignedFalse := false, false
	for _, be := range s.bools {
		if be.Pred == pred && patternMatches(be.Args, args) {
			if be.Val {
				assignedTrue = true
			} else {
				assignedFalse = true
			}
		}
	}
	switch {
	case assignedTrue && assignedFalse:
		if s.resolve != nil {
			if v, ok := s.resolve(pred); ok {
				if v {
					return sat.TrueF()
				}
				return sat.FalseF()
			}
		}
		// No convergence rule: merged value unconstrained.
		if f, ok := s.unknown[key]; ok {
			return f
		}
		f := sat.Var(s.enc.S.NewVar())
		if s.unknown == nil {
			s.unknown = map[string]*sat.Formula{}
		}
		s.unknown[key] = f
		return f
	case assignedTrue:
		return sat.TrueF()
	case assignedFalse:
		return sat.FalseF()
	}
	return s.base.Atom(pred, args)
}

// Fn returns the bit-vector for ground numeric field fn(args) in s.
func (s *State) Fn(fn string, args []string) bv {
	buf := s.enc.lookupKey(fn, args)
	if v, ok := s.fns[string(buf)]; ok {
		return v
	}
	if v, ok := s.frozenFns[string(buf)]; ok {
		return v
	}
	key := string(buf)
	var v bv
	if s.base == nil {
		width := constWidth
		if s.tmpl != nil {
			width = slotWidth
		}
		v = make(bv, width)
		vars := make([]int, width)
		for i := range v {
			vars[i] = s.enc.S.NewVar()
			v[i] = sat.Var(vars[i])
		}
		if s.tmpl != nil {
			s.tmpl.slot(fn, args, true, vars)
		}
	} else {
		v = s.base.Fn(fn, args)
		delta := 0
		for _, ne := range s.nums {
			if ne.Fn == fn && patternMatches(ne.Args, args) {
				delta += ne.Delta
			}
		}
		if delta != 0 {
			v = s.enc.add(v, constBV(delta))
		}
	}
	if s.fns == nil {
		s.fns = map[string]bv{}
	}
	s.fns[key] = v
	return v
}

// Name returns the diagnostic name of the state.
func (s *State) Name() string { return s.name }
