// Package engine executes analyzed IPA specifications directly on any
// replication backend: given the outcome of the analysis (the patched
// spec with its extra effects, convergence rules, and compensations), it
// materializes every predicate as the right CRDT under deterministic
// keys and turns each specification operation into a highly available
// transaction — the paper's promise that the IPA loop's output *is* the
// correct application, with no per-application Go required.
//
// The mapping, per predicate:
//
//   - boolean predicates become sets keyed "<spec>/pred/<name>", with
//     tuples as elements: an add-wins set by default, a remove-wins set
//     when the (programmer- or analysis-installed) convergence rule says
//     rem-wins — or when some operation wipes the predicate with a
//     wildcard falsification, which must defeat concurrent adds;
//   - numeric fields become one counter per ground tuple under
//     "<spec>/num/<name>/<tuple>" (plus an index set of known tuples): a
//     bounded escrow counter when an invariant imposes a lower bound, a
//     PN-counter otherwise.
//
// Each operation executes in one transaction as: origin-side
// precondition check (explicit `requires` clauses plus a generic
// "no new invariant violation in the locally visible post-state" guard),
// then the base effects, the analysis-injected repair effects (as
// payload-preserving touches), the ensure closure (touches restoring
// every atom an implication clause demands for an atom the operation
// asserts, transitively — the paper's Fig. 3 ensure helpers, derived
// instead of handwritten, and only for predicates something in the spec
// can falsify), and the cascade effects (conditional
// falsifications of the parameter-bound atoms whose invariant clauses
// depend on an atom the operation retracts; dependents involving other
// entities instead make the guard refuse). Invariants are checked
// generically by
// evaluating the spec's logic formulas against state extracted from the
// CRDTs, and the analysis' compensations run as read-time repairs.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ipa/internal/analysis"
	"ipa/internal/logic"
	"ipa/internal/runtime"
	"ipa/internal/smt"
	"ipa/internal/spec"
)

// ClauseClass says when (and whether) the engine asserts an invariant
// clause at runtime.
type ClauseClass uint8

// Clause classes.
const (
	// Continuous clauses hold in every causally consistent local state:
	// the analysis repaired every conflict on them at merge time, and the
	// engine's ensure/cascade execution maintains them. Checked mid-flight
	// and at quiescence.
	Continuous ClauseClass = iota
	// ReadRepaired clauses are restored lazily by a compensation (numeric
	// bounds); they may be transiently violated and are only checked at
	// quiescence, after the compensating reads have run.
	ReadRepaired
	// Advisory clauses carry no runtime guarantee: the analysis flagged a
	// conflict on them as unsolved, or their consequent is a disjunction
	// no ensure effect can decide (the engine still enforces them as
	// origin-side preconditions, exactly like the hand-coded
	// applications honour them locally). Never checked at runtime.
	Advisory
)

func (c ClauseClass) String() string {
	switch c {
	case Continuous:
		return "continuous"
	case ReadRepaired:
		return "read-repaired"
	}
	return "advisory"
}

// Clause is one classified invariant clause.
type Clause struct {
	Formula logic.Formula
	Class   ClauseClass
	// Comp is the compensation protecting a ReadRepaired clause.
	Comp *analysis.Compensation
	// preds are the predicate/field names the clause mentions.
	preds map[string]bool
	// vars are the quantified variables (empty for ground clauses).
	vars []logic.Var
	// body is the clause with the outer quantifier stripped.
	body logic.Formula
	// occs are the body's predicate and field occurrences; irregular says
	// why only whole-state evaluation reproduces the clause exactly (""
	// when the join does); gen maps each quantified variable to its
	// generator atom, absent when none covers it (see compile.go).
	occs      []logic.Occurrence
	irregular string
	gen       map[string]*logic.Atom
}

// predInfo is the materialization of one boolean predicate.
type predInfo struct {
	name    string
	sorts   []logic.Sort
	remWins bool
	key     string
}

// numInfo is the materialization of one numeric field.
type numInfo struct {
	name    string
	sorts   []logic.Sort
	bounded bool
	bound   int // effective lower bound when bounded
	keyPfx  string
	idxKey  string
	// ledgerPfx keys the per-tuple replenish ledger of a bounded field:
	// an add-wins set of "r<epoch>:<amount>" entries. The field's
	// effective value is the raw counter plus the ledger sum — replicas
	// that observe the same deficit add the same entry, so independent
	// compensations replenish exactly once (the tpcw restock scheme,
	// generalized).
	ledgerPfx string
}

func (n *numInfo) key(tuple string) string    { return n.keyPfx + tuple }
func (n *numInfo) ledger(tuple string) string { return n.ledgerPfx + tuple }

// actionKind enumerates the concrete CRDT updates an operation plans.
type actionKind uint8

const (
	actAdd actionKind = iota
	actTouch
	actRemove
	actWipe
	actDelta
)

// ensureTmpl is one derived touch: restore pred(terms) whenever the
// operation runs (terms are parameter variables or constants).
type ensureTmpl struct {
	pred  string
	terms []logic.Term
}

// cascadeTmpl is one derived falsification: retract pred(terms) —
// ground positions bound to parameters or constants, wildcard positions
// covering every element — because the operation retracts an atom the
// pattern's invariant clause depends on.
type cascadeTmpl struct {
	pred  string
	terms []logic.Term
}

// compiledOp is one executable specification operation.
type compiledOp struct {
	op       *spec.Operation
	base     []spec.Effect // the operation's own effects
	patches  []spec.Effect // analysis-injected repair effects
	ensures  []ensureTmpl
	cascades []cascadeTmpl
	guards   []*Clause // clauses delta-checked as preconditions
	plan     *opPlan   // mount-time execution plan (see compile.go)

	// preErrs and violErrs are the refusal errors for each requires
	// clause and each guard clause, built once at mount: rendering a
	// formula allocates, and guarded no-ops are a normal outcome on the
	// serving path, not an exceptional one.
	preErrs  []error // aligned with op.Pre
	violErrs []error // aligned with guards
	// preOccs are the occurrences of each requires clause: a lazy state
	// point-reads them at the call binding before evaluating the clause.
	preOccs [][]logic.Occurrence
}

// App is a mounted, executable application: the spec-execution engine
// bound to one cluster.
type App struct {
	res     *analysis.Result
	spc     *spec.Spec // the patched spec
	cluster runtime.Cluster
	name    string

	sig     smt.Signature
	preds   map[string]*predInfo
	nums    map[string]*numInfo
	ops     map[string]*compiledOp
	opNames []string
	clauses []*Clause
	consts  map[string]int
	// sortList caches spc.Sorts() — extraction seeds every sort's domain
	// on each call. predList/numList cache the sorted map keys for the
	// same reason: extraction order must be deterministic, and sorting
	// per call is measurable on the serving path.
	sortList []logic.Sort
	predList []string
	numList  []string
	whole    *footprint // every predicate and field: whole-state extraction

	fallbackCalls, domainEnumCalls atomic.Uint64 // see Stats
	// tuplesRead counts the tuples the read helpers returned (a point
	// read counts one): the scaling test's proof that a call's reads
	// follow what it touches, not the size of the state.
	tuplesRead atomic.Uint64

	// interpreted forces the reference executor: whole-state extraction
	// and full cross-product guard enumeration on every call.
	interpreted bool

	// scratch pools compiled calls' working memory (see callScratch).
	scratch sync.Pool
}

// MountOption configures a mounted application.
type MountOption func(*App)

// WithInterpreter mounts the application on the reference whole-state
// interpreter instead of the compiled per-operation plans. The compiled
// executor must be observationally identical; this option exists so the
// differential suite (and any suspicious user) can run both.
func WithInterpreter() MountOption {
	return func(a *App) { a.interpreted = true }
}

// Mount compiles an analyzed specification into an executable
// application over the given cluster. res.Spec must validate; its
// injected effects (spec.Effect.Injected) execute as the operation's
// patches, payload-preserving touches, and the rest as its own effects.
// orig is ignored; the benchmark ledger still passes it.
func Mount(orig *spec.Spec, res *analysis.Result, cluster runtime.Cluster, opts ...MountOption) (*App, error) {
	if res == nil || res.Spec == nil {
		return nil, fmt.Errorf("engine: nil analysis result")
	}
	s := res.Spec
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Operations) == 0 {
		return nil, fmt.Errorf("engine: spec %q has no operations — nothing to execute", s.Name)
	}
	sig, err := s.Signature()
	if err != nil {
		return nil, err
	}
	a := &App{
		res:     res,
		spc:     s,
		cluster: cluster,
		name:    s.Name,
		sig:     sig,
		preds:   map[string]*predInfo{},
		nums:    map[string]*numInfo{},
		ops:     map[string]*compiledOp{},
		consts:  map[string]int{},
	}
	for k, v := range s.Consts {
		a.consts[k] = v
	}
	if err := a.splitPredicates(); err != nil {
		return nil, err
	}
	a.classifyClauses()
	if err := a.extractBounds(); err != nil {
		return nil, err
	}
	if err := a.compileOps(); err != nil {
		return nil, err
	}
	if err := a.deriveRemWins(); err != nil {
		return nil, err
	}
	a.sortList = s.Sorts()
	a.predList = sortedKeys(a.preds)
	a.numList = sortedKeys(a.nums)
	a.compilePlans()
	for _, opt := range opts {
		opt(a)
	}
	return a, nil
}

// Cluster returns the backing cluster.
func (a *App) Cluster() runtime.Cluster { return a.cluster }

// Spec returns the patched specification the engine executes.
func (a *App) Spec() *spec.Spec { return a.spc }

// Result returns the analysis outcome the application was mounted from.
func (a *App) Result() *analysis.Result { return a.res }

// Operations lists the callable operation names, sorted.
func (a *App) Operations() []string { return append([]string(nil), a.opNames...) }

// Clauses returns the classified invariant clauses.
func (a *App) Clauses() []Clause {
	out := make([]Clause, len(a.clauses))
	for i, c := range a.clauses {
		out[i] = *c
	}
	return out
}

// splitPredicates decides which signature entries are boolean predicates
// (sets) and which are numeric fields (counters), from how effects and
// invariants use them.
func (a *App) splitPredicates() error {
	numeric := map[string]bool{}
	boolean := map[string]bool{}
	for _, ref := range logic.Predicates(a.spc.Invariant()) {
		if ref.Numeric {
			numeric[ref.Name] = true
		} else {
			boolean[ref.Name] = true
		}
	}
	for _, op := range a.spc.Operations {
		for _, pre := range op.Pre {
			for _, ref := range logic.Predicates(pre) {
				if ref.Numeric {
					numeric[ref.Name] = true
				} else {
					boolean[ref.Name] = true
				}
			}
		}
		for _, e := range op.Effects {
			if e.Kind == spec.NumDelta {
				numeric[e.Pred] = true
			} else {
				boolean[e.Pred] = true
			}
		}
	}
	names := make([]string, 0, len(a.sig))
	for name := range a.sig {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if numeric[name] && boolean[name] {
			return fmt.Errorf("engine: %s used as both boolean predicate and numeric field", name)
		}
		sorts := a.sig[name]
		if numeric[name] {
			a.nums[name] = &numInfo{
				name:      name,
				sorts:     sorts,
				keyPfx:    a.name + "/num/" + name + "/",
				idxKey:    a.name + "/numidx/" + name,
				ledgerPfx: a.name + "/numledger/" + name + "/",
			}
			continue
		}
		a.preds[name] = &predInfo{
			name:    name,
			sorts:   sorts,
			remWins: a.spc.Rules[name] == spec.RemWins,
			key:     a.name + "/pred/" + name,
		}
	}
	return nil
}

// classifyClauses assigns every invariant clause its runtime class.
func (a *App) classifyClauses() {
	unsolved := map[string]bool{}
	for _, c := range a.res.Unsolved {
		for _, cl := range c.ViolatedClauses {
			unsolved[cl.String()] = true
		}
	}
	comps := map[string]*analysis.Compensation{}
	for i := range a.res.Compensations {
		comp := &a.res.Compensations[i]
		comps[comp.Clause.String()] = comp
	}
	for _, f := range logic.Clauses(a.spc.Invariant()) {
		cl := &Clause{Formula: f, preds: map[string]bool{}, body: f}
		if fa, ok := f.(*logic.Forall); ok {
			cl.vars = fa.Vars
			cl.body = fa.Body
		}
		for _, ref := range logic.Predicates(f) {
			cl.preds[ref.Name] = true
		}
		key := f.String()
		switch {
		case comps[key] != nil:
			cl.Class = ReadRepaired
			cl.Comp = comps[key]
		case logic.HasCount(f) || hasFnApp(f):
			// A numeric clause without a compensation has no runtime
			// protection at all.
			cl.Class = Advisory
		case unsolved[key]:
			cl.Class = Advisory
		case hasDisjunctiveConsequent(cl.body):
			// An implication whose consequent disjoins atoms cannot be
			// ensure-closed: no touch can decide which disjunct to
			// restore at merge (the paper's Fig. 3 shares this gap — its
			// do_match does not re-assert active/finished either).
			cl.Class = Advisory
		default:
			cl.Class = Continuous
		}
		a.clauses = append(a.clauses, cl)
	}
}

// extractBounds finds lower-bound clauses on numeric fields and switches
// those fields to bounded (escrow) counters. It also rejects the bare-
// identifier trap: `total >= 0` reads the (always-zero) constant total,
// not the 0-ary field — the field form is `total()`.
func (a *App) extractBounds() error {
	for _, cl := range a.clauses {
		for _, name := range constRefs(cl.Formula) {
			if _, isField := a.nums[name]; isField {
				return fmt.Errorf("engine: invariant %s reads constant %q, which is also a numeric field — write %s() to reference the field", cl.Formula, name, name)
			}
		}
	}
	for _, cl := range a.clauses {
		cmp, ok := cl.body.(*logic.Cmp)
		if !ok {
			continue
		}
		fn, bound, ok := lowerBound(cmp, a.consts)
		if !ok {
			continue
		}
		ni, isNum := a.nums[fn]
		if !isNum {
			return fmt.Errorf("engine: lower bound on %s, which is not a numeric field", fn)
		}
		if !ni.bounded || bound > ni.bound {
			ni.bounded, ni.bound = true, bound
		}
	}
	return nil
}

// constVal evaluates a numeric term that must be a literal or a named
// constant.
func constVal(t logic.NumTerm, consts map[string]int) (int, bool) {
	switch u := t.(type) {
	case *logic.IntLit:
		return u.N, true
	case *logic.ConstRef:
		return consts[u.Name], true
	}
	return 0, false
}

// lowerBound recognises fn(..) >= K (or > K, or the mirrored forms) with
// a constant-evaluable K and returns the effective inclusive bound.
func lowerBound(cmp *logic.Cmp, consts map[string]int) (fn string, bound int, ok bool) {
	if app, isFn := cmp.L.(*logic.FnApp); isFn && (cmp.Op == logic.GE || cmp.Op == logic.GT) {
		if k, kOK := constVal(cmp.R, consts); kOK {
			if cmp.Op == logic.GT {
				k++
			}
			return app.Fn, k, true
		}
	}
	if app, isFn := cmp.R.(*logic.FnApp); isFn && (cmp.Op == logic.LE || cmp.Op == logic.LT) {
		if k, kOK := constVal(cmp.L, consts); kOK {
			if cmp.Op == logic.LT {
				k++
			}
			return app.Fn, k, true
		}
	}
	return "", 0, false
}

// constRefs lists the named constants a formula reads.
func constRefs(f logic.Formula) []string {
	var out []string
	var walkNum func(t logic.NumTerm)
	walkNum = func(t logic.NumTerm) {
		switch u := t.(type) {
		case *logic.ConstRef:
			out = append(out, u.Name)
		case *logic.NumBin:
			walkNum(u.L)
			walkNum(u.R)
		}
	}
	var walk func(f logic.Formula)
	walk = func(f logic.Formula) {
		switch g := f.(type) {
		case *logic.Not:
			walk(g.F)
		case *logic.And:
			for _, c := range g.L {
				walk(c)
			}
		case *logic.Or:
			for _, c := range g.L {
				walk(c)
			}
		case *logic.Implies:
			walk(g.A)
			walk(g.B)
		case *logic.Forall:
			walk(g.Body)
		case *logic.Cmp:
			walkNum(g.L)
			walkNum(g.R)
		}
	}
	walk(f)
	return out
}

// hasFnApp reports whether the formula applies a numeric field.
func hasFnApp(f logic.Formula) bool {
	switch g := f.(type) {
	case *logic.Not:
		return hasFnApp(g.F)
	case *logic.And:
		for _, c := range g.L {
			if hasFnApp(c) {
				return true
			}
		}
	case *logic.Or:
		for _, c := range g.L {
			if hasFnApp(c) {
				return true
			}
		}
	case *logic.Implies:
		return hasFnApp(g.A) || hasFnApp(g.B)
	case *logic.Forall:
		return hasFnApp(g.Body)
	case *logic.Cmp:
		return numHasFnApp(g.L) || numHasFnApp(g.R)
	}
	return false
}

func numHasFnApp(t logic.NumTerm) bool {
	switch u := t.(type) {
	case *logic.FnApp:
		return true
	case *logic.NumBin:
		return numHasFnApp(u.L) || numHasFnApp(u.R)
	}
	return false
}

// hasDisjunctiveConsequent reports whether a clause body is an
// implication whose consequent contains a disjunction of atoms.
func hasDisjunctiveConsequent(body logic.Formula) bool {
	imp, ok := body.(*logic.Implies)
	if !ok {
		return false
	}
	var hasOr func(f logic.Formula) bool
	hasOr = func(f logic.Formula) bool {
		switch g := f.(type) {
		case *logic.Or:
			return true
		case *logic.And:
			for _, c := range g.L {
				if hasOr(c) {
					return true
				}
			}
		case *logic.Not:
			return hasOr(g.F)
		case *logic.Implies:
			return hasOr(g.A) || hasOr(g.B)
		}
		return false
	}
	return hasOr(imp.B)
}

// compileOps builds the executable form of every operation: its own
// effects are the base, the injected ones its patches, each in spec
// order. Cascades come first, for every operation: the ensure closures
// touch only what some operation or compensation can falsify.
func (a *App) compileOps() error {
	cos := make([]*compiledOp, 0, len(a.spc.Operations))
	for _, op := range a.spc.Operations {
		co := &compiledOp{op: op}
		for _, e := range op.Effects {
			if e.Kind == spec.BoolAssign && e.Val && hasWildcard(e.Args) {
				return fmt.Errorf("engine: operation %s: wildcard in positive effect %s", op.Name, e)
			}
			if e.Kind == spec.NumDelta && hasWildcard(e.Args) {
				return fmt.Errorf("engine: operation %s: wildcard in numeric effect %s", op.Name, e)
			}
			if e.Injected {
				co.patches = append(co.patches, e)
			} else {
				co.base = append(co.base, e)
			}
		}
		a.deriveCascades(co)
		cos = append(cos, co)
	}
	falsifiable := a.falsifiable(cos)
	for _, co := range cos {
		a.deriveEnsures(co, falsifiable)
		a.deriveGuards(co)
		a.ops[co.op.Name] = co
		a.opNames = append(a.opNames, co.op.Name)
	}
	sort.Strings(a.opNames)
	return nil
}

// falsifiable returns the predicates something in the mounted spec can
// remove from: a `:= false` effect (ground or wildcard, base or
// injected), a derived cascade, or a trim-excess compensation. A touch
// of any other predicate protects nothing — no concurrent remove exists
// for it to beat, so a clause requiring such an atom is I-confluent
// (foreign keys into a never-deleted table) — and the ensure closure
// leaves it out.
func (a *App) falsifiable(cos []*compiledOp) map[string]bool {
	f := map[string]bool{}
	for _, co := range cos {
		for _, e := range co.op.Effects {
			if e.Kind == spec.BoolAssign && !e.Val {
				f[e.Pred] = true
			}
		}
		for _, c := range co.cascades {
			f[c.pred] = true
		}
	}
	for _, cl := range a.clauses {
		if cl.Class == ReadRepaired && cl.Comp.Kind == analysis.TrimExcess {
			f[cl.Comp.Pred] = true // the counted collection Repair trims
		}
	}
	return f
}

func hasWildcard(args []logic.Term) bool {
	for _, t := range args {
		if t.Kind == logic.TermWildcard {
			return true
		}
	}
	return false
}

// implication returns a continuous clause's body as (antecedent atom,
// consequent conjunct atoms), when it has that shape.
func clauseImplication(cl *Clause) (*logic.Atom, []*logic.Atom, bool) {
	if cl.Class != Continuous {
		return nil, nil, false
	}
	imp, ok := cl.body.(*logic.Implies)
	if !ok {
		return nil, nil, false
	}
	ante, ok := imp.A.(*logic.Atom)
	if !ok {
		return nil, nil, false
	}
	var atoms []*logic.Atom
	var collect func(f logic.Formula) bool
	collect = func(f logic.Formula) bool {
		switch g := f.(type) {
		case *logic.Atom:
			atoms = append(atoms, g)
			return true
		case *logic.And:
			for _, c := range g.L {
				if !collect(c) {
					return false
				}
			}
			return true
		}
		return false
	}
	if !collect(imp.B) {
		return nil, nil, false
	}
	return ante, atoms, true
}

// unifyAtom matches a clause atom against an effect's predicate
// application: clause variables bind to the effect's terms. A wildcard
// effect term binds the variable to a wildcard. Returns nil when the
// predicate or arity differs.
func unifyAtom(atom *logic.Atom, pred string, args []logic.Term) map[string]logic.Term {
	if atom.Pred != pred || len(atom.Args) != len(args) {
		return nil
	}
	binding := map[string]logic.Term{}
	for i, at := range atom.Args {
		switch at.Kind {
		case logic.TermVar:
			if prev, ok := binding[at.Name]; ok {
				if prev != args[i] {
					return nil
				}
				continue
			}
			binding[at.Name] = args[i]
		case logic.TermConst:
			if args[i].Kind != logic.TermConst || args[i].Name != at.Name {
				return nil
			}
		case logic.TermWildcard:
			// A clause-side wildcard constrains nothing.
		}
	}
	return binding
}

// instantiate maps a clause atom's arguments through a binding; unbound
// variables become wildcards.
func instantiate(atom *logic.Atom, binding map[string]logic.Term) []logic.Term {
	out := make([]logic.Term, len(atom.Args))
	for i, at := range atom.Args {
		switch at.Kind {
		case logic.TermVar:
			if t, ok := binding[at.Name]; ok {
				out[i] = t
			} else {
				out[i] = logic.Wild()
			}
		case logic.TermConst:
			out[i] = at
		case logic.TermWildcard:
			out[i] = logic.Wild()
		}
	}
	return out
}

func termsKey(pred string, terms []logic.Term) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return pred + "(" + strings.Join(parts, ",") + ")"
}

// deriveEnsures computes the operation's ensure closure: for every atom
// the (patched) operation asserts, every implication clause demanding
// other atoms for it yields touches of those atoms, transitively — the
// generic form of the paper's ensure helpers. Only atoms of falsifiable
// predicates are touched; the closure still walks through the others,
// whose own requirements may be falsifiable.
func (a *App) deriveEnsures(co *compiledOp, falsifiable map[string]bool) {
	type asserted struct {
		pred  string
		terms []logic.Term
	}
	var work []asserted
	planned := map[string]bool{} // atoms the op already asserts
	for _, e := range co.op.Effects {
		if e.Kind != spec.BoolAssign || !e.Val {
			continue
		}
		work = append(work, asserted{e.Pred, e.Args})
		planned[termsKey(e.Pred, e.Args)] = true
	}
	seen := map[string]bool{}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		for _, cl := range a.clauses {
			ante, atoms, ok := clauseImplication(cl)
			if !ok {
				continue
			}
			binding := unifyAtom(ante, cur.pred, cur.terms)
			if binding == nil {
				continue
			}
			for _, atom := range atoms {
				terms := instantiate(atom, binding)
				if hasWildcard(terms) {
					continue // cannot touch an unbound atom
				}
				if a.preds[atom.Pred] == nil {
					continue
				}
				key := termsKey(atom.Pred, terms)
				if planned[key] || seen[key] {
					continue
				}
				seen[key] = true
				if falsifiable[atom.Pred] {
					co.ensures = append(co.ensures, ensureTmpl{pred: atom.Pred, terms: terms})
				}
				work = append(work, asserted{atom.Pred, terms})
			}
		}
	}
}

// deriveCascades computes the operation's cascades: for every atom the
// operation retracts, an implication clause whose consequent needs it
// has its antecedent retracted too — but only when the dependent atom is
// fully determined by the operation's own parameters (then it is private
// entity state, cleared conditionally when locally visible, like the
// hand-coded rem_tourn clearing a removed tournament's flags). A
// dependent with unbound positions is independent application state: the
// engine leaves it to the precondition guard, which refuses the
// operation while such state is visible (rem_tourn with live
// enrolments), unless the analysis explicitly chose a wildcard
// falsification repair (disenroll wiping matches). Cascades propagate
// transitively through the ground dependents.
func (a *App) deriveCascades(co *compiledOp) {
	type retracted struct {
		pred  string
		terms []logic.Term
	}
	var work []retracted
	for _, e := range co.op.Effects {
		if e.Kind != spec.BoolAssign || e.Val {
			continue
		}
		work = append(work, retracted{e.Pred, e.Args})
	}
	seen := map[string]bool{}
	for len(work) > 0 {
		cur := work[0]
		work = work[1:]
		for _, cl := range a.clauses {
			ante, atoms, ok := clauseImplication(cl)
			if !ok {
				continue
			}
			for _, atom := range atoms {
				binding := unifyAtom(atom, cur.pred, cur.terms)
				if binding == nil {
					continue
				}
				terms := instantiate(ante, binding)
				if hasWildcard(terms) || a.preds[ante.Pred] == nil {
					continue
				}
				key := termsKey(ante.Pred, terms)
				if seen[key] {
					continue
				}
				seen[key] = true
				co.cascades = append(co.cascades, cascadeTmpl{pred: ante.Pred, terms: terms})
				work = append(work, retracted{ante.Pred, terms})
			}
		}
	}
}

// deriveGuards selects the clauses the operation must delta-check as
// preconditions: every clause (of any class except trim-excess
// compensated counts, which the hand-coded applications deliberately
// sell/enroll through) touching a predicate the operation affects.
func (a *App) deriveGuards(co *compiledOp) {
	affected := map[string]bool{}
	for _, e := range co.op.Effects {
		affected[e.Pred] = true
	}
	for _, t := range co.ensures {
		affected[t.pred] = true
	}
	for _, c := range co.cascades {
		affected[c.pred] = true
	}
	for _, cl := range a.clauses {
		if cl.Class == ReadRepaired && cl.Comp != nil && cl.Comp.Kind == analysis.TrimExcess {
			// Count bounds with a trim compensation are deliberately not
			// origin-guarded: the Fig. 3 applications sell/enroll through
			// the bound and let the read-time trim restore it. (Lower
			// bounds with a replenish compensation stay guarded — the
			// escrow model prevents what the origin can see and
			// compensates only what a partition hides.)
			continue
		}
		relevant := false
		for p := range cl.preds {
			if affected[p] {
				relevant = true
				break
			}
		}
		if relevant {
			co.guards = append(co.guards, cl)
			co.violErrs = append(co.violErrs,
				fmt.Errorf("%w: %s would violate %s", ErrPrecondition, co.op.Name, cl.Formula))
		}
	}
	for _, p := range co.op.Pre {
		co.preErrs = append(co.preErrs,
			fmt.Errorf("%w: %s: requires %s", ErrPrecondition, co.op.Name, p))
		co.preOccs = append(co.preOccs, logic.Occurrences(p))
	}
}

// deriveRemWins switches wiped, rule-less predicates to remove-wins: a
// wildcard falsification must defeat adds concurrent with it (the
// paper's rem-wins wildcard removal, §4.2.1), which an add-wins set
// cannot express. A programmer- or analysis-installed add-wins rule is
// never overridden — the wipe then only cancels observed elements. A
// remove-wins set indexes a wildcard remove by the positions it binds,
// at most 64, so a wider predicate wiped remove-wins does not mount.
func (a *App) deriveRemWins() error {
	wipes := func(terms []logic.Term) bool { return hasWildcard(terms) }
	var wiped []string
	for _, co := range a.ops {
		for _, e := range co.op.Effects {
			if e.Kind == spec.BoolAssign && !e.Val && wipes(e.Args) {
				wiped = append(wiped, e.Pred)
			}
		}
		for _, c := range co.cascades {
			if wipes(c.terms) {
				wiped = append(wiped, c.pred)
			}
		}
	}
	for _, pred := range wiped {
		a.markRemWins(pred)
		if pi := a.preds[pred]; pi != nil && pi.remWins && len(pi.sorts) > 64 {
			return fmt.Errorf("engine: %s has %d arguments; a remove-wins wildcard remove covers at most 64", pred, len(pi.sorts))
		}
	}
	return nil
}

func (a *App) markRemWins(pred string) {
	pi := a.preds[pred]
	if pi == nil {
		return
	}
	if pol, ok := a.spc.Rules[pred]; ok && pol != spec.NoPolicy {
		return
	}
	pi.remWins = true
}
