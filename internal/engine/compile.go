// Mount-time compilation of per-operation execution plans.
//
// The reference executor re-extracts the whole specification-level state
// on every call and delta-checks every guard clause over the full
// binding cross-product. An operation can only falsify the clause
// instances its own changes touch, so Mount precomputes, per operation:
//
//   - the trigger set: for each guard clause, the occurrences of the
//     clause's predicates whose polarity lets a change the operation
//     makes lower the clause (a positive occurrence going false, a
//     negative one going true, any change under a count or field read).
//     Clauses with no compatible (change, occurrence) pair can never be
//     newly violated by the operation and are compiled out entirely;
//   - per clause, a generator for each quantified variable: an atom that
//     must be true for the clause body to be false (the antecedent of an
//     implication, the conjuncts under a negation). The variables a
//     change does not bind are bound by matching their generator against
//     the state by pattern — a join — instead of enumerating their sort;
//   - the footprint: the little a plan must still extract whole — a
//     predicate under a count or a requires-quantifier, and, for a
//     variable no generator covers, every predicate and field over its
//     sort, so the enumerated domain is exactly the reference
//     executor's. Everything else is read on demand: wipes and
//     generators by pattern, clause atoms at a produced binding by
//     memoised point reads (see state);
//   - a fallback flag for degenerate clause shapes (nested quantifiers,
//     stray wildcards, free or mis-sorted variables, constant effect
//     arguments) whose evaluation errors and binding universes only the
//     whole-state interpreter reproduces exactly.
//
// Every binding the join produces is one the reference executor's
// cross-product contains (its values come from call parameters and true
// atoms, all recorded in the domains), and every binding whose clause
// instance held before but fails after is produced (a flip needs a
// downward-compatible change grounding at it, and its generators true).
// The guard then evaluates the same clause bodies on the same pre/post
// truth as the reference executor, which is what the differential suite
// pins.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"ipa/internal/crdt"
	"ipa/internal/logic"
	"ipa/internal/spec"
)

// footprint lists the predicate sets and numeric fields extracted whole,
// in sorted name order.
type footprint struct {
	preds []*predInfo
	nums  []*numInfo
}

// wholeReads accumulates what a plan cannot read by point or pattern:
// the predicates and fields it scans, and the sorts whose domains it
// enumerates.
type wholeReads struct {
	names map[string]bool
	sorts map[logic.Sort]bool
}

func newWholeReads() wholeReads {
	return wholeReads{names: map[string]bool{}, sorts: map[logic.Sort]bool{}}
}

// footprintOf closes the whole reads over their sorts — an enumerated
// sort must carry exactly the domain whole-state extraction would
// build, so every predicate or field with a position of that sort is
// extracted too — and lists the result.
func (a *App) footprintOf(w wholeReads) *footprint {
	fp := &footprint{}
	overSort := func(sorts []logic.Sort) bool {
		for _, srt := range sorts {
			if w.sorts[srt] {
				return true
			}
		}
		return false
	}
	for _, name := range a.predList {
		if pi := a.preds[name]; w.names[name] || overSort(pi.sorts) {
			fp.preds = append(fp.preds, pi)
		}
	}
	for _, name := range a.numList {
		if ni := a.nums[name]; w.names[name] || overSort(ni.sorts) {
			fp.nums = append(fp.nums, ni)
		}
	}
	return fp
}

// guardPlan is one guard clause the operation can trip, with its
// mount-time refusal error (the same instance guardFull returns).
type guardPlan struct {
	cl      *Clause
	violErr error
}

// opPlan is the compiled execution plan of one operation.
type opPlan struct {
	fp       *footprint
	guards   []*guardPlan // triggered clauses, in deriveGuards order
	fallback bool
	reason   string
}

// change is one concrete truth or value change a planned call makes,
// relative to the origin's visible pre-state.
type change struct {
	pred    string
	args    []string
	dir     int8 // +1 asserted, -1 retracted; for numeric, sign of delta
	numeric bool
}

// changeShape is the static form of a change: known predicate, known
// direction, argument templates whose values arrive at call time.
type changeShape struct {
	pred    string
	args    []logic.Term
	dir     int8
	numeric bool
}

// compilePlans plans every clause's join and every operation's
// execution. Runs after deriveRemWins so the guard and effect sets are
// final.
func (a *App) compilePlans() {
	a.whole = &footprint{}
	for _, name := range a.predList {
		a.whole.preds = append(a.whole.preds, a.preds[name])
	}
	for _, name := range a.numList {
		a.whole.nums = append(a.whole.nums, a.nums[name])
	}
	for _, cl := range a.clauses {
		a.planClause(cl)
	}
	for _, name := range a.opNames {
		co := a.ops[name]
		co.plan = a.compilePlan(co)
	}
}

// planClause derives the clause's occurrences, its irregularity, and the
// generator of each quantified variable.
func (a *App) planClause(cl *Clause) {
	cl.occs = logic.Occurrences(cl.body)
	cl.irregular = a.irregularClause(cl)
	if cl.irregular != "" {
		return
	}
	cl.gen = map[string]*logic.Atom{}
	for _, g := range requiredTrue(cl.body, false, nil) {
		if a.preds[g.Pred] == nil {
			continue
		}
		for _, t := range g.Args {
			if t.Kind == logic.TermVar && cl.gen[t.Name] == nil {
				cl.gen[t.Name] = g
			}
		}
	}
}

// requiredTrue appends the atoms that must be true for f to evaluate to
// want — the literals every such assignment shares. Only forced
// conjuncts contribute: a disjunction that must hold, a conjunction
// that must fail, and a comparison force nothing.
func requiredTrue(f logic.Formula, want bool, out []*logic.Atom) []*logic.Atom {
	switch g := f.(type) {
	case *logic.Atom:
		if want {
			out = append(out, g)
		}
	case *logic.Not:
		out = requiredTrue(g.F, !want, out)
	case *logic.And:
		if want {
			for _, c := range g.L {
				out = requiredTrue(c, true, out)
			}
		}
	case *logic.Or:
		if !want {
			for _, c := range g.L {
				out = requiredTrue(c, false, out)
			}
		}
	case *logic.Implies:
		if !want {
			out = requiredTrue(g.A, true, out)
			out = requiredTrue(g.B, false, out)
		}
	}
	return out
}

// wholeReadsOf records what evaluating cl by join reads whole when the
// variables in bound are already fixed: counted predicates, and the sort
// of every other variable no generator covers.
func (cl *Clause) wholeReadsOf(bound map[string]bool, w wholeReads) {
	for _, occ := range cl.occs {
		if occ.Count {
			w.names[occ.Pred] = true
		}
	}
	for _, v := range cl.vars {
		if !bound[v.Name] && cl.gen[v.Name] == nil {
			w.sorts[v.Sort] = true
		}
	}
}

func (a *App) compilePlan(co *compiledOp) *opPlan {
	p := &opPlan{}
	// Degenerate guard shapes force the whole operation onto the
	// reference executor: their evaluation errors (and in the
	// free-variable case, their binding universe) depend on the exact
	// whole-state enumeration.
	for _, cl := range co.guards {
		if cl.irregular != "" {
			p.fallback, p.reason = true, fmt.Sprintf("guard %s: %s", cl.Formula, cl.irregular)
			return p
		}
	}
	// Constant effect arguments produce change values that may be absent
	// from the interpreter's extracted domains, so the join could check
	// bindings the reference executor never enumerates.
	if pred, ok := a.constEffectArg(co); ok {
		p.fallback, p.reason = true, fmt.Sprintf("constant argument in effect on %s", pred)
		return p
	}

	// Effects, patches, ensures and cascades read at most their own ground
	// atom (change detection, cascade conditions) or a wipe pattern, and
	// numeric deltas write blind: nothing whole. Explicit preconditions
	// scan what a quantifier or a count ranges over.
	w := newWholeReads()
	for _, f := range co.op.Pre {
		requireReads(f, map[string]bool{}, w)
	}

	shapes := changeShapes(co)
	for i, cl := range co.guards {
		if !canTrigger(shapes, cl.occs) {
			// No change this operation makes can lower the clause (touches
			// don't change truth; matching polarities all point upward):
			// the guard can never refuse, in either executor.
			continue
		}
		p.guards = append(p.guards, &guardPlan{cl: cl, violErr: co.violErrs[i]})
		for _, occ := range cl.occs {
			if !occCompatible(shapes, occ) {
				continue
			}
			bound := map[string]bool{}
			for _, t := range occ.Args {
				if t.Kind == logic.TermVar {
					bound[t.Name] = true
				}
			}
			cl.wholeReadsOf(bound, w)
		}
	}
	p.fp = a.footprintOf(w)
	return p
}

// requireReads classifies the reads of one requires-formula: anything
// touched by a quantified variable, a wildcard, or a count needs the
// whole set, and quantified sorts need their full domains. Atoms and
// fields applied only to parameters (or constants) are point reads.
func requireReads(f logic.Formula, enum map[string]bool, w wholeReads) {
	scan := func(name string, args []logic.Term) {
		for _, t := range args {
			if t.Kind == logic.TermWildcard || (t.Kind == logic.TermVar && enum[t.Name]) {
				w.names[name] = true
			}
		}
	}
	var walkNum func(t logic.NumTerm)
	walkNum = func(t logic.NumTerm) {
		switch u := t.(type) {
		case *logic.Count:
			w.names[u.Pred] = true
		case *logic.FnApp:
			scan(u.Fn, u.Args)
		case *logic.NumBin:
			walkNum(u.L)
			walkNum(u.R)
		}
	}
	switch g := f.(type) {
	case *logic.Atom:
		scan(g.Pred, g.Args)
	case *logic.Not:
		requireReads(g.F, enum, w)
	case *logic.And:
		for _, c := range g.L {
			requireReads(c, enum, w)
		}
	case *logic.Or:
		for _, c := range g.L {
			requireReads(c, enum, w)
		}
	case *logic.Implies:
		requireReads(g.A, enum, w)
		requireReads(g.B, enum, w)
	case *logic.Forall:
		inner := make(map[string]bool, len(enum)+len(g.Vars))
		for k := range enum {
			inner[k] = true
		}
		for _, v := range g.Vars {
			inner[v.Name] = true
			w.sorts[v.Sort] = true
		}
		requireReads(g.Body, inner, w)
	case *logic.Cmp:
		walkNum(g.L)
		walkNum(g.R)
	}
}

// irregularClause reports why a clause needs the reference executor, or
// "" when the join handles it.
func (a *App) irregularClause(cl *Clause) string {
	if logic.HasForall(cl.body) {
		return "nested quantifier"
	}
	if logic.HasBareWildcard(cl.body) {
		return "wildcard argument outside count"
	}
	sortOf := map[string]logic.Sort{}
	for _, v := range cl.vars {
		sortOf[v.Name] = v.Sort
	}
	for _, v := range logic.FreeVars(cl.body) {
		if _, ok := sortOf[v]; !ok {
			return fmt.Sprintf("free variable %q", v)
		}
	}
	// The join binds a variable to values of the positions it occupies,
	// the reference executor to its sort's domain: they agree only when
	// the position's sort (the first use in the invariant fixes it) is the
	// variable's.
	for _, occ := range cl.occs {
		sorts := a.sig[occ.Pred]
		for i, t := range occ.Args {
			if t.Kind == logic.TermVar && i < len(sorts) && sorts[i] != sortOf[t.Name] {
				return fmt.Sprintf("variable %q of sort %s at a %s position of %s", t.Name, sortOf[t.Name], sorts[i], occ.Pred)
			}
		}
	}
	return ""
}

// constEffectArg finds a constant argument in the operation's effects or
// cascades (ensures are touches — they never change truth).
func (a *App) constEffectArg(co *compiledOp) (string, bool) {
	hasConst := func(args []logic.Term) bool {
		for _, t := range args {
			if t.Kind == logic.TermConst {
				return true
			}
		}
		return false
	}
	for _, e := range co.base {
		if hasConst(e.Args) {
			return e.Pred, true
		}
	}
	for _, e := range co.patches {
		if hasConst(e.Args) {
			return e.Pred, true
		}
	}
	for _, c := range co.cascades {
		if hasConst(c.terms) {
			return c.pred, true
		}
	}
	return "", false
}

// changeShapes lists the static change forms the operation's planned
// execution can produce. Touches (patch re-assertions, ensures) change
// no truth and produce no shape.
func changeShapes(co *compiledOp) []changeShape {
	var out []changeShape
	effectShapes := func(effects []spec.Effect, touch bool) {
		for _, e := range effects {
			switch {
			case e.Kind == spec.NumDelta:
				if e.Delta != 0 {
					d := int8(1)
					if e.Delta < 0 {
						d = -1
					}
					out = append(out, changeShape{pred: e.Pred, args: e.Args, dir: d, numeric: true})
				}
			case e.Val:
				if !touch {
					out = append(out, changeShape{pred: e.Pred, args: e.Args, dir: 1})
				}
			default:
				// Ground retraction or wildcard wipe: either way the only
				// concrete changes are retractions of visible atoms.
				out = append(out, changeShape{pred: e.Pred, args: e.Args, dir: -1})
			}
		}
	}
	effectShapes(co.base, false)
	effectShapes(co.patches, true)
	for _, c := range co.cascades {
		out = append(out, changeShape{pred: c.pred, args: c.terms, dir: -1})
	}
	return out
}

// downward reports whether a change in the given direction can lower a
// formula through an occurrence of the given polarity.
func downward(pol logic.Polarity, dir int8) bool {
	switch pol {
	case logic.PolPos:
		return dir < 0
	case logic.PolNeg:
		return dir > 0
	}
	return true
}

// lowers reports whether a change of the given predicate, arity, kind
// and direction is downward-compatible with the occurrence.
func lowers(o logic.Occurrence, pred string, arity int, numeric bool, dir int8) bool {
	return o.Pred == pred && len(o.Args) == arity && o.Numeric == numeric && downward(o.Pol, dir)
}

// occCompatible reports whether any change shape is downward-compatible
// with the occurrence.
func occCompatible(shapes []changeShape, o logic.Occurrence) bool {
	for _, s := range shapes {
		if lowers(o, s.pred, len(s.args), s.numeric, s.dir) {
			return true
		}
	}
	return false
}

// canTrigger reports whether any change shape is downward-compatible
// with any occurrence: if not, the operation can never newly violate
// the clause.
func canTrigger(shapes []changeShape, occs []logic.Occurrence) bool {
	for _, o := range occs {
		if occCompatible(shapes, o) {
			return true
		}
	}
	return false
}

// ground resolves argument templates under env into the arena:
// variables to their values, constants to their names. Wildcards and
// variables env lacks become "" — the pattern wildcard — and are
// reported through wild and missing (the first such variable's name).
// The tuple lives in the arena and must not outlive the call (see
// callScratch).
func (sc *callScratch) ground(ts []logic.Term, env map[string]string) (out []string, wild bool, missing string) {
	n := len(sc.arena)
	for _, t := range ts {
		var v string
		switch t.Kind {
		case logic.TermVar:
			var ok bool
			if v, ok = env[t.Name]; !ok && missing == "" {
				missing = t.Name
			}
		case logic.TermConst:
			v = t.Name
		case logic.TermWildcard:
			wild = true
		}
		sc.arena = append(sc.arena, v)
	}
	return sc.arena[n:len(sc.arena):len(sc.arena)], wild, missing
}

// split decodes a set element into its tuple components in the arena
// (the components are substrings of elem).
func (sc *callScratch) split(elem string) []string {
	n := len(sc.arena)
	for {
		i := strings.Index(elem, crdt.TupleSep)
		if i < 0 {
			break
		}
		sc.arena = append(sc.arena, elem[:i])
		elem = elem[i+len(crdt.TupleSep):]
	}
	sc.arena = append(sc.arena, elem)
	return sc.arena[n:len(sc.arena):len(sc.arena)]
}

// bind matches a concrete tuple against argument templates, extending
// env: constants must match exactly, wildcards constrain nothing, a
// variable env already holds (or the template repeats) must agree. It
// pushes the names it binds onto the undo stack and returns the stack's
// mark, for the caller to unbind back to; on a mismatch it binds
// nothing.
func (sc *callScratch) bind(tmpl []logic.Term, vals []string, env map[string]string) (mark int, ok bool) {
	mark = len(sc.undo)
	for i, t := range tmpl {
		switch t.Kind {
		case logic.TermVar:
			if prev, have := env[t.Name]; !have {
				env[t.Name] = vals[i]
				sc.undo = append(sc.undo, t.Name)
			} else if prev != vals[i] {
				sc.unbind(env, mark)
				return mark, false
			}
		case logic.TermConst:
			if t.Name != vals[i] {
				sc.unbind(env, mark)
				return mark, false
			}
		}
	}
	return mark, true
}

// unbind deletes the names bound since mark from env.
func (sc *callScratch) unbind(env map[string]string, mark int) {
	for _, n := range sc.undo[mark:] {
		delete(env, n)
	}
	sc.undo = sc.undo[:mark]
}

// truth reads one ground atom: memoised, through the overlay's base, or
// by a point read. A whole state holds every true atom already.
func (s *state) truth(key, pred string, args []string) bool {
	if v, ok := s.in.Truth[key]; ok || !s.lazy {
		return v
	}
	var v bool
	if s.base != nil {
		v = s.base.truth(key, pred, args)
	} else if pi := s.a.preds[pred]; pi != nil {
		v = s.a.readAtom(s.tx, pi, args)
	}
	s.in.Truth[key] = v
	return v
}

// num reads one ground field like truth reads an atom.
func (s *state) num(key, fn string, args []string) int {
	if v, ok := s.in.Nums[key]; ok || !s.lazy {
		return v
	}
	var v int
	if s.base != nil {
		v = s.base.num(key, fn, args)
	} else if ni := s.a.nums[fn]; ni != nil {
		v = s.a.readField(s.tx, ni, args)
	}
	s.in.Nums[key] = v
	return v
}

// evalAt evaluates f under env, first reading the ground atoms and
// fields f applies there; each key is built in the scratch buffer and
// made a string only when the atom is read and memoised. Occurrences
// env does not ground (a nested quantifier's variable, a count's
// wildcard) are skipped: planning extracted those predicates whole.
func (s *state) evalAt(f logic.Formula, occs []logic.Occurrence, env map[string]string) (bool, error) {
	if s.lazy {
		for _, o := range occs {
			if o.Count {
				continue
			}
			args, wild, missing := s.sc.ground(o.Args, env)
			if wild || missing != "" {
				continue
			}
			key := s.sc.keyOf(o.Pred, args)
			if o.Numeric {
				if _, ok := s.in.Nums[string(key)]; !ok {
					s.num(string(key), o.Pred, args)
				}
			} else if _, ok := s.in.Truth[string(key)]; !ok {
				s.truth(string(key), o.Pred, args)
			}
		}
	}
	return s.in.Eval(f, env)
}

// trueTuples lists the argument tuples of pred's atoms that match the
// pattern ("" = wildcard) and are true in this state: the set's members
// read by pattern, sorted, then the atoms a planned call asserts — less
// whatever the state's overlay retracts.
func (s *state) trueTuples(pi *predInfo, pattern []string, asserted []change) [][]string {
	var out [][]string
	keep := func(args []string) {
		if v, ok := s.in.Truth[string(s.sc.keyOf(pi.name, args))]; ok && !v {
			return
		}
		out = append(out, args)
	}
	for _, el := range s.a.setWhere(s.tx, pi, pattern) {
		keep(s.sc.split(el))
	}
	for _, ch := range asserted {
		if ch.dir > 0 && !ch.numeric && ch.pred == pi.name && matches(pattern, ch.args) {
			keep(ch.args)
		}
	}
	return out
}

// matches reports whether a tuple fits a pattern ("" = wildcard) of its
// arity — crdt.MatchFields.Matches on the unjoined tuple.
func matches(pattern, args []string) bool {
	if len(pattern) == 0 || len(pattern) != len(args) {
		return false
	}
	for i, p := range pattern {
		if p != "" && p != args[i] {
			return false
		}
	}
	return true
}

// join enumerates, in deterministic order, the complete bindings of
// cl's variables at which cl's body can be false in this state, and
// calls fn on each. env fixes the variables already bound; each
// remaining one is bound by matching its generator — an atom that must
// be true for the body to be false — against the state with the bound
// positions fixed, which binds the generator's other variables too. A
// variable no generator covers enumerates its sort's domain, the
// generator of last resort (planning extracted that domain whole). env
// is extended and restored in place: fn must not retain it. A non-nil
// error from fn stops the enumeration.
func (s *state) join(cl *Clause, env map[string]string, asserted []change, fn func(env map[string]string) error) error {
	var v *logic.Var
	for i := range cl.vars {
		if _, ok := env[cl.vars[i].Name]; !ok {
			v = &cl.vars[i]
			break
		}
	}
	if v == nil {
		return fn(env)
	}
	g := cl.gen[v.Name]
	if g == nil {
		s.enumerated = true
		defer delete(env, v.Name)
		for _, el := range s.in.Domain[v.Sort] {
			env[v.Name] = el
			if err := s.join(cl, env, asserted, fn); err != nil {
				return err
			}
		}
		return nil
	}
	pattern, _, _ := s.sc.ground(g.Args, env)
	for _, tuple := range s.trueTuples(s.a.preds[g.Pred], pattern, asserted) {
		mark, ok := s.sc.bind(g.Args, tuple, env)
		if !ok {
			continue // a repeated variable met two different values
		}
		err := s.join(cl, env, asserted, fn)
		s.sc.unbind(env, mark)
		if err != nil {
			return err
		}
	}
	return nil
}

// guardCompiled is the compiled form of the no-new-violation guard: the
// same clause bodies, evaluated on the same pre/post truth, at only the
// bindings the operation's changes can have lowered — each change
// grounds the downward-compatible occurrences into a partial binding,
// which join completes against the post-state. Clause order matches the
// reference executor's, so the first refusing clause (and its error) is
// identical.
func (a *App) guardCompiled(co *compiledOp, pre, post *state, changes []change) error {
	sc := post.sc
	env := sc.env
	for _, gp := range co.plan.guards {
		cl := gp.cl
		refuse := func(env map[string]string) error {
			okPost, err := post.evalAt(cl.body, cl.occs, env)
			if err != nil {
				return fmt.Errorf("engine: %s: guard %s: %w", co.op.Name, cl.Formula, err)
			}
			if okPost {
				return nil
			}
			if okPre, err := pre.evalAt(cl.body, cl.occs, env); err != nil || !okPre {
				return nil // already violated (or not evaluable) before
			}
			return gp.violErr
		}
		for _, ch := range changes {
			for _, occ := range cl.occs {
				if !lowers(occ, ch.pred, len(ch.args), ch.numeric, ch.dir) {
					continue
				}
				mark, ok := sc.bind(occ.Args, ch.args, env)
				if !ok {
					continue
				}
				err := post.join(cl, env, changes, refuse)
				sc.unbind(env, mark)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Stats are the engine's slow-path counters since mount.
type Stats struct {
	// FallbackCalls counts calls served by the whole-state reference
	// executor: every call of an application mounted WithInterpreter, and
	// calls of operations whose plan fell back (see Compiled).
	FallbackCalls uint64
	// DomainEnumCalls counts compiled calls whose guard had to enumerate
	// a sort's domain because no generator covers some clause variable.
	DomainEnumCalls uint64
}

// Stats returns the slow-path counters.
func (a *App) Stats() Stats {
	return Stats{FallbackCalls: a.fallbackCalls.Load(), DomainEnumCalls: a.domainEnumCalls.Load()}
}

// Compiled reports whether the operation executes on the compiled plan
// (false when mounted WithInterpreter or when the plan fell back), and
// the fallback reason if any — exposed for tests and tooling. A
// compiled operation reads only what it touches: the ground atoms of its
// effects and of its guard clauses at the bindings its changes reach,
// and, by pattern, the matches of its wipes and of its guards'
// generators — plus whatever Footprint lists, whole.
func (a *App) Compiled(opName string) (bool, string) {
	co, ok := a.ops[opName]
	if !ok || co.plan == nil {
		return false, "unknown operation"
	}
	if a.interpreted {
		return false, "mounted with reference interpreter"
	}
	if co.plan.fallback {
		return false, co.plan.reason
	}
	return true, ""
}

// Footprint returns the sorted predicate/field names the operation's
// compiled plan extracts whole on every call — those under a count or a
// requires-quantifier, and those over the sort of a guard variable no
// generator covers — or nil when it extracts everything (reference
// executor). An empty, non-nil footprint means every read of the
// operation is a point or pattern read.
func (a *App) Footprint(opName string) []string {
	co, ok := a.ops[opName]
	if !ok || a.useReference(co) {
		return nil
	}
	out := []string{}
	for _, pi := range co.plan.fp.preds {
		out = append(out, pi.name)
	}
	for _, ni := range co.plan.fp.nums {
		out = append(out, ni.name)
	}
	sort.Strings(out)
	return out
}
