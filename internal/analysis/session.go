package analysis

import (
	"slices"
	"sync"

	"ipa/internal/logic"
	"ipa/internal/sat"
	"ipa/internal/smt"
	"ipa/internal/spec"
)

// session decides the verification conditions of one query site — every
// binding of one operation pair, or one candidate repair's executability
// and conflict checks — on a single solver. The invariant is grounded in
// the pre-state and asserted once; each clause is instantiated at most once
// per distinct state; and each binding is asked as one Tseitin literal
// passed to Solve as an assumption, so an UNSAT binding leaves the solver
// usable for the next. Every definition the session adds is Tseitin, so the
// only constraints a query sees are I(pre) and its own assumption.
//
// A session gives verdicts only. Its model is shared by every query, so a
// reported conflict's witness comes from a fresh checkBinding.
type session struct {
	*grounding
	enc     *smt.Encoder
	resolve smt.ResolveFunc
	pre     *smt.State
	posts   map[string]*derived // post-states by their ground effects
	key     []byte              // scratch for the posts key
	// conflictQueries counts the conflict queries the session has asked.
	conflictQueries int
}

// grounding is a session's I(pre), read-only once built: the invariant's
// clauses, and their circuit instantiated in the pre-state.
type grounding struct {
	clauses []logic.Formula
	inv     *smt.Grounding
}

// derived is a post-state with the literal of the invariant holding in it.
type derived struct {
	st    *smt.State
	holds int
}

// newSession grounds s's invariant on a solver of its own: what a run's
// shared prefix is frozen from (groundings.session), and the reference
// the tests hold prefix-started sessions to. The invariant's clauses are
// walked once each, to compile their circuit, which is then instantiated
// in the pre-state.
func newSession(s *spec.Spec, opts Options, work *workCount) (*session, error) {
	sig, err := s.Signature()
	if err != nil {
		return nil, err
	}
	dom := domainFor(s, opts.Scope)
	g := &grounding{clauses: logic.Clauses(s.Invariant())}
	c, err := smt.Compile(g.clauses, dom, sig, &work.smt)
	if err != nil {
		return nil, err
	}
	enc := smt.NewEncoder(dom, sig)
	pre := enc.NewState("pre")
	g.inv = enc.Ground(c, pre)
	for i := range g.clauses {
		enc.S.AddClause(g.inv.Lit(i))
	}
	return startSession(g, enc, pre, s, work), nil
}

func startSession(g *grounding, enc *smt.Encoder, pre *smt.State, s *spec.Spec, work *workCount) *session {
	enc.Work = &work.smt
	return &session{grounding: g, enc: enc, resolve: s.Resolver(), pre: pre,
		posts: map[string]*derived{}}
}

// groundings is the I(pre) shared by the sessions of one analysis run,
// and the run's workers. Repairs add effects and convergence rules,
// neither of which I(pre) reads, so every spec a run visits grounds the
// same I(pre). Each distinct (invariant clauses, scope) is grounded once
// and frozen; every session resets its worker's solver to the frozen
// prefix, with the variable numbering, clauses and Tseitin definitions a
// self-grounded session would have, so it asks exactly the same CNF.
//
// I(pre) also reads the domain (the spec's sorts) and the signature, but
// neither can differ between the specs of one run: the sorts come from
// the invariant and the operations' parameters, which repairs leave
// alone, and the signature from the invariant and the effects, where a
// repair only adds effects on the invariant's predicates whose variable
// arguments have the signature's sorts (candidatesFor). So the lookup
// needs neither, and one groundings serves one run only.
type groundings struct {
	mu       sync.Mutex // guards prefixes: workers start sessions concurrently
	prefixes []*prefix
	workers  []*worker // workers[0] also runs the run's sequential queries
}

// worker is what one goroutine of a run owns: the solver each session it
// starts is reset onto, and the work those sessions count. A session
// lives until its worker starts the next one.
type worker struct {
	solver *sat.Solver
	work   workCount
}

// prefix is one frozen I(pre) with what it was grounded from. Invariants
// are compared by identity: the specs of one run are clones of its input,
// which share them.
type prefix struct {
	invariants []logic.Formula
	scope      int
	*grounding
	enc *smt.Prefix
}

// workCount counts a run's analysis work, for the tests that pin it.
type workCount struct {
	groundings            int      // I(pre) grounded
	repairConflictQueries int      // conflict queries asked by repair checks
	smt                   smt.Work // clause ASTs walked, clause literals instantiated
}

// pool returns the run's first n workers, making those it lacks.
func (g *groundings) pool(n int) []*worker {
	for len(g.workers) < n {
		g.workers = append(g.workers, &worker{solver: new(sat.Solver)})
	}
	return g.workers[:n]
}

// main is the worker the run's sequential queries use.
func (g *groundings) main() *worker { return g.pool(1)[0] }

// session starts a session for s on w's solver, from the run's prefix for
// s's invariant, domain and signature, grounding that prefix first if the
// run has none.
func (g *groundings) session(s *spec.Spec, opts Options, w *worker) (*session, error) {
	p, err := g.prefix(s, opts, &w.work)
	if err != nil {
		return nil, err
	}
	enc, pre := p.enc.StartOn(w.solver)
	return startSession(p.grounding, enc, pre, s, &w.work), nil
}

// prefix returns the run's prefix for s, grounding it, and counting that
// in work, if the run has none.
func (g *groundings) prefix(s *spec.Spec, opts Options, work *workCount) (*prefix, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, q := range g.prefixes {
		if slices.Equal(q.invariants, s.Invariants) && q.scope == opts.Scope {
			return q, nil
		}
	}
	ss, err := newSession(s, opts, work)
	if err != nil {
		return nil, err
	}
	work.groundings++
	p := &prefix{invariants: slices.Clone(s.Invariants), scope: opts.Scope,
		grounding: ss.grounding, enc: ss.enc.Freeze(ss.pre)}
	g.prefixes = append(g.prefixes, p)
	return p, nil
}

// clause returns the literal of invariant clause i in st, a state derived
// from the session's pre-state: its circuit instantiated there.
func (ss *session) clause(st *smt.State, i int) (int, error) {
	return ss.inv.Clause(ss.enc, st, i)
}

// post returns the state after op runs on the pre-state under b, with
// the invariant grounded in it, shared by every binding that grounds to
// the same effects.
func (ss *session) post(op *spec.Operation, b map[string]string) (*derived, smt.GroundEffects, error) {
	ge, err := op.Ground(b)
	if err != nil {
		return nil, ge, err
	}
	ss.key = ge.AppendKey(ss.key[:0])
	if d, ok := ss.posts[string(ss.key)]; ok {
		return d, ge, nil
	}
	d := &derived{st: ss.enc.Apply(ss.pre, ge, "post")}
	lits := make([]int, len(ss.clauses))
	for i := range ss.clauses {
		if lits[i], err = ss.clause(d.st, i); err != nil {
			return nil, ge, err
		}
	}
	d.holds = ss.enc.S.Gate(false, lits)
	ss.posts[string(ss.key)] = d
	return d, ge, nil
}

// solve decides the session's I(pre) under the conjunction of lits as the
// one assumption.
func (ss *session) solve(lits ...int) bool {
	return ss.enc.S.Solve(ss.enc.S.Gate(false, lits))
}

// checked lists the indices of the clauses the filter selects (nil = all).
func (ss *session) checked(filter clauseFilter) []int {
	var out []int
	for i, cl := range ss.clauses {
		if filter == nil || filter(cl) {
			out = append(out, i)
		}
	}
	return out
}

// conflicting decides whether, under bindings b1 and b2, some I-valid
// pre-state admits both operations and their merge violates one of the
// checked clauses (indices into ss.clauses): checkBinding's verdict.
func (ss *session) conflicting(op1, op2 *spec.Operation, b1, b2 map[string]string, checked []int) (bool, error) {
	post1, ge1, err := ss.post(op1, b1)
	if err != nil {
		return false, err
	}
	post2, ge2, err := ss.post(op2, b2)
	if err != nil {
		return false, err
	}
	ss.conflictQueries++
	merged := ss.enc.Merge(ss.pre, ge1, ge2, ss.resolve, "merged")
	kept := make([]int, len(checked))
	for k, i := range checked {
		if kept[k], err = ss.clause(merged, i); err != nil {
			return false, err
		}
	}
	return ss.solve(post1.holds, post2.holds, -ss.enc.S.Gate(false, kept)), nil
}

// firstConflict returns the first bindings, in enumeration order, under
// which the pair violates a clause the filter selects (nil = all).
func (ss *session) firstConflict(op1, op2 *spec.Operation, filter clauseFilter) (b1, b2 map[string]string, found bool, err error) {
	checked := ss.checked(filter)
	if len(checked) == 0 {
		return nil, nil, false, nil
	}
	b2s := enumBindings(op2.Params, ss.enc.Dom, false)
	for _, b1 := range enumBindings(op1.Params, ss.enc.Dom, true) {
		for _, b2 := range b2s {
			found, err := ss.conflicting(op1, op2, b1, b2, checked)
			if err != nil || found {
				return b1, b2, found, err
			}
		}
	}
	return nil, nil, false, nil
}

// executable reports whether some I-valid state admits both operations
// concurrently under the given bindings: SAT(I(S) ∧ I(o1(S)) ∧ I(o2(S))).
func (ss *session) executable(op1, op2 *spec.Operation, b1, b2 map[string]string) (bool, error) {
	post1, _, err := ss.post(op1, b1)
	if err != nil {
		return false, err
	}
	post2, _, err := ss.post(op2, b2)
	if err != nil {
		return false, err
	}
	return ss.solve(post1.holds, post2.holds), nil
}
