package analysis

import (
	"ipa/internal/logic"
	"ipa/internal/spec"
)

// Hooks for the external tests (package analysis_test), which import the
// bundled applications and so cannot live inside this package.

// ApplyRepair lets the differential test replay Run's repair loop.
var ApplyRepair = applyRepair

// PairBindings lists the bindings IsConflicting enumerates for a pair.
func PairBindings(s *spec.Spec, op1, op2 *spec.Operation, opts Options) [][2]map[string]string {
	dom := domainFor(s, opts.withDefaults().Scope)
	var out [][2]map[string]string
	for _, b1 := range enumBindings(op1.Params, dom, true) {
		for _, b2 := range enumBindings(op2.Params, dom, false) {
			out = append(out, [2]map[string]string{b1, b2})
		}
	}
	return out
}

// Session exposes a session's two verdicts.
type Session struct{ ss *session }

// Groundings are the I(pre) prefixes a run's sessions start from.
type Groundings struct{ g *groundings }

func NewGroundings() *Groundings { return &Groundings{&groundings{}} }

// Session starts a session from the prefix for s on the solver the run's
// sequential queries reuse, as they do: the previous session started
// here may not be used again.
func (g *Groundings) Session(s *spec.Spec, opts Options) (*Session, error) {
	ss, err := g.g.session(s, opts.withDefaults(), g.g.main())
	return &Session{ss}, err
}

// Conflicting is the session's conflict verdict for one binding, against
// every clause or only the boolean ones (the repair search's filter).
func (s *Session) Conflicting(op1, op2 *spec.Operation, b1, b2 map[string]string, boolOnly bool) (bool, error) {
	var filter clauseFilter
	if boolOnly {
		filter = boolClausesOnly
	}
	return s.ss.conflicting(op1, op2, b1, b2, s.ss.checked(filter))
}

func (s *Session) Executable(op1, op2 *spec.Operation, b1, b2 map[string]string) (bool, error) {
	return s.ss.executable(op1, op2, b1, b2)
}

// FreshConflict is checkBinding, the witness path: one fresh encoder for
// one binding.
func FreshConflict(s *spec.Spec, op1, op2 *spec.Operation, b1, b2 map[string]string, opts Options, boolOnly bool) (*Conflict, error) {
	sig, err := s.Signature()
	if err != nil {
		return nil, err
	}
	clauses := logic.Clauses(s.Invariant())
	var checked []logic.Formula
	for _, cl := range clauses {
		if !boolOnly || boolClausesOnly(cl) {
			checked = append(checked, cl)
		}
	}
	return checkBinding(s, domainFor(s, opts.withDefaults().Scope), sig, clauses, checked, op1, op2, b1, b2)
}

// WorkCount is the work one Run's workers counted (see workCount),
// summed; Prefixes is how many distinct (invariant, scope) it
// grounded for, and Clauses how many invariant clauses those have in all.
type WorkCount struct {
	Groundings, Prefixes, Clauses, RepairConflictQueries int
	ClauseWalks, Instantiations                          int
}

// RunCounted is Run, also returning the work it counted.
func RunCounted(s *spec.Spec, opts Options) (*Result, WorkCount, error) {
	g := &groundings{}
	res, err := run(s, opts.withDefaults(), g)
	w := WorkCount{Prefixes: len(g.prefixes)}
	for _, wk := range g.workers { // each counted the checks it ran
		w.Groundings += wk.work.groundings
		w.RepairConflictQueries += wk.work.repairConflictQueries
		w.ClauseWalks += wk.work.smt.Walks
		w.Instantiations += wk.work.smt.Instantiations
	}
	for _, p := range g.prefixes {
		w.Clauses += len(p.clauses)
	}
	return res, w, err
}

// ReferenceRepairConflict is RepairConflict with every session grounding
// its own I(pre) and each candidate checked for a conflict first and for
// executability second: the order and grounding the run's shared
// prefixes and executability-first check must agree with.
func ReferenceRepairConflict(s *spec.Spec, c *Conflict, opts Options) ([]Repair, error) {
	opts = opts.withDefaults()
	ss, err := newSession(s, opts, &workCount{})
	if err != nil {
		return nil, err
	}
	op1, _ := s.Operation(c.Op1.Name)
	op2, _ := s.Operation(c.Op2.Name)
	origExec, err := ss.executableBindings(op1, op2)
	if err != nil {
		return nil, err
	}
	return searchRepairs(s, c, opts, &groundings{}, func(_ *worker, scratch *spec.Spec, op1, op2 *spec.Operation) (bool, error) {
		ss, err := newSession(scratch, opts, &workCount{})
		if err != nil {
			return false, err
		}
		if _, _, found, err := ss.firstConflict(op1, op2, boolClausesOnly); err != nil || found {
			return false, err
		}
		for _, b := range origExec {
			if ok, err := ss.executable(op1, op2, b.b1, b.b2); err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	})
}

// CandidateEffects lists the effects the repair search combines into
// candidate repairs of c for target.
func CandidateEffects(s *spec.Spec, c *Conflict, target *spec.Operation) ([]spec.Effect, error) {
	pool, err := predicatePool(s, c)
	if err != nil {
		return nil, err
	}
	var out []spec.Effect
	for _, ce := range candidatesFor(target, pool) {
		out = append(out, spec.Effect{Kind: spec.BoolAssign, Pred: ce.pred, Args: ce.args, Val: ce.val})
	}
	return out, nil
}
