package engine

import (
	"errors"
	"fmt"

	"ipa/internal/logic"
	"ipa/internal/runtime"
	"ipa/internal/store"
)

// CheckInvariants evaluates the continuously guaranteed invariant
// clauses against the replica's current state and reports the violated
// instances. These are the clauses the analysis repaired at merge time;
// they must hold in every causally consistent local state, mid-flight
// included.
func (a *App) CheckInvariants(r runtime.Replica) []string {
	return a.check(r, func(cl *Clause) bool { return cl.Class == Continuous })
}

// CheckQuiescent additionally asserts the read-repaired clauses — valid
// only after the compensating reads (Repair) have run and replicated,
// i.e. at quiescence.
func (a *App) CheckQuiescent(r runtime.Replica) []string {
	return a.check(r, func(cl *Clause) bool {
		return cl.Class == Continuous || cl.Class == ReadRepaired
	})
}

// check evaluates the wanted clauses by join, like a guard with nothing
// bound: only the bindings at which a clause's generators hold can
// violate it, so the cost follows the generators' extensions, not the
// product of the domains. What a join cannot reach (counts, ungenerated
// variables) is extracted whole; an irregular clause — and every clause
// of an application mounted WithInterpreter, the differential oracle —
// is evaluated as written, quantifier and all, on the whole state.
func (a *App) check(r runtime.Replica, want func(*Clause) bool) []string {
	tx := r.Begin()
	defer tx.Commit()
	asWritten := func(cl *Clause) bool { return a.interpreted || cl.irregular != "" }
	whole, w := false, newWholeReads()
	for _, cl := range a.clauses {
		if want(cl) {
			whole = whole || asWritten(cl)
			cl.wholeReadsOf(nil, w)
		}
	}
	var fp *footprint
	if !whole {
		fp = a.footprintOf(w)
	}
	st := a.extract(tx, fp)
	var out []string
	for _, cl := range a.clauses {
		if !want(cl) {
			continue
		}
		ok, err := st.holds(cl, asWritten(cl))
		if err != nil {
			out = append(out, fmt.Sprintf("cannot evaluate %s: %v", cl.Formula, err))
			continue
		}
		if !ok {
			out = append(out, fmt.Sprintf("violated [%s]: %s", cl.Class, cl.Formula))
		}
	}
	return out
}

// holds reports whether the clause holds in the state: evaluated as
// written, or by join up to the first violating binding.
func (s *state) holds(cl *Clause, asWritten bool) (bool, error) {
	if asWritten {
		return s.in.Eval(cl.Formula, nil)
	}
	err := s.join(cl, map[string]string{}, nil, func(env map[string]string) error {
		ok, err := s.evalAt(cl.body, cl.occs, env)
		if err == nil && !ok {
			err = errViolated
		}
		return err
	})
	if err == errViolated {
		return false, nil
	}
	return err == nil, err
}

// errViolated stops a join at the first violating binding.
var errViolated = errors.New("violated")

// Digest summarizes the replica's visible specification-level state. At
// quiescence every replica of a converged cluster digests identically,
// and so does any other executor — hand-coded or generated — that
// reached the same logical state.
func (a *App) Digest(r runtime.Replica) string {
	tx := r.Begin()
	defer tx.Commit()
	return DigestOf(a.extract(tx, nil).in)
}

// Interp extracts the replica's current specification-level
// interpretation (for external checkers and tests).
func (a *App) Interp(r runtime.Replica) logic.Interp {
	tx := r.Begin()
	defer tx.Commit()
	return a.extract(tx, nil).in
}

// Repair runs the analysis' compensations as read-time repairs at the
// replica, committing the compensating updates with the reading
// transaction (paper §3.4/§4.2.2):
//
//   - trim-excess: while a bounded count is over its limit, remove the
//     deterministically smallest matching elements of the collection;
//   - replenish: restore a violated lower bound's deficit through the
//     field's epoch-keyed ledger (see numInfo.ledgerPfx).
//
// Both are deterministic, idempotent functions of the visible state:
// replicas that observe the same violation remove the same elements or
// add the same ledger entry, so independent compensations converge and
// the deficit is repaired exactly once.
func (a *App) Repair(r runtime.Replica) {
	if !a.NeedsRepair() {
		return
	}
	tx := r.Begin()
	defer tx.Commit()
	st := a.extract(tx, nil)
	for _, cl := range a.clauses {
		if cl.Class != ReadRepaired {
			continue
		}
		cmp, ok := cl.body.(*logic.Cmp)
		if !ok {
			continue
		}
		if pred, args, limit, isCount := countBound(cmp, a.consts); isCount {
			a.trimExcess(tx, st, cl, pred, args, limit)
			continue
		}
		if fn, bound, isLower := lowerBound(cmp, a.consts); isLower {
			a.replenish(tx, st, cl, fn, bound)
		}
	}
}

// NeedsRepair reports whether the application has any read-time
// compensations at all (merge-repaired apps skip the repair pass).
func (a *App) NeedsRepair() bool {
	for _, cl := range a.clauses {
		if cl.Class == ReadRepaired {
			return true
		}
	}
	return false
}

// countBound recognises #p(args) <= K (or < K, or mirrored) with a
// constant-evaluable K and returns the inclusive limit.
func countBound(cmp *logic.Cmp, consts map[string]int) (pred string, args []logic.Term, limit int, ok bool) {
	if cnt, isCount := cmp.L.(*logic.Count); isCount && (cmp.Op == logic.LE || cmp.Op == logic.LT) {
		if k, kOK := constVal(cmp.R, consts); kOK {
			if cmp.Op == logic.LT {
				k--
			}
			return cnt.Pred, cnt.Args, k, true
		}
	}
	if cnt, isCount := cmp.R.(*logic.Count); isCount && (cmp.Op == logic.GE || cmp.Op == logic.GT) {
		if k, kOK := constVal(cmp.L, consts); kOK {
			if cmp.Op == logic.GT {
				k--
			}
			return cnt.Pred, cnt.Args, k, true
		}
	}
	return "", nil, 0, false
}

// trimExcess removes, for every binding of the clause's variables, the
// deterministically smallest elements of the counted collection until
// the bound holds in the visible state.
func (a *App) trimExcess(tx *store.Txn, st *state, cl *Clause, pred string, args []logic.Term, limit int) {
	pi := a.preds[pred]
	if pi == nil || limit < 0 {
		return
	}
	for _, env := range st.enumBindings(cl.vars) {
		pattern := make([]string, len(args))
		skip := false
		for i, t := range args {
			switch t.Kind {
			case logic.TermVar:
				v, ok := env[t.Name]
				if !ok {
					skip = true
				}
				pattern[i] = v
			case logic.TermConst:
				pattern[i] = t.Name
			case logic.TermWildcard:
				pattern[i] = ""
			}
		}
		if skip {
			continue
		}
		matches := st.trueTuples(pi, pattern, nil) // sorted
		excess := len(matches) - limit
		for i := 0; i < excess; i++ {
			tuple := matches[i]
			a.execute(tx, action{kind: actRemove, pred: pred, args: tuple})
			st.in.Truth[logic.GroundAtom(pred, tuple...)] = false
		}
	}
}

// replenish restores every violated lower-bound instance. For bounded
// fields the deficit goes through the idempotent replenish ledger: the
// entry is keyed by the observed ledger epoch, so replicas compensating
// from the same settled state add the identical entry and the deficit
// is granted exactly once, however many replicas run the repair. A
// field the invariant quantifies over but no operation ever funded
// counts as zero and is replenished like any other violation.
func (a *App) replenish(tx *store.Txn, st *state, cl *Clause, fn string, bound int) {
	// extractBounds vetted every lower-bound clause at mount: fn is a
	// known numeric field and already marked bounded.
	ni := a.nums[fn]
	if ni == nil {
		return
	}
	app := fnAppOf(cl.body)
	if app == nil {
		return
	}
	for _, env := range st.enumBindings(cl.vars) {
		args := make([]string, len(app.Args))
		skip := false
		for i, t := range app.Args {
			switch t.Kind {
			case logic.TermVar:
				v, ok := env[t.Name]
				if !ok {
					skip = true
				}
				args[i] = v
			case logic.TermConst:
				args[i] = t.Name
			default:
				skip = true
			}
		}
		if skip {
			continue
		}
		key := logic.GroundAtom(fn, args...)
		val := st.in.Nums[key] // missing fields read as zero
		if val >= bound {
			continue
		}
		tuple := elem(args)
		ledger := store.AWSetAt(tx, ni.ledger(tuple))
		ledger.Add(fmt.Sprintf("r%d:%d", ledger.Size(), bound-val), "")
		store.AWSetAt(tx, ni.idxKey).Touch(tuple)
		st.in.Nums[key] = bound
	}
}

// fnAppOf finds the numeric-field application in a comparison clause.
func fnAppOf(body logic.Formula) *logic.FnApp {
	cmp, ok := body.(*logic.Cmp)
	if !ok {
		return nil
	}
	if app, isFn := cmp.L.(*logic.FnApp); isFn {
		return app
	}
	if app, isFn := cmp.R.(*logic.FnApp); isFn {
		return app
	}
	return nil
}
