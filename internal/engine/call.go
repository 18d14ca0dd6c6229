package engine

import (
	"errors"
	"fmt"
	"strings"

	"ipa/internal/crdt"
	"ipa/internal/logic"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
)

// ErrPrecondition reports that an operation did not execute because its
// preconditions — explicit `requires` clauses, or the generic "no new
// invariant violation in the origin's visible state" guard — failed at
// the origin replica. The call is then a no-op, exactly like the
// hand-coded applications' guarded operations; callers that only care
// about executed-or-not can errors.Is against this sentinel.
var ErrPrecondition = errors.New("engine: precondition failed")

// unitElem is the set element standing for a 0-ary predicate's single
// instance.
const unitElem = "()"

// action is one concrete CRDT update of a planned call.
type action struct {
	kind    actionKind
	pred    string   // predicate or numeric field
	args    []string // ground tuple (add/touch/remove/delta)
	pattern []string // wipe pattern, "" = wildcard
	delta   int      // numeric delta
}

// plan simulates the operation's patched execution against the
// pre-state: it grounds every effect, evaluates cascade conditions
// against the visible state, builds the local post-state, and checks the
// explicit preconditions. It returns the concrete update list, the
// simulated post-state, and the truth/value changes relative to the
// pre-state (the compiled guard's trigger input), or ErrPrecondition.
func (a *App) plan(co *compiledOp, pre *state, binding map[string]string) ([]action, *state, []change, error) {
	// post is the guard's view of the operation's outcome: the base
	// effects, the cascades, and the analysis-injected retractions — but
	// NOT the injected re-assertions or the derived ensure touches. Those
	// only re-assert entities against concurrent remote removals; letting
	// them satisfy the guard would have every operation conjure up its own
	// preconditions (an enroll creating the missing tournament) instead of
	// refusing like the hand-coded guards do.
	post := pre.fork()
	for _, p := range co.op.Params {
		post.addDomain(p.Sort, binding[p.Name])
	}
	var acts []action
	var changes []change
	planned := map[string]bool{} // dedupe positive assertions by atom

	// GroundAtom is the one key scheme extraction, planning, checking,
	// and repair all share (0-ary atoms key under the bare name).
	assert := func(pred string, args []string, touch bool) {
		key := logic.GroundAtom(pred, args...)
		if planned[key] {
			return
		}
		planned[key] = true
		kind := actAdd
		if touch {
			kind = actTouch
		}
		acts = append(acts, action{kind: kind, pred: pred, args: args})
		if !touch {
			if !pre.truth(key, pred, args) {
				changes = append(changes, change{pred: pred, args: args, dir: 1})
			}
			post.in.Truth[key] = true
		}
	}
	retractGround := func(pred string, args []string) {
		acts = append(acts, action{kind: actRemove, pred: pred, args: args})
		key := logic.GroundAtom(pred, args...)
		if pre.truth(key, pred, args) {
			changes = append(changes, change{pred: pred, args: args, dir: -1})
		}
		post.in.Truth[key] = false
	}
	wipe := func(pred string, pattern []string, emit bool) {
		matches := pre.trueTuples(a.preds[pred], pattern, nil)
		if emit || len(matches) > 0 {
			acts = append(acts, action{kind: actWipe, pred: pred, pattern: pattern})
		}
		for _, m := range matches {
			changes = append(changes, change{pred: pred, args: m, dir: -1})
			post.in.Truth[logic.GroundAtom(pred, m...)] = false
		}
	}
	ground := func(terms []logic.Term) ([]string, bool, error) {
		args, wild, missing := groundTerms(terms, binding)
		if missing != "" {
			return nil, false, fmt.Errorf("engine: unbound parameter %q", missing)
		}
		return args, wild, nil
	}

	apply := func(effects []spec.Effect, touch bool) error {
		for _, e := range effects {
			args, wild, err := ground(e.Args)
			if err != nil {
				return err
			}
			switch {
			case e.Kind == spec.NumDelta:
				acts = append(acts, action{kind: actDelta, pred: e.Pred, args: args, delta: e.Delta})
				key := logic.GroundAtom(e.Pred, args...)
				post.in.Nums[key] = post.num(key, e.Pred, args) + e.Delta
				if e.Delta != 0 {
					d := int8(1)
					if e.Delta < 0 {
						d = -1
					}
					changes = append(changes, change{pred: e.Pred, args: args, dir: d, numeric: true})
				}
			case e.Val:
				assert(e.Pred, args, touch)
			case wild:
				// A wildcard falsification is always a wipe: on a rem-wins
				// set it must travel to defeat concurrent adds.
				wipe(e.Pred, args, a.predRemWins(e.Pred))
			default:
				retractGround(e.Pred, args)
			}
		}
		return nil
	}
	if err := apply(co.base, false); err != nil {
		return nil, nil, nil, err
	}
	if err := apply(co.patches, true); err != nil {
		return nil, nil, nil, err
	}
	for _, t := range co.ensures {
		args, _, err := ground(t.terms)
		if err != nil {
			return nil, nil, nil, err
		}
		assert(t.pred, args, true)
	}
	for _, c := range co.cascades {
		args, _, err := ground(c.terms)
		if err != nil {
			return nil, nil, nil, err
		}
		// Cascades are ground and conditional: retract only what the
		// origin sees (a remove the origin has no grounds for would
		// needlessly defeat concurrent re-assertions).
		if pre.truth(logic.GroundAtom(c.pred, args...), c.pred, args) {
			retractGround(c.pred, args)
		}
	}

	// Explicit preconditions, against the visible pre-state. Eval never
	// mutates its env, so the call binding is passed as-is.
	for i, p := range co.op.Pre {
		ok, err := pre.evalAt(p, co.preOccs[i], binding)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("engine: %s: requires %s: %w", co.op.Name, p, err)
		}
		if !ok {
			return nil, nil, nil, co.preErrs[i]
		}
	}
	return acts, post, changes, nil
}

// guardFull is the reference form of the generic no-new-violation
// guard: the operation must not introduce a violation the origin can
// see — for every relevant clause and binding, a clause instance that
// held before must still hold after (instances already violated by
// earlier merges don't block progress).
func (a *App) guardFull(co *compiledOp, pre, post *state) error {
	for i, cl := range co.guards {
		envs := post.enumBindings(cl.vars)
		for _, env := range envs {
			okPost, err := post.in.Eval(cl.body, env)
			if err != nil {
				return fmt.Errorf("engine: %s: guard %s: %w", co.op.Name, cl.Formula, err)
			}
			if okPost {
				continue
			}
			okPre, err := pre.in.Eval(cl.body, env)
			if err != nil || !okPre {
				continue // already violated (or not evaluable) before
			}
			return co.violErrs[i]
		}
	}
	return nil
}

// useReference reports whether the operation runs on the whole-state
// reference executor (by mount option, or by per-op fallback).
func (a *App) useReference(co *compiledOp) bool {
	return a.interpreted || co.plan == nil || co.plan.fallback
}

// Call executes one specification operation at a replica, inside a
// single highly available transaction: extract the consistent local
// view, check preconditions, and apply the planned base, repair,
// ensure, and cascade effects. It returns ErrPrecondition (wrapped)
// when the operation is a guarded no-op, and a plain error for caller
// mistakes (unknown operation, arity or argument problems).
func (a *App) Call(r runtime.Replica, opName string, args ...string) error {
	co, ok := a.ops[opName]
	if !ok {
		return fmt.Errorf("engine: %s: unknown operation %q (have %s)",
			a.name, opName, strings.Join(a.opNames, ", "))
	}
	if len(args) != len(co.op.Params) {
		return fmt.Errorf("engine: %s.%s wants %d argument(s) (%s), got %d",
			a.name, opName, len(co.op.Params), paramList(co.op), len(args))
	}
	binding := map[string]string{}
	for i, p := range co.op.Params {
		if args[i] == "" {
			return fmt.Errorf("engine: %s.%s: empty value for parameter %s", a.name, opName, p.Name)
		}
		if strings.Contains(args[i], crdt.TupleSep) || strings.ContainsAny(args[i], "(),") {
			return fmt.Errorf("engine: %s.%s: parameter %s value %q contains a reserved character",
				a.name, opName, p.Name, args[i])
		}
		binding[p.Name] = args[i]
	}

	tx := r.Begin()
	committed := false
	defer func() {
		if !committed {
			tx.Commit()
		}
	}()
	var pre *state
	if a.useReference(co) {
		a.fallbackCalls.Add(1)
		pre = a.extract(tx, nil)
	} else {
		pre = a.extract(tx, co.plan.fp)
	}
	acts, post, changes, err := a.plan(co, pre, binding)
	if err != nil {
		return err
	}
	if pre.lazy {
		err = a.guardCompiled(co, pre, post, changes)
		if post.enumerated {
			a.domainEnumCalls.Add(1)
		}
	} else {
		err = a.guardFull(co, pre, post)
	}
	if err != nil {
		return err
	}
	for _, act := range acts {
		a.execute(tx, act)
	}
	committed = true
	tx.Commit()
	return nil
}

func paramList(op *spec.Operation) string {
	parts := make([]string, len(op.Params))
	for i, p := range op.Params {
		parts[i] = p.String()
	}
	return strings.Join(parts, ", ")
}

func (a *App) predRemWins(pred string) bool {
	pi := a.preds[pred]
	return pi != nil && pi.remWins
}

// elem encodes a ground tuple as a set element.
func elem(args []string) string {
	if len(args) == 0 {
		return unitElem
	}
	return crdt.JoinTuple(args...)
}

// execute applies one planned action through the transaction.
func (a *App) execute(tx *store.Txn, act action) {
	if act.kind == actDelta {
		a.executeDelta(tx, act)
		return
	}
	ref := a.set(tx, a.preds[act.pred])
	switch act.kind {
	case actAdd:
		ref.Add(elem(act.args), "")
	case actTouch:
		ref.Touch(elem(act.args))
	case actRemove:
		ref.Remove(elem(act.args))
	case actWipe:
		ref.RemoveWhere(crdt.MatchPattern(act.pattern...))
	}
}

// executeDelta applies a numeric update: grants and escrow-guarded
// consumes on a bounded counter (falling back to an optimistic
// overdraft consume when the origin holds too few rights — the guard
// already vouched for the globally visible value, and the compensation
// repairs what a partition hides), plain adds on a PN-counter. The
// field's index set learns the tuple so extraction can find it.
func (a *App) executeDelta(tx *store.Txn, act action) {
	ni := a.nums[act.pred]
	tuple := elem(act.args)
	store.AWSetAt(tx, ni.idxKey).Touch(tuple)
	if !ni.bounded {
		store.CounterAt(tx, ni.key(tuple)).Add(int64(act.delta))
		return
	}
	ref := store.BoundedAt(tx, ni.key(tuple))
	if act.delta >= 0 {
		ref.Grant(int64(act.delta))
		return
	}
	n := int64(-act.delta)
	if !ref.Consume(n) {
		ref.ForceConsume(n)
	}
}
