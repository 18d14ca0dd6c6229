package engine

import (
	"errors"
	"fmt"
	"slices"
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

// callScratch is one call's working memory: the maps, states and
// slices a compiled call fills and drops. A compiled call takes one from
// its App's pool and puts it back on every exit path; the reference
// executor (WithInterpreter, per-op fallback) and every whole-state
// caller (checking, digests, repair) make a fresh one, so the
// differential oracle never shares memory with what it checks.
//
// Lifetime: takeScratch clears everything when a call takes the
// scratch, not when it puts it back. Nothing pooled may escape the
// call. Strings may: they are immutable. A slice may not — not the
// arena's tuples, not a state map, not acts or changes. In particular
// crdt.MatchPattern keeps its slice inside the RWRemoveWhereOp, which is
// replicated, WAL-logged and indexed as a tombstone, so a wipe pattern
// (any slice handed to store or crdt to keep) is copied fresh at that
// boundary (execute), never arena-backed.
type callScratch struct {
	binding   map[string]string   // call parameter → argument
	env       map[string]string   // the guard's join binding
	planned   map[string]bool     // atoms already asserted, by key
	seen      map[member]struct{} // extraction's recorded domain members
	pre, post state               // the compiled call's states (extractInto, forkInto)
	acts      []action
	changes   []change
	arena     []string // grounded and split tuples (ground, split)
	undo      []string // bind's undo stack
	key       []byte   // atom key buffer (keyOf)
}

func newCallScratch() *callScratch {
	return &callScratch{
		binding: map[string]string{},
		env:     map[string]string{},
		planned: map[string]bool{},
		seen:    map[member]struct{}{},
	}
}

// takeScratch takes a pooled scratch and clears what its last call left.
func (a *App) takeScratch() *callScratch {
	sc, ok := a.scratch.Get().(*callScratch)
	if !ok {
		return newCallScratch()
	}
	clear(sc.binding)
	clear(sc.env)
	clear(sc.planned)
	clear(sc.seen)
	sc.acts, sc.changes = sc.acts[:0], sc.changes[:0]
	sc.arena, sc.undo = sc.arena[:0], sc.undo[:0]
	return sc
}

// keyOf builds pred(args)'s GroundAtom key in the scratch buffer, valid
// until the next keyOf: a lookup m[string(key)] does not allocate.
func (sc *callScratch) keyOf(pred string, args []string) []byte {
	sc.key = logic.AppendGroundAtom(sc.key[:0], pred, args...)
	return sc.key
}

// atomKey is keyOf as a string, to keep.
func (sc *callScratch) atomKey(pred string, args []string) string {
	if len(args) == 0 {
		return pred
	}
	return string(sc.keyOf(pred, args))
}

// plan simulates the operation's patched execution against the
// pre-state: it grounds every effect, evaluates cascade conditions
// against the visible state, builds the local post-state, and checks the
// explicit preconditions. It fills sc.acts with the concrete update list
// and sc.changes with the truth/value changes relative to the pre-state
// (the compiled guard's trigger input), or returns ErrPrecondition.
//
// post is the guard's view of the operation's outcome: the base effects,
// the cascades, and the analysis-injected retractions — but NOT the
// injected re-assertions or the derived ensure touches. Those only
// re-assert entities against concurrent remote removals; letting them
// satisfy the guard would have every operation conjure up its own
// preconditions (an enroll creating the missing tournament) instead of
// refusing like the hand-coded guards do.
func (a *App) plan(co *compiledOp, sc *callScratch, pre, post *state) error {
	binding := sc.binding
	for _, p := range co.op.Params {
		post.addDomain(p.Sort, binding[p.Name])
	}

	// GroundAtom is the one key scheme extraction, planning, checking,
	// and repair all share (0-ary atoms key under the bare name).
	assert := func(pred string, args []string, touch bool) {
		if sc.planned[string(sc.keyOf(pred, args))] {
			return
		}
		key := sc.atomKey(pred, args)
		sc.planned[key] = true
		kind := actAdd
		if touch {
			kind = actTouch
		}
		sc.acts = append(sc.acts, action{kind: kind, pred: pred, args: args})
		if !touch {
			if !pre.truth(key, pred, args) {
				sc.changes = append(sc.changes, change{pred: pred, args: args, dir: 1})
			}
			post.in.Truth[key] = true
		}
	}
	retract := func(key, pred string, args []string) {
		sc.acts = append(sc.acts, action{kind: actRemove, pred: pred, args: args})
		if pre.truth(key, pred, args) {
			sc.changes = append(sc.changes, change{pred: pred, args: args, dir: -1})
		}
		post.in.Truth[key] = false
	}
	wipe := func(pred string, pattern []string, emit bool) {
		matches := pre.trueTuples(a.preds[pred], pattern, nil)
		if emit || len(matches) > 0 {
			sc.acts = append(sc.acts, action{kind: actWipe, pred: pred, pattern: pattern})
		}
		for _, m := range matches {
			sc.changes = append(sc.changes, change{pred: pred, args: m, dir: -1})
			post.in.Truth[sc.atomKey(pred, m)] = false
		}
	}
	ground := func(terms []logic.Term) ([]string, bool, error) {
		args, wild, missing := sc.ground(terms, binding)
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
				sc.acts = append(sc.acts, action{kind: actDelta, pred: e.Pred, args: args, delta: e.Delta})
				key := sc.atomKey(e.Pred, args)
				post.in.Nums[key] = post.num(key, e.Pred, args) + e.Delta
				if e.Delta != 0 {
					d := int8(1)
					if e.Delta < 0 {
						d = -1
					}
					sc.changes = append(sc.changes, change{pred: e.Pred, args: args, dir: d, numeric: true})
				}
			case e.Val:
				assert(e.Pred, args, touch)
			case wild:
				// A wildcard falsification is always a wipe: on a rem-wins
				// set it must travel to defeat concurrent adds.
				wipe(e.Pred, args, a.predRemWins(e.Pred))
			default:
				retract(sc.atomKey(e.Pred, args), e.Pred, args)
			}
		}
		return nil
	}
	if err := apply(co.base, false); err != nil {
		return err
	}
	if err := apply(co.patches, true); err != nil {
		return err
	}
	for _, t := range co.ensures {
		args, _, err := ground(t.terms)
		if err != nil {
			return err
		}
		assert(t.pred, args, true)
	}
	for _, c := range co.cascades {
		args, _, err := ground(c.terms)
		if err != nil {
			return err
		}
		// Cascades are ground and conditional: retract only what the
		// origin sees (a remove the origin has no grounds for would
		// needlessly defeat concurrent re-assertions).
		if key := sc.atomKey(c.pred, args); pre.truth(key, c.pred, args) {
			retract(key, c.pred, args)
		}
	}

	// Explicit preconditions, against the visible pre-state. Eval never
	// mutates its env, so the call binding is passed as-is.
	for i, p := range co.op.Pre {
		ok, err := pre.evalAt(p, co.preOccs[i], binding)
		if err != nil {
			return fmt.Errorf("engine: %s: requires %s: %w", co.op.Name, p, err)
		}
		if !ok {
			return co.preErrs[i]
		}
	}
	return nil
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
	for i, p := range co.op.Params {
		if args[i] == "" {
			return fmt.Errorf("engine: %s.%s: empty value for parameter %s", a.name, opName, p.Name)
		}
		if strings.Contains(args[i], crdt.TupleSep) || strings.ContainsAny(args[i], "(),") {
			return fmt.Errorf("engine: %s.%s: parameter %s value %q contains a reserved character",
				a.name, opName, p.Name, args[i])
		}
	}
	reference := a.useReference(co)
	var sc *callScratch
	if reference {
		sc = newCallScratch()
	} else {
		sc = a.takeScratch()
	}
	for i, p := range co.op.Params {
		sc.binding[p.Name] = args[i]
	}

	tx := r.Begin()
	committed := false
	defer func() {
		if !committed {
			tx.Commit()
		}
		if !reference {
			a.scratch.Put(sc)
		}
	}()
	var pre, post *state
	if reference {
		a.fallbackCalls.Add(1)
		pre = a.extractInto(&state{}, sc, tx, nil)
		post = pre.fork()
	} else {
		pre = a.extractInto(&sc.pre, sc, tx, co.plan.fp)
		post = pre.forkInto(&sc.post)
	}
	if err := a.plan(co, sc, pre, post); err != nil {
		return err
	}
	var err error
	if pre.lazy {
		err = a.guardCompiled(co, pre, post, sc.changes)
		if post.enumerated {
			a.domainEnumCalls.Add(1)
		}
	} else {
		err = a.guardFull(co, pre, post)
	}
	if err != nil {
		return err
	}
	n := len(sc.acts) // a delta applies two updates, every other action one
	for _, act := range sc.acts {
		if act.kind == actDelta {
			n++
		}
	}
	tx.Grow(n)
	for _, act := range sc.acts {
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
		ref.Add(elem(act.args))
	case actTouch:
		ref.Touch(elem(act.args))
	case actRemove:
		ref.Remove(elem(act.args))
	case actWipe:
		// The op keeps the pattern's slice: never the call's arena.
		ref.RemoveWhere(crdt.MatchPattern(slices.Clone(act.pattern)...))
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
