package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ipa/internal/logic"
	"ipa/internal/spec"
)

// Repair is one candidate resolution for a conflict: extra effects added
// to a single operation of the pair, together with the convergence rules
// the repair relies on (paper §3.2, Fig. 2b/2c). Applying a repair makes
// the target operation's effects prevail over the counterpart's.
type Repair struct {
	// Target is the operation receiving the extra effects.
	Target string
	// Extra are the effects to append to the target operation.
	Extra []spec.Effect
	// Rules are convergence rules the repair introduces for predicates the
	// programmer left unconstrained. Never overrides a programmer rule.
	Rules map[string]spec.Policy
}

func (r Repair) String() string {
	var s string
	if len(r.Extra) == 0 {
		s = fmt.Sprintf("let %s win, no extra effects", r.Target)
	} else {
		parts := make([]string, len(r.Extra))
		for i, e := range r.Extra {
			parts[i] = e.String()
		}
		s = fmt.Sprintf("add to %s: %s", r.Target, strings.Join(parts, "; "))
	}
	if len(r.Rules) > 0 {
		rules := make([]string, 0, len(r.Rules))
		for p, pol := range r.Rules {
			rules = append(rules, fmt.Sprintf("%s %s", p, pol))
		}
		sort.Strings(rules)
		s += " (rules: " + strings.Join(rules, ", ") + ")"
	}
	return s
}

// wildcards counts wildcard arguments across the repair's effects, used as
// a tie-breaker: repairs with concrete arguments are preferred.
func (r Repair) wildcards() int {
	n := 0
	for _, e := range r.Extra {
		for _, a := range e.Args {
			if a.Kind == logic.TermWildcard {
				n++
			}
		}
	}
	return n
}

// candidateEffect is one element of the generation pool.
type candidateEffect struct {
	pred string
	args []logic.Term
	val  bool
}

// RepairConflict proposes every minimal repair for the conflict, ordered
// by increasing number of added effects, then fewer wildcards, then
// lexicographically (paper repairConflicts + generate). Only boolean
// clauses participate; numeric clauses route to compensations.
func RepairConflict(s *spec.Spec, c *Conflict, opts Options) ([]Repair, error) {
	return repairConflict(s, c, opts.withDefaults(), &groundings{})
}

// repairConflict is RepairConflict with the run's groundings: the
// unrepaired pair and every candidate start their sessions from them.
func repairConflict(s *spec.Spec, c *Conflict, opts Options, g *groundings) ([]Repair, error) {
	ss, err := g.session(s, opts, g.main())
	if err != nil {
		return nil, err
	}
	op1, _ := s.Operation(c.Op1.Name)
	op2, _ := s.Operation(c.Op2.Name)
	origExec, err := ss.executableBindings(op1, op2)
	if err != nil {
		return nil, err
	}
	return searchRepairs(s, c, opts, g, func(w *worker, scratch *spec.Spec, op1, op2 *spec.Operation) (bool, error) {
		ss, err := g.session(scratch, opts, w)
		if err != nil {
			return false, err
		}
		solved, err := ss.repairSolves(op1, op2, origExec)
		w.work.repairConflictQueries += ss.conflictQueries
		return solved, err
	})
}

// repairCheck decides, on worker w, whether a candidate repair solves the
// conflict: scratch is the spec with the repair applied, op1 and op2 the
// pair in it.
type repairCheck func(w *worker, scratch *spec.Spec, op1, op2 *spec.Operation) (bool, error)

// searchRepairs generates the candidate repairs for the conflict and
// returns, sorted, those the check accepts. Candidates are generated in
// levels — the rule-only ones, then one level per (size, target) — and
// each level's candidates are checked on g's workers at once.
func searchRepairs(s *spec.Spec, c *Conflict, opts Options, g *groundings, check repairCheck) ([]Repair, error) {
	// Pool: predicates of the invariant clauses touched by either
	// operation's effects (paper line 15).
	pool, err := predicatePool(s, c)
	if err != nil {
		return nil, err
	}

	// Rule-only resolutions first: when the two operations write opposing
	// values to the same predicate, installing a convergence rule alone
	// may already decide the winner (the paper's Fig. 3 uses exactly this
	// for begin/finish: a rem-wins active set, no extra effects).
	solutions, err := g.checkAll(s, c, ruleOnlyRepairs(s, c, opts), check)
	if err != nil {
		return nil, err
	}

	// Enumerate subsets by increasing size so found repairs are minimal;
	// a candidate containing a known solution for the same target is
	// skipped (paper line 18, isPairSubset). Within one level no solution
	// can cover another candidate: a rule-only or smaller solution covers
	// a candidate, but one of the same size only an equal effect set, and
	// candidatesFor emits pairwise distinct effects, so no two subsets are
	// equal. Filtering a level against the solutions of the levels before
	// it, and appending its solved candidates in candidate order, is the
	// paper's one-at-a-time loop.
	for size := 1; size <= opts.MaxRepairPreds; size++ {
		for _, target := range []*spec.Operation{c.Op1, c.Op2} {
			counterpart := c.Op2
			if target == c.Op2 {
				counterpart = c.Op1
			}
			cands := candidatesFor(target, pool)
			var level []Repair
			for _, idxs := range subsetsOfSize(len(cands), size) {
				extra := make([]spec.Effect, 0, size)
				skip := false
				for _, i := range idxs {
					e := spec.Effect{Kind: spec.BoolAssign, Pred: cands[i].pred, Args: cands[i].args, Val: cands[i].val}
					if target.HasEffect(e) || hasOpposite(extra, e) {
						skip = true
						break
					}
					extra = append(extra, e)
				}
				if skip || len(extra) == 0 {
					continue
				}
				if coveredBySolution(solutions, target.Name, extra) {
					continue
				}
				rules, ok := requiredRules(s, target, counterpart, extra, opts)
				if !ok {
					continue
				}
				level = append(level, Repair{Target: target.Name, Extra: extra, Rules: rules})
			}
			solved, err := g.checkAll(s, c, level, check)
			if err != nil {
				return nil, err
			}
			solutions = append(solutions, solved...)
		}
	}
	sortRepairs(solutions)
	return solutions, nil
}

// checkAll returns, in candidate order, the candidates the check accepts.
// It checks them on runtime.GOMAXPROCS(0) of g's workers, the calling
// goroutine running the first: each takes the next unchecked candidate
// until none is left. Every check starts its sessions from the run's
// prefix, so its verdict and the work it counts do not depend on which
// worker ran it or what that worker ran before.
func (g *groundings) checkAll(s *spec.Spec, c *Conflict, cands []Repair, check repairCheck) ([]Repair, error) {
	if len(cands) == 0 {
		return nil, nil
	}
	solved := make([]bool, len(cands))
	errs := make([]error, len(cands))
	var next atomic.Int64
	run := func(w *worker) {
		for i := int(next.Add(1) - 1); i < len(cands); i = int(next.Add(1) - 1) {
			solved[i], errs[i] = solves(w, s, c, cands[i], check)
		}
	}
	workers := g.pool(min(runtime.GOMAXPROCS(0), len(cands)))
	var wg sync.WaitGroup
	for _, w := range workers[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(workers[0])
	wg.Wait()
	var out []Repair
	for i, rep := range cands {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if solved[i] {
			out = append(out, rep)
		}
	}
	return out, nil
}

// predicatePool collects boolean predicates from the invariant clauses
// affected by the conflicting operations, with argument terms chosen from
// the target op's parameters (or wildcards when no parameter of the sort
// exists) at candidate-build time.
func predicatePool(s *spec.Spec, c *Conflict) ([]logic.PredRef, error) {
	sig, err := s.Signature()
	if err != nil {
		return nil, err
	}
	touched := map[string]bool{}
	for _, op := range []*spec.Operation{c.Op1, c.Op2} {
		for _, e := range op.Effects {
			touched[e.Pred] = true
		}
	}
	seen := map[string]bool{}
	var pool []logic.PredRef
	for _, cl := range logic.Clauses(s.Invariant()) {
		if logic.HasCount(cl) {
			continue
		}
		refs := logic.Predicates(cl)
		relevant := false
		for _, ref := range refs {
			if touched[ref.Name] {
				relevant = true
				break
			}
		}
		if !relevant {
			continue
		}
		for _, ref := range refs {
			if ref.Numeric || seen[ref.Name] {
				continue
			}
			seen[ref.Name] = true
			// Fill unknown sorts from the global signature.
			if sorts, ok := sig[ref.Name]; ok {
				ref.Sorts = sorts
			}
			pool = append(pool, ref)
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].Name < pool[j].Name })
	return pool, nil
}

// ruleOnlyRepairs proposes the candidate resolutions that add no
// effects: for every predicate the two operations write with opposing
// values, a convergence rule alone may decide the winner. Each candidate
// is attributed to the operation whose write the rule favours.
func ruleOnlyRepairs(s *spec.Spec, c *Conflict, opts Options) []Repair {
	if opts.DisableRuleSuggestion {
		return nil
	}
	var out []Repair
	tried := map[string]bool{}
	for _, e1 := range c.Op1.Effects {
		if e1.Kind != spec.BoolAssign {
			continue
		}
		for _, e2 := range c.Op2.Effects {
			if e2.Kind != spec.BoolAssign || e2.Pred != e1.Pred || e2.Val == e1.Val {
				continue
			}
			if tried[e1.Pred] {
				continue
			}
			tried[e1.Pred] = true
			if have, ok := s.Rules[e1.Pred]; ok && have != spec.NoPolicy {
				continue // the programmer already decided
			}
			for _, pol := range []spec.Policy{spec.AddWins, spec.RemWins} {
				target := c.Op1.Name
				favoursOp1 := (pol == spec.AddWins) == e1.Val
				if !favoursOp1 {
					target = c.Op2.Name
				}
				out = append(out, Repair{Target: target, Rules: map[string]spec.Policy{e1.Pred: pol}})
			}
		}
	}
	return out
}

// candidatesFor instantiates the pool's predicates with the target
// operation's parameters: each argument position takes every parameter of
// the matching sort plus a wildcard. Predicates the operation already
// writes are excluded (paper generate: "ignoring any predicates that are
// already present in the operation") — a candidate opposing the op's own
// effect would cancel the operation's semantics.
func candidatesFor(target *spec.Operation, pool []logic.PredRef) []candidateEffect {
	own := map[string]bool{}
	for _, e := range target.Effects {
		own[e.Pred] = true
	}
	var out []candidateEffect
	for _, ref := range pool {
		if own[ref.Name] {
			continue
		}
		argChoices := make([][]logic.Term, ref.Arity)
		feasible := true
		for i := 0; i < ref.Arity; i++ {
			var choices []logic.Term
			for _, p := range target.Params {
				if p.Sort == ref.Sorts[i] {
					choices = append(choices, logic.V(p.Name))
				}
			}
			if ref.Sorts[i] == "" && len(choices) == 0 {
				feasible = false
				break
			}
			// The wildcard is always an alternative: effects such as
			// enrolled(*, t) or inMatch(p, *, t) cover elements the
			// operation has no parameter for.
			choices = append(choices, logic.Wild())
			argChoices[i] = choices
		}
		if !feasible {
			continue
		}
		for _, args := range cartesianTerms(argChoices) {
			for _, val := range []bool{true, false} {
				out = append(out, candidateEffect{pred: ref.Name, args: args, val: val})
			}
		}
	}
	return out
}

func cartesianTerms(choices [][]logic.Term) [][]logic.Term {
	out := [][]logic.Term{{}}
	for _, col := range choices {
		var next [][]logic.Term
		for _, prefix := range out {
			for _, t := range col {
				row := make([]logic.Term, len(prefix)+1)
				copy(row, prefix)
				row[len(prefix)] = t
				next = append(next, row)
			}
		}
		out = next
	}
	return out
}

// subsetsOfSize enumerates index subsets of {0..n-1} with exactly k
// elements, in lexicographic order.
func subsetsOfSize(n, k int) [][]int {
	if k > n {
		return nil
	}
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// hasOpposite reports whether extra already assigns the same predicate
// instance the opposite value (such a candidate set is self-contradictory).
func hasOpposite(extra []spec.Effect, e spec.Effect) bool {
	for _, x := range extra {
		if x.Pred == e.Pred && x.Val != e.Val && sameArgs(x.Args, e.Args) {
			return true
		}
	}
	return false
}

func sameArgs(a, b []logic.Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coveredBySolution implements the paper's isPairSubset: a candidate whose
// effect set contains a known smaller solution for the same target is
// redundant.
func coveredBySolution(solutions []Repair, target string, extra []spec.Effect) bool {
	for _, s := range solutions {
		if s.Target != target {
			continue
		}
		all := true
		for _, se := range s.Extra {
			found := false
			for _, e := range extra {
				if se.Equal(e) {
					found = true
					break
				}
			}
			if !found {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// requiredRules determines the convergence rules a repair depends on: an
// extra effect whose value must prevail over an opposing write by the
// counterpart operation needs add-wins (for true) or rem-wins (for false)
// on its predicate. Returns ok=false when the programmer pinned the
// opposite rule, or when rule suggestion is disabled and no rule exists.
func requiredRules(s *spec.Spec, target, counterpart *spec.Operation, extra []spec.Effect, opts Options) (map[string]spec.Policy, bool) {
	rules := map[string]spec.Policy{}
	for _, e := range extra {
		opposes := false
		for _, ce := range counterpart.Effects {
			if ce.Kind == spec.BoolAssign && ce.Pred == e.Pred && ce.Val != e.Val {
				opposes = true
				break
			}
		}
		// The new effect may also oppose the target's own original
		// effects when applied with a different binding; require the rule
		// whenever any opposing writer exists in the pair.
		if !opposes {
			for _, te := range target.Effects {
				if te.Kind == spec.BoolAssign && te.Pred == e.Pred && te.Val != e.Val {
					opposes = true
					break
				}
			}
		}
		if !opposes {
			continue
		}
		need := spec.RemWins
		if e.Val {
			need = spec.AddWins
		}
		if have, ok := s.Rules[e.Pred]; ok && have != spec.NoPolicy {
			if have != need {
				return nil, false
			}
			continue // programmer rule already matches
		}
		if opts.DisableRuleSuggestion {
			return nil, false
		}
		rules[e.Pred] = need
	}
	return rules, true
}

// solves applies the repair on a scratch copy of the spec and asks the
// check, on worker w, whether the repaired pair is solved.
func solves(w *worker, s *spec.Spec, c *Conflict, rep Repair, check repairCheck) (bool, error) {
	scratch := s.Clone()
	applyRepair(scratch, rep)
	op1, _ := scratch.Operation(c.Op1.Name)
	op2, _ := scratch.Operation(c.Op2.Name)
	return check(w, scratch, op1, op2)
}

// repairSolves decides a repaired pair on its session. A repair is only
// accepted if it preserves executability: for every parameter binding
// under which the original pair could execute concurrently (origExec, from
// executableBindings), the repaired pair must still be able to (otherwise
// a repair could "solve" the conflict by making an operation's
// precondition unsatisfiable, which changes the application semantics —
// the paper requires the original semantics to be preserved when no
// conflict occurs). It must also leave no conflict on the boolean
// clauses. The verdict is the conjunction of the two checks, so their
// order cannot change it. Executability goes first because more than half
// the candidates fail it, and a candidate that fails it usually has no
// conflict left, which the conflict enumeration can only establish by
// asking every binding; an executability check stops at the first binding
// that fails.
func (ss *session) repairSolves(op1, op2 *spec.Operation, origExec []bindingPair) (bool, error) {
	for _, b := range origExec {
		if ok, err := ss.executable(op1, op2, b.b1, b.b2); err != nil || !ok {
			return false, err
		}
	}
	_, _, found, err := ss.firstConflict(op1, op2, boolClausesOnly)
	return err == nil && !found, err
}

// bindingPair is one parameter instantiation of an operation pair.
type bindingPair struct{ b1, b2 map[string]string }

// executableBindings lists the bindings under which the pair, unrepaired,
// can execute concurrently from some I-valid state. Every candidate
// repair of a conflict on the pair must keep them executable.
func (ss *session) executableBindings(op1, op2 *spec.Operation) ([]bindingPair, error) {
	var out []bindingPair
	b2s := enumBindings(op2.Params, ss.enc.Dom, false)
	for _, b1 := range enumBindings(op1.Params, ss.enc.Dom, true) {
		for _, b2 := range b2s {
			ok, err := ss.executable(op1, op2, b1, b2)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, bindingPair{b1, b2})
			}
		}
	}
	return out, nil
}

// applyRepair mutates the spec: appends the extra effects the target
// operation lacks, marked injected, and installs the repair's
// convergence rules.
func applyRepair(s *spec.Spec, rep Repair) {
	op, ok := s.Operation(rep.Target)
	if !ok {
		return
	}
	newOp := op.Clone()
	for _, e := range rep.Extra {
		if !newOp.HasEffect(e) {
			e.Injected = true
			newOp.Effects = append(newOp.Effects, e)
		}
	}
	s.Replace(newOp)
	for pred, pol := range rep.Rules {
		s.Rules[pred] = pol
	}
}

// sortRepairs orders proposals: fewest wildcards first (a wildcard effect
// touches every matching element, a much bigger semantic change than an
// extra exact effect), then fewest added effects, then lexicographically.
func sortRepairs(rs []Repair) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].wildcards() != rs[j].wildcards() {
			return rs[i].wildcards() < rs[j].wildcards()
		}
		if len(rs[i].Extra) != len(rs[j].Extra) {
			return len(rs[i].Extra) < len(rs[j].Extra)
		}
		return rs[i].String() < rs[j].String()
	})
}
