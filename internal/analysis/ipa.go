package analysis

import (
	"fmt"
	"strings"

	"ipa/internal/logic"
	"ipa/internal/spec"
)

// AppliedRepair records one step of the repair loop.
type AppliedRepair struct {
	Conflict *Conflict
	Repair   Repair
	// Alternatives is how many candidate repairs the analysis proposed for
	// this conflict (the chooser picked one).
	Alternatives int
}

// Result is the outcome of the IPA main loop.
type Result struct {
	// Spec is the patched, invariant-preserving specification.
	Spec *spec.Spec
	// Applied lists the repairs in application order.
	Applied []AppliedRepair
	// Compensations are the synthesised lazy repairs for numeric clauses.
	Compensations []Compensation
	// Unsolved are the conflicts flagged as unsolvable with the given
	// convergence rules; the programmer must fall back to coordination.
	Unsolved []*Conflict
	// Iterations is the number of repair-loop iterations executed.
	Iterations int
}

// Summary renders a human-readable report of the analysis.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "IPA analysis of %q: %d repairs, %d compensations, %d unsolved (%d iterations)\n",
		r.Spec.Name, len(r.Applied), len(r.Compensations), len(r.Unsolved), r.Iterations)
	for _, a := range r.Applied {
		fmt.Fprintf(&b, "  repair %s ∥ %s -> %s (of %d alternatives)\n",
			a.Conflict.Op1.Name, a.Conflict.Op2.Name, a.Repair, a.Alternatives)
	}
	for _, c := range r.Compensations {
		fmt.Fprintf(&b, "  %s\n", c)
	}
	for _, u := range r.Unsolved {
		fmt.Fprintf(&b, "  UNSOLVED %s ∥ %s (coordination required)\n", u.Op1.Name, u.Op2.Name)
	}
	return b.String()
}

// Run executes the IPA main loop (paper Alg. 1): repeatedly find a
// conflicting pair, propose repairs, apply the chosen one, and re-check,
// until all operations are I-confluent or every remaining conflict is
// flagged.
//
// Boolean (relational) clauses are handled by effect repairs; numeric
// clauses (counts, numeric fields) are handled afterwards by compensation
// synthesis, the paper's §3.4 extension. The input spec is not modified;
// the patched spec is in Result.Spec.
func Run(s *spec.Spec, opts Options) (*Result, error) {
	return run(s, opts.withDefaults(), &groundings{})
}

// RunForMount is the analysis every mount path runs on the spec it is
// handed: Run with default options. The analysis's output is a fixed
// point (a run from it applies no repair), so a spec that is that output
// and still gets repaired is refused, naming the first pair. A spec is
// held to this when the caller knows it to be the output (output: a
// bundled application's checked-in patched spec, whatever its marks say)
// or when it carries an injected mark, which claims as much. Any other
// spec is analysed in full.
func RunForMount(s *spec.Spec, output bool) (*Result, error) {
	res, err := Run(s, Options{})
	if err != nil || len(res.Applied) == 0 || !output && !hasInjected(s) {
		return res, err
	}
	a := res.Applied[0]
	return nil, fmt.Errorf("analysis: spec %s is the analysis's output but not a fixed point of it (a run from it applied %d repair(s), the first for %s ∥ %s)",
		s.Name, len(res.Applied), a.Conflict.Op1.Name, a.Conflict.Op2.Name)
}

func hasInjected(s *spec.Spec) bool {
	for _, op := range s.Operations {
		for _, e := range op.Effects {
			if e.Injected {
				return true
			}
		}
	}
	return false
}

// run is Run on the given groundings, which every query of the run shares.
func run(s *spec.Spec, opts Options, g *groundings) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	work := s.Clone()
	res := &Result{Spec: work}
	skip := map[string]bool{} // flagged pairs, by Key

	// Phase 1: repair conflicts on boolean clauses.
	for res.Iterations = 0; res.Iterations < opts.MaxIters; res.Iterations++ {
		c, err := findFirstConflict(work, opts, skip, boolClausesOnly, g)
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		repairs, err := repairConflict(work, c, opts, g)
		if err != nil {
			return nil, err
		}
		if len(repairs) == 0 {
			res.Unsolved = append(res.Unsolved, c)
			skip[c.Key()] = true
			continue
		}
		pick := 0
		if opts.Chooser != nil {
			pick = opts.Chooser(c, repairs)
			if pick < 0 || pick >= len(repairs) {
				pick = 0
			}
		}
		chosen := repairs[pick]
		applyRepair(work, chosen)
		res.Applied = append(res.Applied, AppliedRepair{Conflict: c, Repair: chosen, Alternatives: len(repairs)})
	}
	// Iteration budget exhausted: flag whatever still conflicts.
	for {
		c, err := findFirstConflict(work, opts, skip, boolClausesOnly, g)
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		res.Unsolved = append(res.Unsolved, c)
		skip[c.Key()] = true
	}

	// Phase 2: numeric clauses — synthesise compensations per pair.
	numericOnly := func(f logic.Formula) bool { return logic.HasCount(f) }
	compSeen := map[string]int{} // clause+pred -> index in res.Compensations
	numSkip := map[string]bool{}
	for {
		c, err := findFirstConflict(work, opts, numSkip, numericOnly, g)
		if err != nil {
			return nil, err
		}
		if c == nil {
			break
		}
		numSkip[c.Key()] = true
		comp, ok := SynthesizeCompensation(c)
		if !ok {
			res.Unsolved = append(res.Unsolved, c)
			continue
		}
		key := comp.Clause.String() + "/" + comp.Pred
		if i, dup := compSeen[key]; dup {
			res.Compensations[i].Triggers = mergeTriggers(res.Compensations[i].Triggers, comp.Triggers)
			continue
		}
		compSeen[key] = len(res.Compensations)
		res.Compensations = append(res.Compensations, comp)
	}
	return res, nil
}

func mergeTriggers(a, b []string) []string {
	seen := map[string]bool{}
	for _, x := range a {
		seen[x] = true
	}
	for _, x := range b {
		if !seen[x] {
			seen[x] = true
			a = append(a, x)
		}
	}
	return a
}
