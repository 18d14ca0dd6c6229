package analysis_test

import (
	"fmt"
	"sort"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/smt"
	"ipa/internal/spec"
)

// freshExecutable is the executability oracle: one fresh encoder per
// binding, SAT(I(S) ∧ I(o1(S)) ∧ I(o2(S))).
func freshExecutable(s *spec.Spec, op1, op2 *spec.Operation, b1, b2 map[string]string) (bool, error) {
	sig, err := s.Signature()
	if err != nil {
		return false, err
	}
	ge1, err := op1.Ground(b1)
	if err != nil {
		return false, err
	}
	ge2, err := op2.Ground(b2)
	if err != nil {
		return false, err
	}
	enc := smt.NewEncoder(smt.UniformScope(s.Sorts(), analysis.DefaultOptions().Scope), sig)
	pre := enc.NewState("pre")
	for _, st := range []*smt.State{pre, enc.Apply(pre, ge1, "post1"), enc.Apply(pre, ge2, "post2")} {
		if err := enc.Assert(s.Invariant(), st); err != nil {
			return false, err
		}
	}
	return enc.Solve(), nil
}

// repairLoop runs s and returns the result with each spec its repair loop
// passed through: the input, then the spec after each applied repair.
func repairLoop(t *testing.T, s *spec.Spec) (*analysis.Result, []*spec.Spec) {
	res, err := analysis.Run(s, analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	work := s.Clone()
	out := []*spec.Spec{work.Clone()}
	for _, a := range res.Applied {
		analysis.ApplyRepair(work, a.Repair)
		out = append(out, work.Clone())
	}
	return res, out
}

// TestSessionMatchesFreshSolves is the differential test of the session:
// for every operation pair and binding of the golden specs, and of every
// intermediate spec of their repair loops, the session's verdicts (all
// clauses, boolean clauses only, executability), asked interleaved on one
// solver per pair, equal those of a fresh solver per query. Every session
// of one golden spec starts from the same groundings, as the sessions of a
// Run do, so the repair-loop steps start from the prefix their input
// grounded.
func TestSessionMatchesFreshSolves(t *testing.T) {
	specs := goldenSpecs(t)
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			queries, sat := 0, 0
			g := analysis.NewGroundings()
			_, steps := repairLoop(t, specs[name])
			for step, s := range steps {
				for i, op1 := range s.Operations {
					for _, op2 := range s.Operations[i:] {
						ss, err := g.Session(s, analysis.Options{})
						if err != nil {
							t.Fatal(err)
						}
						for _, b := range analysis.PairBindings(s, op1, op2, analysis.Options{}) {
							at := fmt.Sprintf("step %d, %s %v ∥ %s %v", step, op1.Name, b[0], op2.Name, b[1])
							for _, boolOnly := range []bool{false, true} {
								got, err := ss.Conflicting(op1, op2, b[0], b[1], boolOnly)
								if err != nil {
									t.Fatal(err)
								}
								c, err := analysis.FreshConflict(s, op1, op2, b[0], b[1], analysis.Options{}, boolOnly)
								if err != nil {
									t.Fatal(err)
								}
								if got != (c != nil) {
									t.Fatalf("%s (boolean clauses only: %v): session says conflicting=%v, a fresh solve %v", at, boolOnly, got, c != nil)
								}
								queries++
								if got {
									sat++
								}
							}
							got, err := ss.Executable(op1, op2, b[0], b[1])
							if err != nil {
								t.Fatal(err)
							}
							want, err := freshExecutable(s, op1, op2, b[0], b[1])
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("%s: session says executable=%v, a fresh solve %v", at, got, want)
							}
							queries++
							if got {
								sat++
							}
						}
					}
				}
			}
			t.Logf("%d queries, %d satisfiable", queries, sat)
			// Both verdicts must occur, or the comparison proves little.
			if sat == 0 || sat == queries {
				t.Fatalf("%d of %d queries satisfiable: the comparison is one-sided", sat, queries)
			}
		})
	}
}

// TestRepairConflictMatchesReference holds RepairConflict — sessions
// started from shared prefixes, executability checked first — to the
// reference that grounds every session itself and checks conflicts
// first: for every conflict a golden spec's repair loop repaired, on the
// spec of that step, both propose the same repairs in the same order.
func TestRepairConflictMatchesReference(t *testing.T) {
	specs := goldenSpecs(t)
	names := make([]string, 0, len(specs))
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	compared, most := 0, 0
	for _, name := range names {
		res, steps := repairLoop(t, specs[name])
		for k, a := range res.Applied {
			got, err := analysis.RepairConflict(steps[k], a.Conflict, analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := analysis.ReferenceRepairConflict(steps[k], a.Conflict, analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, %s ∥ %s:\n got  %v\n want %v", name, a.Conflict.Op1.Name, a.Conflict.Op2.Name, got, want)
			}
			compared++
			most = max(most, len(got))
		}
	}
	t.Logf("%d conflicts compared, at most %d repairs each", compared, most)
	// Orders are only compared where there is more than one repair.
	if most < 2 {
		t.Fatalf("no conflict had two repairs: the order went untested")
	}
}

// TestRunWorkCount pins, as counts, the work Run does on each golden spec.
// Every spec a Run visits has the same invariant, domain and signature, so
// I(pre) is grounded once and every other session starts from the frozen
// prefix; each invariant clause's AST is walked exactly once per prefix,
// to compile its circuit, and every post- and merged-state literal is an
// instantiation of that circuit, at most the stated number per Run; and
// the repair search asks at most the stated number of conflict queries.
// Checking executability first is what keeps the last low: enumerating
// conflicts first asked 7,216 on tournament.
func TestRunWorkCount(t *testing.T) {
	maxQueries := map[string]int{"quickstart": 23, "ticket": 0, "tournament": 1402, "tpcw": 16, "twitter": 438}
	maxInstantiations := map[string]int{"quickstart": 403, "ticket": 227, "tournament": 43984, "tpcw": 351, "twitter": 7891}
	for name, s := range goldenSpecs(t) {
		_, w, err := analysis.RunCounted(s, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %+v", name, w)
		if w.Groundings != 1 || w.Prefixes != 1 {
			t.Errorf("%s: I(pre) grounded %d times for %d distinct (invariant, domain, signature), want once for one", name, w.Groundings, w.Prefixes)
		}
		if w.ClauseWalks != w.Clauses {
			t.Errorf("%s: %d clause ASTs walked, want %d: once per clause of each prefix", name, w.ClauseWalks, w.Clauses)
		}
		if w.Instantiations > maxInstantiations[name] {
			t.Errorf("%s: %d clause instantiations, want at most %d", name, w.Instantiations, maxInstantiations[name])
		}
		if w.RepairConflictQueries > maxQueries[name] {
			t.Errorf("%s: the repair search asked %d conflict queries, want at most %d", name, w.RepairConflictQueries, maxQueries[name])
		}
	}
}
