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

// repairLoopSpecs returns each spec Run's repair loop passes through: the
// input, then the spec after each applied repair.
func repairLoopSpecs(t *testing.T, s *spec.Spec) []*spec.Spec {
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
	return out
}

// TestSessionMatchesFreshSolves is the differential test of the session:
// for every operation pair and binding of the golden specs, and of every
// intermediate spec of their repair loops, the session's verdicts (all
// clauses, boolean clauses only, executability), asked interleaved on one
// solver per pair, equal those of a fresh solver per query.
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
			for step, s := range repairLoopSpecs(t, specs[name]) {
				for i, op1 := range s.Operations {
					for _, op2 := range s.Operations[i:] {
						ss, err := analysis.NewSession(s, analysis.Options{})
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
