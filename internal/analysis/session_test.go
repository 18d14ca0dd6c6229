package analysis_test

import (
	"fmt"
	"runtime"
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

// TestRunWorkCount pins, as counts, the work Run does on each golden spec,
// with one worker and with four. Every spec a Run visits has the same
// invariant, domain and signature, so I(pre) is grounded once and every
// other session starts from the frozen prefix; each invariant clause's AST
// is walked exactly once per prefix, to compile its circuit, and every
// post- and merged-state literal is an instantiation of that circuit. The
// counts are exact: every session starts from the prefix, so what it
// counts does not depend on which worker ran it or after what. Checking
// executability first is what keeps the repair search's conflict queries
// low: enumerating conflicts first asked 7,216 on tournament.
func TestRunWorkCount(t *testing.T) {
	want := map[string]analysis.WorkCount{
		"quickstart": {Groundings: 1, Prefixes: 1, Clauses: 1, RepairConflictQueries: 23, ClauseWalks: 1, Instantiations: 403},
		"ticket":     {Groundings: 1, Prefixes: 1, Clauses: 2, RepairConflictQueries: 0, ClauseWalks: 2, Instantiations: 227},
		"tournament": {Groundings: 1, Prefixes: 1, Clauses: 7, RepairConflictQueries: 1402, ClauseWalks: 7, Instantiations: 43984},
		"tpcw":       {Groundings: 1, Prefixes: 1, Clauses: 2, RepairConflictQueries: 16, ClauseWalks: 2, Instantiations: 351},
		"twitter":    {Groundings: 1, Prefixes: 1, Clauses: 3, RepairConflictQueries: 438, ClauseWalks: 3, Instantiations: 7891},
	}
	for _, procs := range []int{1, 4} {
		withProcs(t, procs, func() {
			for name, s := range goldenSpecs(t) {
				_, w, err := analysis.RunCounted(s, analysis.Options{})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("GOMAXPROCS %d, %s: %+v", procs, name, w)
				if w != want[name] {
					t.Errorf("GOMAXPROCS %d, %s: counted %+v, want %+v", procs, name, w, want[name])
				}
			}
		})
	}
}

// withProcs runs f with GOMAXPROCS set to procs, restoring it after.
func withProcs(t *testing.T, procs int, f func()) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}
