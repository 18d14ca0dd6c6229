package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/tpcw"
	"ipa/internal/apps/twitter"
	"ipa/internal/spec"
)

// raceEnabled is set by race_test.go.
var raceEnabled bool

// goldenSpecs are the specifications whose analysis output is pinned
// under testdata/golden: the four bundled applications and the
// quickstart example.
func goldenSpecs(t testing.TB) map[string]*spec.Spec {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "quickstart.spec"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*spec.Spec{
		"ticket":     ticket.Spec(),
		"tournament": tournament.Spec(),
		"tpcw":       tpcw.Spec(),
		"twitter":    twitter.Spec(),
		"quickstart": spec.MustParse(string(src)),
	}
}

// renderAnalysis renders a Run result exactly as `ipa -app X` prints it.
func renderAnalysis(s *spec.Spec) (string, error) {
	res, err := analysis.Run(s, analysis.Options{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(res.Summary())
	b.WriteString("\n---- patch recipe ----\n")
	b.WriteString(res.Diff(s))
	b.WriteString("\n---- patched specification ----\n")
	b.WriteString(res.Spec.String())
	return b.String(), nil
}

// renderConflicts renders FindConflicts exactly as `ipa -app X
// -conflicts` prints it: each conflict, then its counterexample.
func renderConflicts(s *spec.Spec) (string, error) {
	cs, err := analysis.FindConflicts(s, analysis.Options{})
	if err != nil {
		return "", err
	}
	if len(cs) == 0 {
		return "no conflicting operation pairs: the specification is I-confluent\n", nil
	}
	var b strings.Builder
	for _, c := range cs {
		fmt.Fprintln(&b, c)
		fmt.Fprint(&b, c.Example)
		fmt.Fprintln(&b)
	}
	return b.String(), nil
}

// TestGoldenOutputs pins the analysis byte for byte: the repairs chosen,
// the patched specifications, and the counterexamples (whose violated
// clauses feed the engine's clause classification and compensation
// synthesis). Regenerate a file with
//
//	go run ./cmd/ipa -app <app> [-conflicts] > internal/analysis/testdata/golden/<app>.<analyze|conflicts>.txt
//
// (quickstart: -spec examples/quickstart/quickstart.spec) and review the
// diff.
func TestGoldenOutputs(t *testing.T) {
	for name, s := range goldenSpecs(t) {
		for _, kind := range []string{"analyze", "conflicts"} {
			t.Run(name+"."+kind, func(t *testing.T) {
				render := renderAnalysis
				if kind == "conflicts" {
					render = renderConflicts
				}
				got, err := render(s)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "golden", name+"."+kind+".txt")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s differs from the analysis output:\n--- want\n%s\n--- got\n%s", path, want, got)
				}
			})
		}
	}
}

// TestTicketExampleNamesEventCapacity pins that a counterexample reports
// every constant of the spec, not a fixed list of names: ticket's
// oversell hinges on EventCapacity, and the reported value must make
// #sold(*, e) <= EventCapacity false in the merged state.
func TestTicketExampleNamesEventCapacity(t *testing.T) {
	cs, err := analysis.FindConflicts(ticket.Spec(), analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		if c.Op1.Name != "buy" || c.Op2.Name != "buy" {
			continue
		}
		capacity, ok := c.Example.Consts["EventCapacity"]
		if !ok {
			t.Fatalf("the buy ∥ buy example names no EventCapacity:\n%s", c.Example)
		}
		event := c.Binding1["e"]
		sold := 0
		for atom, v := range c.Example.Merged {
			if v && strings.HasPrefix(atom, "sold(") && strings.HasSuffix(atom, ","+event+")") {
				sold++
			}
		}
		if sold <= capacity {
			t.Fatalf("merged #sold(*, %s) = %d <= EventCapacity = %d: the example does not violate the clause:\n%s",
				event, sold, capacity, c.Example)
		}
		return
	}
	t.Fatal("ticket has no buy ∥ buy conflict")
}

// TestRunSameOnAnyWorkerCount runs each golden spec with one worker and
// with four: the repair search checks a level's candidates on as many
// workers as GOMAXPROCS allows, and the whole Result — the repairs
// applied with their alternatives, the unsolved conflicts, the
// compensations and the patched spec — must not depend on how many.
func TestRunSameOnAnyWorkerCount(t *testing.T) {
	for name, s := range goldenSpecs(t) {
		var res [2]*analysis.Result
		for k, procs := range []int{1, 4} {
			withProcs(t, procs, func() {
				var err error
				if res[k], err = analysis.Run(s, analysis.Options{}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s: Run differs between GOMAXPROCS 1 and 4:\n--- 1\n%s\n--- 4\n%s", name, res[0].Summary(), res[1].Summary())
		}
	}
}

// TestRunFixedPointOnItsOutput runs Alg. 1 on the text of its own output
// for each golden spec at the default options, and for tournament and
// twitter with their recorded choosers: the run applies no repair, and its
// patched spec, compensations and unsolved conflicts equal the first
// run's. This is what lets a checked-in patched spec stand for the search
// that derived it, re-checked at serve time by one cheap run.
func TestRunFixedPointOnItsOutput(t *testing.T) {
	results := map[string]*analysis.Result{
		"tournament/recorded": tournament.Analysis(),
		"twitter/recorded":    twitter.Analysis(),
	}
	for name, s := range goldenSpecs(t) {
		res, err := analysis.Run(s, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		results[name] = res
	}
	for name, res := range results {
		t.Run(name, func(t *testing.T) {
			again, err := analysis.Run(spec.MustParse(res.Spec.String()), analysis.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(again.Applied) > 0 {
				t.Fatalf("the run on the patched spec applied repairs:\n%s", again.Summary())
			}
			if got, want := again.Spec.String(), res.Spec.String(); got != want {
				t.Fatalf("patched spec changed:\n--- first run\n%s\n--- on its output\n%s", want, got)
			}
			if got, want := compensations(again), compensations(res); !slices.Equal(got, want) {
				t.Fatalf("compensations:\nfirst run    %q\non its output %q", want, got)
			}
			if got, want := unsolved(again), unsolved(res); !slices.Equal(got, want) {
				t.Fatalf("unsolved conflicts:\nfirst run    %q\non its output %q", want, got)
			}
		})
	}
}

func compensations(res *analysis.Result) []string {
	var out []string
	for _, c := range res.Compensations {
		out = append(out, c.String())
	}
	return out
}

// unsolved renders each unsolved conflict as its operation pair and the
// clauses it violates.
func unsolved(res *analysis.Result) []string {
	var out []string
	for _, c := range res.Unsolved {
		u := c.Op1.Name + " ∥ " + c.Op2.Name
		for _, cl := range c.ViolatedClauses {
			u += "; " + cl.String()
		}
		out = append(out, u)
	}
	return out
}

// TestCandidatesDistinct pins what lets the repair search check a level's
// candidates together: a solution covers a later candidate of its own
// level only if their effect sets are equal, and candidatesFor emits
// pairwise distinct effects, so no two subsets of one level are equal.
// Checked for both targets of every conflict the golden specs' repair
// loops met.
func TestCandidatesDistinct(t *testing.T) {
	checked := 0
	for name, s := range goldenSpecs(t) {
		res, steps := repairLoop(t, s)
		for k, a := range res.Applied {
			for _, target := range []*spec.Operation{a.Conflict.Op1, a.Conflict.Op2} {
				effs, err := analysis.CandidateEffects(steps[k], a.Conflict, target)
				if err != nil {
					t.Fatal(err)
				}
				for i := range effs {
					for j := range i {
						if effs[i].Equal(effs[j]) {
							t.Fatalf("%s, %s: candidate effects %d and %d are both %s", name, target.Name, j, i, effs[i])
						}
					}
				}
				checked += len(effs)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no candidate effects were generated")
	}
}

// TestRunAllocs caps what one tournament Run allocates: the repair search
// starts its 2,000-odd sessions on recycled solvers, whose clauses,
// literals and watch lists are carved from blocks a reset reuses, and
// each session finds the run's prefix by its invariant and scope alone.
// The ceiling is 5 % above the 597,870 measured so, at GOMAXPROCS 1 to 8
// (722,900 while every lookup derived the spec's signature and sorts,
// 3.75 M before the blocks). It is skipped under -race, which allocates
// on its own.
func TestRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ceiling = 628_000
	s := goldenSpecs(t)["tournament"]
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := analysis.Run(s, analysis.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("tournament Run: %.0f allocations", allocs)
	if allocs > ceiling {
		t.Errorf("tournament Run made %.0f allocations, want at most %d", allocs, ceiling)
	}
}
