package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/tpcw"
	"ipa/internal/apps/twitter"
	"ipa/internal/spec"
)

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
