package smt_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/tpcw"
	"ipa/internal/apps/twitter"
	"ipa/internal/logic"
	"ipa/internal/sat"
	"ipa/internal/smt"
	"ipa/internal/spec"
)

// templateCase is one golden spec's invariant compiled into a circuit,
// with what random effects may write.
type templateCase struct {
	name    string
	dom     smt.Domain
	sig     smt.Signature
	clauses []logic.Formula
	circuit *smt.Circuit
	preds   []string // boolean predicates, sorted
	fields  []string // numeric fields, sorted
}

// templateCases compiles the clauses of the five golden specs (the four
// bundled applications and the quickstart example) at scope 2.
func templateCases(t testing.TB) []*templateCase {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "quickstart.spec"))
	if err != nil {
		t.Fatal(err)
	}
	specs := []*spec.Spec{spec.MustParse(string(src)), ticket.Spec(), tournament.Spec(), tpcw.Spec(), twitter.Spec()}
	var out []*templateCase
	for _, s := range specs {
		sig, err := s.Signature()
		if err != nil {
			t.Fatal(err)
		}
		tc := &templateCase{name: s.Name, dom: smt.UniformScope(s.Sorts(), 2), sig: sig, clauses: logic.Clauses(s.Invariant())}
		if tc.circuit, err = smt.Compile(tc.clauses, tc.dom, sig, nil); err != nil {
			t.Fatal(err)
		}
		for _, ref := range logic.Predicates(s.Invariant()) {
			if ref.Numeric {
				tc.fields = append(tc.fields, ref.Name)
			} else {
				tc.preds = append(tc.preds, ref.Name)
			}
		}
		out = append(out, tc)
	}
	return out
}

// chooser is the randomness one trial draws from: math/rand for the
// property test, the fuzzer's bytes for the fuzz target.
type chooser interface{ Intn(n int) int }

// byteChooser reads choices from fuzz input; it reads zeros once spent.
type byteChooser []byte

func (b *byteChooser) Intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// randEffects draws a footprint over tc's predicates and fields: exact
// and wildcard assignments, and numeric deltas from ±1 to ±100,000.
func randEffects(r chooser, tc *templateCase) smt.GroundEffects {
	var ge smt.GroundEffects
	args := func(name string) []string {
		out := make([]string, len(tc.sig[name]))
		for i, srt := range tc.sig[name] {
			if r.Intn(3) > 0 {
				elems := tc.dom[srt]
				out[i] = elems[r.Intn(len(elems))]
			}
		}
		return out
	}
	for n := 1 + r.Intn(3); n > 0; n-- {
		if len(tc.fields) > 0 && r.Intn(3) == 0 {
			deltas := []int{1, -1, 2, -3, 50, -50, 63, -64, 100, 100000, -100000}
			f := tc.fields[r.Intn(len(tc.fields))]
			ge.Nums = append(ge.Nums, smt.NumEffect{Fn: f, Args: args(f), Delta: deltas[r.Intn(len(deltas))]})
			continue
		}
		p := tc.preds[r.Intn(len(tc.preds))]
		ge.Bools = append(ge.Bools, smt.BoolEffect{Pred: p, Args: args(p), Val: r.Intn(2) == 0})
	}
	return ge
}

// opposing returns a footprint that assigns the opposite value to one of
// ge's boolean effects, so that a merge must resolve them.
func opposing(r chooser, ge smt.GroundEffects) smt.GroundEffects {
	if len(ge.Bools) == 0 {
		return ge
	}
	be := ge.Bools[r.Intn(len(ge.Bools))]
	be.Val = !be.Val
	return smt.GroundEffects{Bools: []smt.BoolEffect{be}}
}

// randResolve assigns each predicate add-wins, rem-wins or no rule; nil
// (no rules at all) one time in four.
func randResolve(r chooser, tc *templateCase) smt.ResolveFunc {
	if r.Intn(4) == 0 {
		return nil
	}
	rules := map[string]int{}
	for _, p := range tc.preds {
		rules[p] = r.Intn(3)
	}
	return func(pred string) (bool, bool) {
		switch rules[pred] {
		case 1:
			return true, true
		case 2:
			return false, true
		}
		return false, false
	}
}

// checkTemplate runs one trial: a random derived state — Apply of one
// footprint, or Merge of two, one of them often opposing the other —
// over the pre-state of a fresh or a prefix-started encoder, and for
// every clause one SAT query of the instantiated literal XOR the literal
// Encoder.Formula grounds. Any model is a state where the two disagree.
func checkTemplate(t *testing.T, cases []*templateCase, r chooser) {
	tc := cases[r.Intn(len(cases))]
	enc := smt.NewEncoder(tc.dom, tc.sig)
	pre := enc.NewState("pre")
	g := enc.Ground(tc.circuit, pre)
	if r.Intn(2) == 0 {
		enc, pre = enc.Freeze(pre).Start()
	}
	e1 := randEffects(r, tc)
	var st *smt.State
	desc := ""
	switch r.Intn(3) {
	case 0:
		st = enc.Apply(pre, e1, "post")
		desc = fmt.Sprintf("Apply %v", e1)
	default:
		e2 := randEffects(r, tc)
		if r.Intn(2) == 0 {
			e2 = opposing(r, e1)
		}
		st = enc.Merge(pre, e1, e2, randResolve(r, tc), "merged")
		desc = fmt.Sprintf("Merge %v with %v", e1, e2)
	}
	refFirst := r.Intn(2) == 0
	for i, cl := range tc.clauses {
		for _, s := range []*smt.State{pre, st} {
			var got int
			var err error
			if !refFirst {
				if got, err = g.Clause(enc, s, i); err != nil {
					t.Fatal(err)
				}
			}
			f, err := enc.Formula(cl, s, smt.Binding{})
			if err != nil {
				t.Fatal(err)
			}
			ref := enc.S.Lit(f)
			if refFirst {
				if got, err = g.Clause(enc, s, i); err != nil {
					t.Fatal(err)
				}
			}
			a, b := sat.Literal(got), sat.Literal(ref)
			if enc.S.Solve(enc.S.Lit(sat.Or(sat.And(a, sat.Not(b)), sat.And(sat.Not(a), b)))) {
				t.Fatalf("%s, clause %s, %s state of %s: the instantiated literal differs from Encoder.Formula's", tc.name, cl, s.Name(), desc)
			}
		}
	}
}

// TestTemplateMatchesGrounding holds circuit instantiation to the AST
// grounder: for every clause of the five golden specs, in random derived
// states, the literal Grounding.Clause returns is equivalent to the one
// Encoder.Formula grounds.
func TestTemplateMatchesGrounding(t *testing.T) {
	cases := templateCases(t)
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1500; trial++ {
		checkTemplate(t, cases, r)
	}
}

// FuzzTemplateMatchesGrounding is TestTemplateMatchesGrounding's check
// driven by the fuzzer's bytes:
//
//	go test ./internal/smt -run '^$' -fuzz=FuzzTemplateMatchesGrounding -fuzztime=30s
func FuzzTemplateMatchesGrounding(f *testing.F) {
	cases := templateCases(f)
	for k := range cases {
		f.Add([]byte{byte(k), 1, 0, 1, 2, 0, 0, 1, 1, 0, 2})
		f.Add([]byte{byte(k), 0, 2, 2, 0, 1, 2, 1, 0, 1, 1, 0, 1, 0, 5, 1})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteChooser(data)
		checkTemplate(t, cases, &r)
	})
}
