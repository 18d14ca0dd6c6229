package spec

import "testing"

// FuzzParse checks the spec parser never panics and accepted inputs
// round-trip through String.
func FuzzParse(f *testing.F) {
	f.Add(tournamentSrc)
	f.Add("spec s\noperation f(Player: p) {\n player(p) := true\n}")
	f.Add("spec s\nconst K = 3\ninvariant forall (A: x) :- p(x)\nrule p add-wins\noperation f(A: x) {\n p(x) := true\n}")
	f.Add("spec s\noperation f(A: x) {\n c(x) += 2\n}")
	f.Add("spec s\noperation f(A: x, B: y) {\n p(x) := false\n injected q(x) := true\n injected r(x, *, y) := false\n}")
	f.Add("spec \x00")
	f.Add("operation } {")
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		printed := s.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("accepted input but rejected its own printout:\n%s\nerr: %v", printed, err)
		}
		if back.String() != printed {
			t.Fatalf("printout not a fixed point:\n%s\n---\n%s", printed, back.String())
		}
	})
}
