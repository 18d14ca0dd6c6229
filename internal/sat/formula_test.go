package sat

import (
	"math/rand"
	"testing"
)

func TestFormulaConstantFolding(t *testing.T) {
	if And().kind != fTrue {
		t.Fatal("empty And must be true")
	}
	if Or().kind != fFalse {
		t.Fatal("empty Or must be false")
	}
	if Not(TrueF()).kind != fFalse || Not(FalseF()).kind != fTrue {
		t.Fatal("Not of constants must fold")
	}
	if And(TrueF(), FalseF()).kind != fFalse {
		t.Fatal("And with false must fold to false")
	}
	if Or(FalseF(), TrueF()).kind != fTrue {
		t.Fatal("Or with true must fold to true")
	}
	v := Var(1)
	if Not(Not(v)) != v {
		t.Fatal("double negation must fold")
	}
	if And(v).String() != v.String() {
		t.Fatal("unary And folds to its argument")
	}
}

func TestAssertSimple(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	// (a -> b) & a  ==> b
	s.Assert(And(Implies(Var(a), Var(b)), Var(a)))
	if !s.Solve() {
		t.Fatal("SAT expected")
	}
	if !s.Value(a) || !s.Value(b) {
		t.Fatal("both a and b must hold")
	}
}

func TestAssertIffUnsat(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.Assert(Iff(Var(a), Not(Var(a))))
	if s.Solve() {
		t.Fatal("a <-> !a must be UNSAT")
	}
}

func TestAssertConstants(t *testing.T) {
	s := New()
	if !s.Assert(TrueF()) || !s.Solve() {
		t.Fatal("asserting true keeps SAT")
	}
	s2 := New()
	if s2.Assert(FalseF()) {
		t.Fatal("asserting false must report failure")
	}
	if s2.Solve() {
		t.Fatal("UNSAT expected")
	}
}

// randomFormula builds a random formula over vars 1..nVars.
func randomFormula(rng *rand.Rand, nVars, depth int) *Formula {
	if depth == 0 || rng.Intn(4) == 0 {
		v := Var(1 + rng.Intn(nVars))
		if rng.Intn(2) == 0 {
			return Not(v)
		}
		return v
	}
	n := 2 + rng.Intn(2)
	args := make([]*Formula, n)
	for i := range args {
		args[i] = randomFormula(rng, nVars, depth-1)
	}
	if rng.Intn(2) == 0 {
		return And(args...)
	}
	return Or(args...)
}

// Property: Tseitin encoding is equisatisfiable with the formula, and any
// model returned satisfies the original formula under Eval.
func TestTseitinAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nVars := 2 + rng.Intn(5)
		f := randomFormula(rng, nVars, 3)

		s := New()
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		encOK := s.Assert(f)
		got := encOK && s.Solve()

		// Brute force Eval over original vars only.
		want := false
		for m := 0; m < 1<<nVars; m++ {
			model := make([]bool, nVars+1)
			for v := 1; v <= nVars; v++ {
				model[v] = m&(1<<(v-1)) != 0
			}
			if f.Eval(model) {
				want = true
				break
			}
		}
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v formula=%s", trial, got, want, f)
		}
		if got {
			model := make([]bool, nVars+1)
			for v := 1; v <= nVars; v++ {
				model[v] = s.Value(v)
			}
			if !f.Eval(model) {
				t.Fatalf("trial %d: model does not satisfy formula %s", trial, f)
			}
		}
	}
}

func TestFormulaString(t *testing.T) {
	f := And(Var(1), Or(Not(Var(2)), Var(3)))
	if got := f.String(); got != "(x1 & (!x2 | x3))" {
		t.Fatalf("String() = %q", got)
	}
}

// Encoding a structure already defined on the solver — rebuilt from fresh
// Formula values — adds no variables and no clauses, and returns the same
// literal; every constant shares one variable.
func TestLitHashConsed(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	build := func() *Formula {
		x := Or(And(Var(a), Not(Var(b))), And(Not(Var(a)), Var(b)))
		return And(Or(x, Var(c)), Implies(Var(c), Not(x)), Or(Not(x), Var(a)))
	}
	l1 := s.Lit(build())
	vars, clauses, units := s.NumVars(), len(s.clauses), len(s.trail)
	l2 := s.Lit(build())
	if l1 != l2 || s.NumVars() != vars || len(s.clauses) != clauses || len(s.trail) != units {
		t.Fatalf("re-encoding: literal %d -> %d, vars %d -> %d, clauses %d -> %d, units %d -> %d",
			l1, l2, vars, s.NumVars(), clauses, len(s.clauses), units, len(s.trail))
	}
	if s.Lit(TrueF()) != -s.Lit(FalseF()) || s.NumVars() != vars+1 {
		t.Fatalf("constants must share one variable: %d vars after encoding both, had %d", s.NumVars(), vars)
	}
}
