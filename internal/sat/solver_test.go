package sat

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(a) {
		t.Fatal("unit clause rejected")
	}
	if !s.Solve() {
		t.Fatal("x should be SAT")
	}
	if !s.Value(a) {
		t.Fatal("x must be true")
	}
}

func TestEmptyFormulaIsSAT(t *testing.T) {
	s := New()
	if !s.Solve() {
		t.Fatal("empty formula must be SAT")
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(a)
	if s.AddClause(-a) {
		t.Fatal("adding -a after a should report conflict")
	}
	if s.Solve() {
		t.Fatal("a & -a must be UNSAT")
	}
}

func TestEmptyClauseIsUNSAT(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause must be rejected")
	}
	if s.Solve() {
		t.Fatal("must be UNSAT")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	a := s.NewVar()
	if !s.AddClause(a, -a) {
		t.Fatal("tautology should be accepted (and dropped)")
	}
	if !s.Solve() {
		t.Fatal("SAT expected")
	}
}

func TestChainImplication(t *testing.T) {
	// x1 & (x1->x2) & ... & (x_{n-1}->x_n): all true.
	s := New()
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(vars[0])
	for i := 0; i+1 < n; i++ {
		s.AddClause(-vars[i], vars[i+1])
	}
	if !s.Solve() {
		t.Fatal("chain must be SAT")
	}
	for i, v := range vars {
		if !s.Value(v) {
			t.Fatalf("x%d should be true", i)
		}
	}
}

func TestXorChainUNSAT(t *testing.T) {
	// (a xor b), (b xor c), (a xor c) is UNSAT.
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	xor := func(x, y int) {
		s.AddClause(x, y)
		s.AddClause(-x, -y)
	}
	xor(a, b)
	xor(b, c)
	xor(a, c)
	if s.Solve() {
		t.Fatal("odd xor cycle must be UNSAT")
	}
}

// pigeonhole: n+1 pigeons, n holes — classic UNSAT family.
func pigeonhole(s *Solver, n int) {
	p := make([][]int, n+1) // p[i][j]: pigeon i in hole j
	for i := 0; i <= n; i++ {
		p[i] = make([]int, n)
		for j := 0; j < n; j++ {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ { // every pigeon somewhere
		row := make([]int, n)
		copy(row, p[i])
		s.AddClause(row...)
	}
	for j := 0; j < n; j++ { // no two pigeons share a hole
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(-p[i][j], -p[k][j])
			}
		}
	}
}

func TestPigeonholeUNSAT(t *testing.T) {
	for n := 2; n <= 5; n++ {
		s := New()
		pigeonhole(s, n)
		if s.Solve() {
			t.Fatalf("PHP(%d) must be UNSAT", n)
		}
	}
}

func TestGraphColoringSAT(t *testing.T) {
	// 3-coloring of a 5-cycle is satisfiable.
	s := New()
	const n, k = 5, 3
	col := make([][]int, n)
	for i := range col {
		col[i] = make([]int, k)
		for c := range col[i] {
			col[i][c] = s.NewVar()
		}
		s.AddClause(col[i]...)
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		for c := 0; c < k; c++ {
			s.AddClause(-col[i][c], -col[j][c])
		}
	}
	if !s.Solve() {
		t.Fatal("3-coloring C5 must be SAT")
	}
	// Check model: adjacent vertices differ.
	color := make([]int, n)
	for i := 0; i < n; i++ {
		color[i] = -1
		for c := 0; c < k; c++ {
			if s.Value(col[i][c]) {
				color[i] = c
				break
			}
		}
		if color[i] == -1 {
			t.Fatalf("vertex %d uncolored", i)
		}
	}
	for i := 0; i < n; i++ {
		if color[i] == color[(i+1)%n] {
			t.Fatalf("adjacent vertices %d,%d share color", i, (i+1)%n)
		}
	}
}

// bruteForce decides satisfiability of CNF over nVars by enumeration.
func bruteForce(nVars int, cnf [][]int) bool {
	for m := 0; m < 1<<nVars; m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				val := m&(1<<(v-1)) != 0
				if (l > 0) == val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		nVars := 3 + rng.Intn(8) // 3..10
		nClauses := 1 + rng.Intn(4*nVars)
		cnf := make([][]int, nClauses)
		for i := range cnf {
			cl := make([]int, 3)
			for j := range cl {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				cl[j] = v
			}
			cnf[i] = cl
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		ok := true
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				ok = false
				break
			}
		}
		got := ok && s.Solve()
		want := bruteForce(nVars, cnf)
		if got != want {
			t.Fatalf("trial %d: solver=%v brute=%v cnf=%v", trial, got, want, cnf)
		}
		if got {
			// Verify the model satisfies every clause.
			for _, cl := range cnf {
				sat := false
				for _, l := range cl {
					v := l
					if v < 0 {
						v = -v
					}
					if (l > 0) == s.Value(v) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model violates clause %v", trial, cl)
				}
			}
		}
	}
}

func TestIncrementalSolving(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(a, b)
	if !s.Solve() {
		t.Fatal("SAT expected")
	}
	s.AddClause(-a)
	if !s.Solve() {
		t.Fatal("still SAT with b")
	}
	if !s.Value(b) {
		t.Fatal("b must be true")
	}
	s.AddClause(-b)
	if s.Solve() {
		t.Fatal("UNSAT expected after forcing both false")
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New()
	pigeonhole(s, 4)
	s.Solve()
	if s.Stats.Conflicts == 0 || s.Stats.Decisions == 0 {
		t.Fatalf("expected nontrivial search stats, got %+v", s.Stats)
	}
}

// checkAssumptions decides cnf over nVars under the assumptions and
// checks the solver against bruteForce with the assumptions as units:
// the verdict, that a model satisfies the clauses and the assumptions,
// and that a refuted assumption set leaves a plain Solve, and a repeat
// of the same query, deciding as before.
func checkAssumptions(t *testing.T, nVars int, cnf [][]int, assumptions []int) {
	t.Helper()
	s := New()
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	ok := true
	for _, cl := range cnf {
		if !s.AddClause(cl...) {
			ok = false
			break
		}
	}
	withUnits := append([][]int(nil), cnf...)
	for _, a := range assumptions {
		withUnits = append(withUnits, []int{a})
	}
	want := bruteForce(nVars, withUnits)
	got := ok && s.Solve(assumptions...)
	if got != want {
		t.Fatalf("Solve(%v) = %v, brute force %v; cnf=%v", assumptions, got, want, cnf)
	}
	if got {
		for _, cl := range withUnits {
			sat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				if (l > 0) == s.Value(v) {
					sat = true
					break
				}
			}
			if !sat {
				t.Fatalf("model violates %v (assumptions %v, cnf %v)", cl, assumptions, cnf)
			}
		}
	}
	if plain, want := ok && s.Solve(), bruteForce(nVars, cnf); plain != want {
		t.Fatalf("Solve() after Solve(%v) = %v, brute force %v; cnf=%v", assumptions, plain, want, cnf)
	}
	if again := ok && s.Solve(assumptions...); again != got {
		t.Fatalf("repeated Solve(%v) = %v, first %v; cnf=%v", assumptions, again, got, cnf)
	}
}

func TestSolveAssumptionsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		nVars := 2 + rng.Intn(7)
		cnf := make([][]int, 1+rng.Intn(4*nVars))
		for i := range cnf {
			cl := make([]int, 1+rng.Intn(3))
			for j := range cl {
				cl[j] = (1 + rng.Intn(nVars)) * (1 - 2*rng.Intn(2))
			}
			cnf[i] = cl
		}
		assumptions := make([]int, rng.Intn(4))
		for i := range assumptions {
			assumptions[i] = (1 + rng.Intn(nVars)) * (1 - 2*rng.Intn(2))
		}
		checkAssumptions(t, nVars, cnf, assumptions)
	}
}

// A refuted assumption is not a refuted formula: the solver stays usable.
func TestAssumptionConflictKeepsSolverSAT(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(-a, b)
	s.AddClause(-a, -b)
	if s.Solve(a) {
		t.Fatal("a forces b and -b: UNSAT under assumption a")
	}
	if !s.Solve() || s.Value(a) {
		t.Fatal("without the assumption the clauses are SAT with a false")
	}
	if !s.Solve(-a, b) || !s.Value(b) || s.Value(a) {
		t.Fatal("assumptions -a, b must hold in the model")
	}
}

// FuzzSolveAssumptions decodes a small CNF and an assumption set from the
// input and checks the solver against brute force (checkAssumptions).
// Byte 0 picks the variable count (1..8), byte 1 the assumption count
// (0..3); the next bytes are the assumptions, then clauses, each a length
// byte (1..3 literals) followed by its literals. A literal byte b names
// variable 1+(b>>1)%n, negated when b is odd.
func FuzzSolveAssumptions(f *testing.F) {
	f.Add([]byte{2, 1, 0, 1, 0, 1, 2})
	f.Add([]byte{3, 2, 0, 3, 2, 1, 2, 1, 3, 0, 2, 5})
	f.Add([]byte{7, 3, 1, 2, 5, 2, 0, 3, 2, 4, 7, 0, 9, 11, 1, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		nVars := 1 + int(data[0]%8)
		nAssume := int(data[1] % 4)
		data = data[2:]
		lit := func(b byte) int {
			v := 1 + int(b>>1)%nVars
			if b&1 == 1 {
				return -v
			}
			return v
		}
		var assumptions []int
		for ; nAssume > 0 && len(data) > 0; nAssume-- {
			assumptions = append(assumptions, lit(data[0]))
			data = data[1:]
		}
		var cnf [][]int
		for len(data) > 1 && len(cnf) < 64 {
			n := 1 + int(data[0]%3)
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			cl := make([]int, n)
			for i := range cl {
				cl[i] = lit(data[i])
			}
			cnf = append(cnf, cl)
			data = data[n:]
		}
		checkAssumptions(t, nVars, cnf, assumptions)
	})
}
