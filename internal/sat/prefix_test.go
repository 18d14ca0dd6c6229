package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestNewFromContinuesAsFrozen freezes random solvers — some fresh from
// encoding, some after a Solve left learnt clauses and a model — and then
// drives the original, two solvers started from the prefix and one solver
// recycled from trial to trial through one random script of encodings,
// clauses and assumption solves. The recycled solver has solved the
// earlier trials' problems, larger and smaller than this one, and is put
// back with ResetFrom; right after, it must have NewFrom's fingerprint.
// Every step must return the same literal, verdict and model on all four,
// and leave the same clauses, watch lists, trail and activities: a solver
// started from a prefix numbers variables and decides exactly as the
// frozen one, and starting or using one leaves the prefix unchanged.
func TestNewFromContinuesAsFrozen(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recycled := New()
	for trial := 0; trial < 300; trial++ {
		nVars := 3 + rng.Intn(6)
		orig := New()
		for i := 0; i < nVars; i++ {
			orig.NewVar()
		}
		for i := rng.Intn(4); i >= 0; i-- {
			orig.AddClause(orig.Lit(randomFormula(rng, nVars, 3)))
		}
		if trial%2 == 1 {
			orig.Solve(randomAssumptions(rng, nVars)...)
		}
		p := orig.Freeze()
		seed := rng.Int63()
		want := runScript(orig, nVars, seed)
		for k := 0; k < 2; k++ {
			if got := runScript(NewFrom(p), nVars, seed); !slices.Equal(got, want) {
				t.Fatalf("trial %d, start %d from the prefix:\n got  %v\n want %v", trial, k, got, want)
			}
		}
		recycled.ResetFrom(p)
		if got, want := fingerprint(recycled), fingerprint(NewFrom(p)); got != want || recycled.Stats != (Stats{}) {
			t.Fatalf("trial %d, reset from the prefix:\n got  %v\n want %v", trial, got, want)
		}
		if got := runScript(recycled, nVars, seed); !slices.Equal(got, want) {
			t.Fatalf("trial %d, recycled solver:\n got  %v\n want %v", trial, got, want)
		}
	}
}

// runScript applies a random sequence of steps, drawn from seed, and
// records what each returned and the solver's state after it.
func runScript(s *Solver, nVars int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for step := 0; step < 12; step++ {
		switch rng.Intn(3) {
		case 0:
			out = append(out, fmt.Sprint("lit ", s.Lit(randomFormula(rng, nVars, 3)), " vars ", s.NumVars()))
		case 1:
			cl := append(randomAssumptions(rng, nVars), (1+rng.Intn(nVars))*(1-2*rng.Intn(2)))
			out = append(out, fmt.Sprint("add ", s.AddClause(cl...)))
		default:
			ok := s.Solve(randomAssumptions(rng, nVars)...)
			out = append(out, fmt.Sprint("solve ", ok))
			if ok {
				out = append(out, fmt.Sprint(s.Model()))
			}
		}
		out = append(out, fingerprint(s))
	}
	return out
}

// fingerprint renders the solver state that decides what it does next:
// every clause's literals in their current order, each literal's watch
// list as clause positions, the assignment and its levels, the trail,
// the propagation head, the activities and the Tseitin definitions.
func fingerprint(s *Solver) string {
	pos := make(map[*clause]int, len(s.clauses))
	for i, c := range s.clauses {
		pos[c] = i
	}
	watches := make([][]int, len(s.watches))
	for l, ws := range s.watches {
		for _, c := range ws {
			watches[l] = append(watches[l], pos[c])
		}
	}
	lits := make([][]lit, len(s.clauses))
	for i, c := range s.clauses {
		lits[i] = c.lits
	}
	levels := make([]int, len(s.assigns)) // an unassigned variable's level is never read
	for v, a := range s.assigns {
		if a != unassigned {
			levels[v] = s.level[v]
		}
	}
	return fmt.Sprint("vars ", s.nVars, " clauses ", lits, " watches ", watches, " assigns ", s.assigns,
		" levels ", levels, " trail ", s.trail, s.trailLim, " head ", s.propHead, " unsat ", s.unsat,
		" activity ", s.activity, s.varInc, " defs ", s.Definitions(), s.trueVar)
}

func randomAssumptions(rng *rand.Rand, nVars int) []int {
	out := make([]int, rng.Intn(3))
	for i := range out {
		out[i] = (1 + rng.Intn(nVars)) * (1 - 2*rng.Intn(2))
	}
	return out
}
