// Package sat implements a small conflict-driven clause-learning (CDCL)
// boolean satisfiability solver with two-literal watching, first-UIP clause
// learning and an activity-based decision heuristic, plus a Tseitin encoder
// for arbitrary propositional formulas.
//
// The IPA static analysis grounds first-order verification conditions over a
// small scope and decides them here; this package plays the role Z3 plays in
// the paper. Problems are small (hundreds to a few thousand variables), so
// the solver favours clarity over heavy optimisation while still using the
// standard algorithms so that pathological inputs stay tractable.
//
// Literals are non-zero ints in the DIMACS convention: +v is the variable v,
// -v its negation. Variables are allocated with NewVar and numbered from 1.
package sat

import "fmt"

// value of a variable in the partial assignment.
type value int8

const (
	unassigned value = iota
	vTrue
	vFalse
)

func (v value) negate() value {
	switch v {
	case vTrue:
		return vFalse
	case vFalse:
		return vTrue
	}
	return unassigned
}

// lit is the internal literal encoding: variable v (1-based) as positive
// literal 2v, negative literal 2v+1.
type lit uint32

func toLit(l int) lit {
	if l > 0 {
		return lit(2 * l)
	}
	return lit(-2*l + 1)
}

func (l lit) variable() int { return int(l >> 1) }
func (l lit) neg() lit      { return l ^ 1 }
func (l lit) sign() bool    { return l&1 == 1 } // true when negative

// Solver is a CDCL SAT solver. The zero value is not usable; call New, or
// ResetFrom a prefix. A Solver is not safe for concurrent use.
type Solver struct {
	nVars    int
	clauses  []*clause // problem + learned clauses
	watches  [][]*clause
	assigns  []value // indexed by var
	level    []int   // decision level per var
	reason   []*clause
	trail    []lit
	trailLim []int // trail index at each decision level
	activity []float64
	varInc   float64

	propHead int
	unsat    bool // conflict at level 0 discovered during AddClause/solve

	seen  []bool // scratch for analyze
	Stats Stats

	// Tseitin state (formula.go): the definition variable of each And/Or
	// node by kind and child literals — those of the prefix the solver
	// started from, shared and never written, then its own — the shared
	// constant variable, and scratch for building keys.
	frozenDefs map[string]int
	defs       map[string]int
	trueVar    int
	defKey     []byte

	// Clauses and their literals are carved from blocks: ResetFrom lays
	// the prefix's out at their start, and newClause appends after them,
	// starting a block twice the size when one is full. The watch lists
	// share one block too (ResetFrom). A reset reuses the last blocks.
	clauseBlock []clause
	litBlock    []lit
	watchBlock  []*clause
	litBuf      []lit // scratch for AddClause and analyze
	gateBuf     []int // scratch for gate
}

// Stats reports solver effort, useful in benchmarks and tests.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Learned      int64
}

type clause struct {
	lits    []lit
	learned bool
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1.0, defs: map[string]int{}}
	// index 0 unused so vars are 1-based
	s.assigns = append(s.assigns, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.watches = append(s.watches, nil, nil)
	return s
}

// NewVar allocates a fresh variable and returns its index (≥ 1).
func (s *Solver) NewVar() int {
	s.nVars++
	s.assigns = append(s.assigns, unassigned)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	if n := len(s.watches); n+2 <= cap(s.watches) {
		// Empty lists ResetFrom left past the prefix's, with room.
		s.watches = s.watches[:n+2]
	} else {
		s.watches = append(s.watches, nil, nil)
	}
	return s.nVars
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

func (s *Solver) litValue(l lit) value {
	v := s.assigns[l.variable()]
	if v == unassigned {
		return unassigned
	}
	if l.sign() {
		return v.negate()
	}
	return v
}

// AddClause adds a disjunction of literals. It returns false if the clause
// makes the formula trivially unsatisfiable (empty clause, or conflicting
// unit at level 0). Tautologies and duplicate literals are simplified away.
// Adding a clause after a successful Solve invalidates the current model.
func (s *Solver) AddClause(lits ...int) bool {
	if s.unsat {
		return false
	}
	s.cancelUntil(0)
	// Simplify: sort-free dedup, drop false lits (level 0), detect tautology
	// and satisfied clauses.
	if cap(s.litBuf) < len(lits) {
		s.litBuf = make([]lit, 0, 2*len(lits))
	}
	out := s.litBuf[:0]
	for _, li := range lits {
		if li == 0 {
			panic("sat: literal 0 in clause")
		}
		v := li
		if v < 0 {
			v = -v
		}
		if v > s.nVars {
			panic(fmt.Sprintf("sat: literal %d references unallocated variable", li))
		}
		l := toLit(li)
		switch s.litValue(l) {
		case vTrue:
			if s.level[l.variable()] == 0 {
				return true // already satisfied forever
			}
		case vFalse:
			if s.level[l.variable()] == 0 {
				continue // literal is dead
			}
		}
		dup := false
		for _, e := range out {
			if e == l {
				dup = true
				break
			}
			if e == l.neg() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsat = true
			return false
		}
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := s.newClause(out, false)
	s.attach(c)
	s.clauses = append(s.clauses, c)
	return true
}

// newClause returns a clause over a copy of lits, carved from the blocks.
func (s *Solver) newClause(lits []lit, learned bool) *clause {
	if len(lits) > cap(s.litBlock)-len(s.litBlock) {
		s.litBlock = make([]lit, 0, max(2*cap(s.litBlock), len(lits), 64))
	}
	n := len(s.litBlock)
	s.litBlock = append(s.litBlock, lits...)
	if len(s.clauseBlock) == cap(s.clauseBlock) {
		s.clauseBlock = make([]clause, 0, max(2*cap(s.clauseBlock), 16))
	}
	s.clauseBlock = append(s.clauseBlock, clause{lits: s.litBlock[n:len(s.litBlock):len(s.litBlock)], learned: learned})
	return &s.clauseBlock[len(s.clauseBlock)-1]
}

func (s *Solver) attach(c *clause) {
	// Watch the first two literals.
	s.watches[c.lits[0].neg()] = append(s.watches[c.lits[0].neg()], c)
	s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], c)
}

// enqueue assigns l true with the given reason; returns false on conflict.
func (s *Solver) enqueue(l lit, from *clause) bool {
	switch s.litValue(l) {
	case vTrue:
		return true
	case vFalse:
		return false
	}
	v := l.variable()
	if l.sign() {
		s.assigns[v] = vFalse
	} else {
		s.assigns[v] = vTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
	return true
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// propagate runs unit propagation; returns the conflicting clause or nil.
// Each watch list is filtered in place (MiniSat's i/j): nothing is appended
// to watches[p] while it is scanned, because a clause's new watch is a
// literal that is not false, and ¬p is.
func (s *Solver) propagate() *clause {
	for s.propHead < len(s.trail) {
		p := s.trail[s.propHead] // p is true; visit clauses watching ¬p
		s.propHead++
		ws := s.watches[p]
		j := 0
		var conflict *clause
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Normalise so lits[1] is the false literal (¬p ... p true).
			if c.lits[0].neg() == p {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			// If first watch is true, clause satisfied.
			if s.litValue(c.lits[0]) == vTrue {
				ws[j] = c
				j++
				continue
			}
			// Find a new literal to watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != vFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].neg()] = append(s.watches[c.lits[1].neg()], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = c
			j++
			s.Stats.Propagations++
			if !s.enqueue(c.lits[0], c) {
				conflict = c
				j += copy(ws[j:], ws[i+1:])
				break
			}
		}
		s.watches[p] = ws[:j]
		if conflict != nil {
			return conflict
		}
	}
	return nil
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

// analyze performs first-UIP conflict analysis. It returns the learned
// clause (asserting literal first), in scratch that the next analyze or
// AddClause overwrites, and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]lit, int) {
	learnt := append(s.litBuf[:0], 0) // slot for the asserting literal
	counter := 0
	var p lit
	havep := false
	idx := len(s.trail) - 1

	for {
		for _, q := range confl.lits {
			if havep && q == p {
				continue
			}
			v := q.variable()
			if !s.seen[v] && s.level[v] > 0 {
				s.seen[v] = true
				s.bumpVar(v)
				if s.level[v] == s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Find the next seen literal on the trail.
		for !s.seen[s.trail[idx].variable()] {
			idx--
		}
		p = s.trail[idx]
		havep = true
		idx--
		v := p.variable()
		s.seen[v] = false
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[v]
	}
	learnt[0] = p.neg()

	// Backtrack level: max level among the non-asserting literals.
	btLevel := 0
	for i := 1; i < len(learnt); i++ {
		if lv := s.level[learnt[i].variable()]; lv > btLevel {
			btLevel = lv
		}
	}
	// Move a literal of btLevel to position 1 so watching works.
	for i := 1; i < len(learnt); i++ {
		if s.level[learnt[i].variable()] == btLevel {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	for i := 1; i < len(learnt); i++ {
		s.seen[learnt[i].variable()] = false
	}
	s.litBuf = learnt
	return learnt, btLevel
}

func (s *Solver) cancelUntil(level int) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].variable()
		s.assigns[v] = unassigned
		s.reason[v] = nil
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.propHead = len(s.trail)
}

func (s *Solver) pickBranchVar() int {
	best, bestAct := 0, -1.0
	for v := 1; v <= s.nVars; v++ {
		if s.assigns[v] == unassigned && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// Solve decides satisfiability of the added clauses under the given
// assumption literals, MiniSat-style: the assumptions are decided first,
// one decision level each, and a conflict that refutes them returns false
// without making the solver UNSAT, so a later Solve (with other
// assumptions, or none) starts from the same clauses plus everything
// learnt. After a true result, Value reports a satisfying assignment in
// which every assumption holds. Solve may be called again after adding
// more clauses (incremental use); learned clauses are retained.
func (s *Solver) Solve(assumptions ...int) bool {
	if s.unsat {
		return false
	}
	for _, a := range assumptions {
		if a == 0 || a > s.nVars || -a > s.nVars {
			panic(fmt.Sprintf("sat: assumption %d references unallocated variable", a))
		}
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.unsat = true
		return false
	}
	for {
		confl := s.propagate()
		if confl != nil {
			s.Stats.Conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return false
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.enqueue(learnt[0], nil)
			} else {
				c := s.newClause(learnt, true)
				s.clauses = append(s.clauses, c)
				s.attach(c)
				s.Stats.Learned++
				s.enqueue(learnt[0], c)
			}
			s.varInc /= 0.95 // decay by bumping the increment
			continue
		}
		next, ok := s.nextAssumption(assumptions)
		if !ok {
			s.cancelUntil(0)
			return false // the clauses refute the assumptions
		}
		if next == 0 {
			v := s.pickBranchVar()
			if v == 0 {
				return true // complete assignment
			}
			// Phase heuristic: try false first (predicates default to absent).
			next = toLit(-v)
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.enqueue(next, nil)
	}
}

// nextAssumption returns the first assumption not yet decided, opening an
// empty decision level for each one that already holds so that level i+1
// always belongs to assumption i. It returns 0 once every assumption
// holds, and ok=false when one is false.
func (s *Solver) nextAssumption(assumptions []int) (next lit, ok bool) {
	for s.decisionLevel() < len(assumptions) {
		p := toLit(assumptions[s.decisionLevel()])
		switch s.litValue(p) {
		case vTrue:
			s.trailLim = append(s.trailLim, len(s.trail))
		case vFalse:
			return 0, false
		default:
			return p, true
		}
	}
	return 0, true
}

// Value returns the model value of variable v after a successful Solve.
func (s *Solver) Value(v int) bool { return s.assigns[v] == vTrue }

// Model returns the full model as a slice indexed by variable (entry 0
// unused).
func (s *Solver) Model() []bool {
	m := make([]bool, s.nVars+1)
	for v := 1; v <= s.nVars; v++ {
		m[v] = s.Value(v)
	}
	return m
}
