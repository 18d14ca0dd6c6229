package sat

import (
	"maps"
	"slices"
)

// Prefix is a solver frozen at decision level 0: its variables, its
// clauses in watch order, its level-0 assignment, its activities and its
// Tseitin definitions. A Prefix is immutable, so any number of solvers can
// start from it with NewFrom.
type Prefix struct {
	nVars    int
	clauses  []clause  // lits in the order the solver last left them
	nLits    int       // total literals over clauses
	watches  [][]int32 // per literal, indices into clauses in watch order
	nWatches int       // total entries over watches
	assigns  []value
	trail    []lit
	propHead int
	activity []float64
	varInc   float64
	unsat    bool
	defs     map[string]int
	trueVar  int
}

// Freeze returns the solver's state as a prefix. It backtracks to level 0
// first (dropping the model of a satisfiable Solve); the solver stays
// usable, and nothing it does later changes the prefix.
func (s *Solver) Freeze() *Prefix {
	s.cancelUntil(0)
	p := &Prefix{nVars: s.nVars, clauses: make([]clause, len(s.clauses)),
		watches: make([][]int32, len(s.watches)), assigns: slices.Clone(s.assigns),
		trail: slices.Clone(s.trail), propHead: s.propHead, activity: slices.Clone(s.activity),
		varInc: s.varInc, unsat: s.unsat, defs: maps.Clone(s.defs), trueVar: s.trueVar}
	index := make(map[*clause]int32, len(s.clauses))
	for i, c := range s.clauses {
		index[c] = int32(i)
		p.clauses[i] = clause{lits: slices.Clone(c.lits), learned: c.learned}
		p.nLits += len(c.lits)
	}
	for l, ws := range s.watches {
		for _, c := range ws {
			p.watches[l] = append(p.watches[l], index[c])
		}
		p.nWatches += len(ws)
	}
	return p
}

// NewFrom returns a solver in the state its prefix was frozen in, with
// the same variable numbering and the same clauses in the same watch
// order, so that from here on it adds, propagates and decides exactly as
// the frozen solver would have. Its Stats start at zero. Level-0
// assignments carry no reason clause: conflict analysis never reads the
// reason of a level-0 variable.
func NewFrom(p *Prefix) *Solver {
	n := p.nVars + 1
	s := &Solver{nVars: p.nVars, assigns: slices.Clone(p.assigns), level: make([]int, n),
		reason: make([]*clause, n), trail: slices.Clone(p.trail), propHead: p.propHead,
		activity: slices.Clone(p.activity), varInc: p.varInc, unsat: p.unsat,
		seen: make([]bool, n), defs: maps.Clone(p.defs), trueVar: p.trueVar}
	// One block each for the clauses, their literals and the watch lists.
	// Every watch list is capped at its own length, so appending to one
	// copies it rather than overwriting its neighbour.
	cs := make([]clause, len(p.clauses))
	lits := make([]lit, p.nLits)
	s.clauses = make([]*clause, len(cs))
	for i := range p.clauses {
		k := len(p.clauses[i].lits)
		cs[i] = clause{lits: lits[:k:k], learned: p.clauses[i].learned}
		copy(cs[i].lits, p.clauses[i].lits)
		lits = lits[k:]
		s.clauses[i] = &cs[i]
	}
	ws := make([]*clause, p.nWatches)
	s.watches = make([][]*clause, len(p.watches))
	for l, idx := range p.watches {
		if len(idx) == 0 {
			continue
		}
		w := ws[:len(idx):len(idx)]
		for k, i := range idx {
			w[k] = s.clauses[i]
		}
		s.watches[l] = w
		ws = ws[len(idx):]
	}
	return s
}
