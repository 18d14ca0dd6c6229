package sat

import (
	"maps"
	"slices"
)

// Prefix is a solver frozen at decision level 0: its variables, its
// clauses in watch order, its level-0 assignment, its activities and its
// Tseitin definitions. A Prefix is immutable, so any number of solvers can
// start from it with NewFrom or ResetFrom.
type Prefix struct {
	nVars    int
	clauses  []clause  // lits (slices of lits below) in the order the solver last left them
	lits     []lit     // every clause's literals, one block in clause order
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
	defs := make(map[string]int, len(s.frozenDefs)+len(s.defs))
	maps.Copy(defs, s.frozenDefs)
	maps.Copy(defs, s.defs)
	p := &Prefix{nVars: s.nVars, clauses: make([]clause, len(s.clauses)),
		watches: make([][]int32, len(s.watches)), assigns: slices.Clone(s.assigns),
		trail: slices.Clone(s.trail), propHead: s.propHead, activity: slices.Clone(s.activity),
		varInc: s.varInc, unsat: s.unsat, defs: defs, trueVar: s.trueVar}
	index := make(map[*clause]int32, len(s.clauses))
	for i, c := range s.clauses {
		index[c] = int32(i)
		p.lits = append(p.lits, c.lits...)
	}
	lits := p.lits
	for i, c := range s.clauses {
		k := len(c.lits)
		p.clauses[i] = clause{lits: lits[:k:k], learned: c.learned}
		lits = lits[k:]
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
// the frozen solver would have. Its Stats start at zero. It is ResetFrom
// on a solver that owns no buffers yet.
func NewFrom(p *Prefix) *Solver {
	s := &Solver{}
	s.ResetFrom(p)
	return s
}

// ResetFrom puts s, whatever it solved before, into the state NewFrom(p)
// returns, reusing s's clause, literal, watch, trail and definition
// buffers. Level-0 assignments carry no reason clause: conflict analysis
// never reads the reason of a level-0 variable. The prefix's Tseitin
// definitions are read in place, never copied: s keeps its own only for
// the gates it defines after the reset.
func (s *Solver) ResetFrom(p *Prefix) {
	n := p.nVars + 1
	s.nVars, s.propHead, s.varInc, s.unsat, s.trueVar = p.nVars, p.propHead, p.varInc, p.unsat, p.trueVar
	s.assigns = append(s.assigns[:0], p.assigns...)
	s.level = zeroed(s.level, n)
	s.reason = zeroed(s.reason, n)
	s.seen = zeroed(s.seen, n)
	s.activity = append(s.activity[:0], p.activity...)
	s.trail = append(s.trail[:0], p.trail...)
	s.trailLim = s.trailLim[:0]
	s.Stats = Stats{}
	s.frozenDefs = p.defs
	if s.defs == nil {
		s.defs = map[string]int{}
	}
	clear(s.defs)

	// The prefix's clauses and their literals go at the start of the
	// solver's blocks, each clause capped at its own length.
	cs := grown(s.clauseBlock, len(p.clauses))
	lits := grown(s.litBlock, len(p.lits))
	copy(lits, p.lits)
	s.clauseBlock, s.litBlock = cs, lits
	s.clauses = zeroed(s.clauses, len(p.clauses))
	for i := range p.clauses {
		k := len(p.clauses[i].lits)
		cs[i] = clause{lits: lits[:k:k], learned: p.clauses[i].learned}
		lits = lits[k:]
		s.clauses[i] = &cs[i]
	}

	// Every literal's watch list gets room of its own in one block: for
	// the prefix's list, and for as many watches as the list had room for
	// before, the lists of variables past the prefix's included. A solver
	// reset for one query after another so stops growing lists once each
	// has had the room its longest query needed. A list is capped at its
	// room, so appending past it copies the list rather than overwriting
	// its neighbour.
	all := s.watches[:cap(s.watches)]
	lists := max(len(p.watches), len(all))
	room := func(l int) int {
		r := 0
		if l < len(p.watches) {
			r = len(p.watches[l])
		}
		if l < len(all) {
			r = max(r, cap(all[l]))
		}
		return r
	}
	total := 0
	for l := range lists {
		total += room(l)
	}
	if cap(s.watchBlock) < total {
		s.watchBlock = make([]*clause, total+total/2) // room for the rooms to grow
	}
	ws := s.watchBlock
	if len(all) < lists {
		all = append(all, make([][]*clause, lists-len(all))...)
	}
	for l := range lists {
		r := room(l)
		w := ws[:0:r]
		ws = ws[r:]
		if l < len(p.watches) {
			for _, i := range p.watches[l] {
				w = append(w, s.clauses[i])
			}
		}
		all[l] = w
	}
	s.watches = all[:len(p.watches)]
}

// zeroed returns b resliced to n zero elements, reusing its array when it
// is large enough. Elements past n are zeroed too, so that the array holds
// nothing a later append does not overwrite.
func zeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:cap(b)]
	clear(b)
	return b[:n]
}

// grown returns b resliced to n elements, reusing its array when it is
// large enough, for a caller that overwrites all n.
func grown[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
