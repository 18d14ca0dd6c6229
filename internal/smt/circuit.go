package smt

import (
	"fmt"
	"slices"

	"ipa/internal/logic"
	"ipa/internal/sat"
)

// A Circuit is an invariant's clauses ground once, over slots rather than
// a state's atoms. Compile walks each clause's AST with Formula, once, in
// a template state whose every ground atom is one slot variable and every
// numeric field a vector of slot variables; what it records is the Tseitin
// gates those walks defined. Instantiating a clause in a state is then a
// pass over its gates with the state's literal for each slot: no AST walk,
// no binding maps, no string keys.
//
// A Circuit is immutable once compiled. Ground instantiates it in a root
// state (the pre-state); Grounding.Clause instantiates a clause in a state
// derived from that root, rebuilding only the gates whose cone holds a
// slot the state's effects write and reusing the root's literal for every
// other gate.
type Circuit struct {
	slots   []slot
	byName  map[string][]int // slot indices per predicate or field name
	consts  []constBit       // the symbolic-constant bits gates read
	nBits   int              // slot bits, then constant bits
	bitSlot []int            // the slot of each slot bit
	clauses []clauseCircuit
}

// slotWidth is the bit width of a field slot: the widest vector State.Fn
// derives, a constWidth-bit field plus a delta constBV encodes in at most
// 32 bits, one bit wider for the sum. Arithmetic here never overflows and
// comparisons sign-extend, so a narrower vector sign-extended to slotWidth
// bits has the same value everywhere in the circuit.
const slotWidth = 33

// slot is one ground atom, or one ground numeric field, that the clauses
// read.
type slot struct {
	name  string
	args  []string
	field bool
	bit   int // first bit: one for an atom, slotWidth for a field
}

type constBit struct {
	name string
	bit  int
}

// clauseCircuit is the cone of one clause: its nodes in topological
// order, each an input (a slot or constant bit) or a gate over earlier
// nodes.
type clauseCircuit struct {
	nodes []node
	root  int32    // ±(index+1) of the clause's node; 0 if the clause is constant
	konst bool     // the value of a constant clause
	reads []uint64 // the slots the clause reads, as a bit set
}

type node struct {
	args []int32 // a gate's children, as ±(index+1); nil for an input
	or   bool
	in   int // an input's bit
}

// compiling is Compile's state while the template walks run: the circuit
// being built and the bit each template variable stands for.
type compiling struct {
	c     *Circuit
	bitOf map[int]int
}

// slot records pred(args), materialised in the template state as vars.
func (k *compiling) slot(name string, args []string, field bool, vars []int) {
	c := k.c
	id := len(c.slots)
	c.slots = append(c.slots, slot{name: name, args: slices.Clone(args), field: field, bit: c.nBits})
	c.byName[name] = append(c.byName[name], id)
	for _, v := range vars {
		k.bitOf[v] = c.nBits
		c.bitSlot = append(c.bitSlot, id)
		c.nBits++
	}
}

// Compile grounds each clause once, with Formula, over the domain and
// signature, and records the result as a Circuit. Its walks are counted in
// work, if set.
func Compile(clauses []logic.Formula, dom Domain, sig Signature, work *Work) (*Circuit, error) {
	c := &Circuit{byName: map[string][]int{}, clauses: make([]clauseCircuit, len(clauses))}
	k := &compiling{c: c, bitOf: map[int]int{}}
	t := NewEncoder(dom, sig)
	t.Work = work
	ts := t.NewState("template")
	ts.tmpl = k
	roots := make([]int, len(clauses))
	for i, cl := range clauses {
		f, err := t.Formula(cl, ts, Binding{})
		if err != nil {
			return nil, err
		}
		if isConst, v := f.IsConst(); isConst {
			c.clauses[i].konst = v
			continue
		}
		roots[i] = t.S.Lit(f)
	}
	for _, name := range t.Consts() {
		for b, f := range t.consts[name] {
			k.bitOf[t.S.Lit(f)] = c.nBits
			c.consts = append(c.consts, constBit{name, b})
			c.nBits++
		}
	}
	defs := t.S.Definitions()
	for i, r := range roots {
		if r != 0 {
			if err := k.cone(&c.clauses[i], r, defs); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// cone lays out the nodes that template literal root depends on.
func (k *compiling) cone(cc *clauseCircuit, root int, defs map[int]sat.Definition) error {
	index := map[int]int32{} // template variable -> node index
	cc.reads = make([]uint64, (len(k.c.slots)+63)/64)
	var visit func(l int) (int32, error)
	visit = func(l int) (int32, error) {
		v := max(l, -l)
		n, ok := index[v]
		if !ok {
			if d, isGate := defs[v]; isGate {
				g := node{or: d.Or, args: make([]int32, len(d.Args))}
				for a, arg := range d.Args {
					ref, err := visit(arg)
					if err != nil {
						return 0, err
					}
					g.args[a] = ref
				}
				cc.nodes = append(cc.nodes, g)
			} else {
				bit, isInput := k.bitOf[v]
				if !isInput {
					return 0, fmt.Errorf("smt: template variable %d is neither a gate nor a slot", v)
				}
				if bit < len(k.c.bitSlot) {
					id := k.c.bitSlot[bit]
					cc.reads[id/64] |= 1 << (id % 64)
				}
				cc.nodes = append(cc.nodes, node{in: bit})
			}
			n = int32(len(cc.nodes) - 1)
			index[v] = n
		}
		if l < 0 {
			return -(n + 1), nil
		}
		return n + 1, nil
	}
	ref, err := visit(root)
	cc.root = ref
	return err
}

// readsAny reports whether the clause reads one of the slots.
func (cc *clauseCircuit) readsAny(slots []int) bool {
	if cc.reads == nil {
		return false // a constant clause
	}
	for _, id := range slots {
		if cc.reads[id/64]&(1<<(id%64)) != 0 {
			return true
		}
	}
	return false
}

// A Grounding is a Circuit instantiated in one root state: the literal of
// every slot bit and every node there. Its literals are those of the
// encoder it was ground on, and of every encoder started from a prefix
// that encoder froze afterwards.
type Grounding struct {
	c     *Circuit
	bits  []int   // each bit's literal in the root
	nodes [][]int // per clause, each node's literal in the root
	roots []int   // per clause, its literal in the root
}

// Ground instantiates c in root, a root state of e.
func (e *Encoder) Ground(c *Circuit, root *State) *Grounding {
	g := &Grounding{c: c, bits: make([]int, c.nBits), nodes: make([][]int, len(c.clauses)), roots: make([]int, len(c.clauses))}
	for _, sl := range c.slots {
		if !sl.field {
			g.bits[sl.bit] = e.S.Lit(root.Atom(sl.name, sl.args))
			continue
		}
		for b, f := range signExtend(root.Fn(sl.name, sl.args), slotWidth) {
			g.bits[sl.bit+b] = e.S.Lit(f)
		}
	}
	for i, cb := range c.consts {
		g.bits[c.nBits-len(c.consts)+i] = e.S.Lit(e.constVec(cb.name)[cb.bit])
	}
	for i := range c.clauses {
		cc := &c.clauses[i]
		g.nodes[i] = make([]int, len(cc.nodes))
		g.roots[i] = e.eval(cc, g.bits, nil, g.nodes[i])
	}
	return g
}

// Lit returns clause i's literal in the root state.
func (g *Grounding) Lit(i int) int { return g.roots[i] }

// Clause returns the literal of clause i in st, a state derived from the
// root g was ground in, on e, an encoder started from the prefix frozen
// after Ground (or the encoder Ground ran on). A clause that reads no slot
// st's effects write has the root's literal; otherwise only the gates whose
// cone holds such a slot are rebuilt, through the solver's hash-consed
// Gate, and every other gate keeps the root's literal.
func (g *Grounding) Clause(e *Encoder, st *State, i int) (int, error) {
	cc := &g.c.clauses[i]
	w, err := st.written(g)
	if err != nil {
		return 0, err
	}
	if !cc.readsAny(w.slots) {
		return g.roots[i], nil
	}
	if e.Work != nil {
		e.Work.Instantiations++
	}
	if cap(e.vals) < len(cc.nodes) {
		e.vals = make([]int, len(cc.nodes))
	}
	return e.eval(cc, w.bits, g.nodes[i], e.vals[:len(cc.nodes)]), nil
}

// eval computes into vals the literal of every node of cc from the
// literal of each bit, and returns the clause's literal. With pre (the
// root's node literals) set, a gate whose children all have their root
// literals keeps its root literal.
func (e *Encoder) eval(cc *clauseCircuit, bits, pre, vals []int) int {
	if cc.root == 0 {
		if cc.konst {
			return e.S.Lit(sat.TrueF())
		}
		return e.S.Lit(sat.FalseF())
	}
	for k, n := range cc.nodes {
		if n.args == nil {
			vals[k] = bits[n.in]
			continue
		}
		if pre != nil && unchanged(n.args, vals, pre) {
			vals[k] = pre[k]
			continue
		}
		lits := e.args[:0]
		for _, r := range n.args {
			lits = append(lits, refLit(r, vals))
		}
		e.args = lits
		vals[k] = e.S.Gate(n.or, lits)
	}
	return refLit(cc.root, vals)
}

// unchanged reports whether every referenced node has its root literal.
func unchanged(refs []int32, vals, pre []int) bool {
	for _, r := range refs {
		k := max(r, -r) - 1
		if vals[k] != pre[k] {
			return false
		}
	}
	return true
}

func refLit(r int32, vals []int) int {
	if r < 0 {
		return -vals[-r-1]
	}
	return vals[r-1]
}

// written is what a derived state's effects write, for one grounding:
// every bit's literal in the state, and the slots whose literals differ
// from the root's.
type written struct {
	g     *Grounding
	bits  []int
	slots []int
}

// written returns the slots s's effects write and s's literal for every
// bit, computed on first use for g.
func (s *State) written(g *Grounding) (*written, error) {
	if s.wrote != nil && s.wrote.g == g {
		return s.wrote, nil
	}
	c := g.c
	w := &written{g: g, bits: g.bits}
	set := func(id int, lits []int) {
		sl := &c.slots[id]
		if slices.Equal(lits, w.bits[sl.bit:sl.bit+len(lits)]) {
			return
		}
		if len(w.slots) == 0 {
			w.bits = slices.Clone(g.bits)
		}
		copy(w.bits[sl.bit:], lits)
		w.slots = append(w.slots, id)
	}
	for _, be := range s.bools {
		for _, id := range c.byName[be.Pred] {
			sl := &c.slots[id]
			if !sl.field && patternMatches(be.Args, sl.args) && !slices.Contains(w.slots, id) {
				set(id, []int{s.enc.S.Lit(s.Atom(sl.name, sl.args))})
			}
		}
	}
	for _, ne := range s.nums {
		for _, id := range c.byName[ne.Fn] {
			sl := &c.slots[id]
			if !sl.field || !patternMatches(ne.Args, sl.args) || slices.Contains(w.slots, id) {
				continue
			}
			v := s.Fn(sl.name, sl.args)
			if len(v) > slotWidth {
				return nil, fmt.Errorf("smt: %s is %d bits wide, more than a field slot's %d", atomKey(sl.name, sl.args), len(v), slotWidth)
			}
			lits := make([]int, slotWidth)
			for b, f := range signExtend(v, slotWidth) {
				lits[b] = s.enc.S.Lit(f)
			}
			set(id, lits)
		}
	}
	s.wrote = w
	return w, nil
}
