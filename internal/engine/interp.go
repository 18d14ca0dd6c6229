package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ipa/internal/crdt"
	"ipa/internal/logic"
	"ipa/internal/store"
)

// state is the logical view of one replica's materialized spec state,
// read inside a single transaction (one consistent multi-key snapshot:
// every set is bound before any is read, and nothing is written until
// the reads are done).
//
// A whole state (extract with a nil footprint) holds every true atom and
// every field value in `in` — what checking by evaluation, repair,
// digests and the reference executor work on. A lazy state (a compiled
// plan's) holds only what its footprint extracted whole plus the atoms
// read so far: truth and num point-read anything absent through tx and
// memoise it, and a planned call's post-state reads through to its
// pre-state (base), so neither ever materialises a predicate the
// operation does not scan.
type state struct {
	in   logic.Interp
	a    *App
	tx   *store.Txn
	sc   *callScratch // working memory of reads and joins (see callScratch)
	lazy bool
	base *state
	// enumerated records that a join fell back to enumerating a sort's
	// domain (see join) — surfaced as App.Stats().DomainEnumCalls.
	enumerated bool
}

// extract reads the app's predicate sets and numeric counters through
// tx and rebuilds the specification-level interpretation — the generic
// form of the hand-written per-app state extraction the analysis
// reasons over. A nil footprint reads everything; a compiled plan's
// footprint names only what it needs whole, and the state reads the
// rest on demand. The state and its working memory are fresh: whole-state
// callers (checking, digests, repair, the reference executor) keep what
// they extract.
func (a *App) extract(tx *store.Txn, fp *footprint) *state {
	return a.extractInto(&state{}, newCallScratch(), tx, fp)
}

// member is one element extraction has recorded in a sort's domain.
type member struct {
	srt logic.Sort
	el  string
}

// extractInto is extract into st, reusing st's maps and domain slices
// when it has them (a compiled call's pooled pre-state), with sc as the
// state's working memory.
func (a *App) extractInto(st *state, sc *callScratch, tx *store.Txn, fp *footprint) *state {
	if st.in.Truth == nil {
		st.in = logic.Interp{
			Domain: map[logic.Sort][]string{},
			Truth:  map[string]bool{},
			Nums:   map[string]int{},
		}
	} else {
		clear(st.in.Truth)
		clear(st.in.Nums)
	}
	st.in.Consts = a.consts // read-only: shared, never copied per call
	st.a, st.tx, st.sc, st.lazy, st.base, st.enumerated = a, tx, sc, fp != nil, nil, false
	if fp == nil {
		fp = a.whole
	}
	// Every sort is present even when empty: quantifiers over an empty
	// domain are vacuously true, not an evaluation error.
	for _, srt := range a.sortList {
		d := st.in.Domain[srt]
		if d == nil {
			d = []string{}
		}
		st.in.Domain[srt] = d[:0]
	}
	record := func(sorts []logic.Sort, parts []string) {
		for i, p := range parts {
			if i >= len(sorts) || sorts[i] == "" {
				continue
			}
			m := member{sorts[i], p}
			if _, dup := sc.seen[m]; !dup {
				sc.seen[m] = struct{}{}
				st.in.Domain[m.srt] = append(st.in.Domain[m.srt], p)
			}
		}
	}
	// Predicates and fields read in sorted name order (cached at mount),
	// elements in sorted order (the sets' Elems are already sorted):
	// extraction feeds planning, and the emitted CRDT operations must be
	// a deterministic function of the state for seed replay.
	for _, pi := range fp.preds {
		if len(pi.sorts) == 0 {
			if a.readAtom(tx, pi, nil) {
				st.in.Truth[pi.name] = true
			}
			continue
		}
		for _, elem := range a.setElems(tx, pi) {
			parts := sc.split(elem)
			if len(parts) != len(pi.sorts) {
				continue // foreign tuple shape: ignore rather than misparse
			}
			st.in.Truth[logic.GroundAtom(pi.name, parts...)] = true
			record(pi.sorts, parts)
		}
	}
	for _, ni := range fp.nums {
		name := ni.name
		for _, tuple := range store.AWSetAt(tx, ni.idxKey).Elems() {
			val := a.fieldValue(tx, ni, tuple)
			// 0-ary fields index the unit tuple but evaluate under the bare
			// field name — the same key planning and formula evaluation use.
			if len(ni.sorts) == 0 {
				if tuple == unitElem {
					st.in.Nums[name] = val
				}
				continue
			}
			parts := sc.split(tuple)
			if len(parts) != len(ni.sorts) {
				continue // foreign tuple shape: ignore rather than misparse
			}
			st.in.Nums[logic.GroundAtom(name, parts...)] = val
			record(ni.sorts, parts)
		}
	}
	return st
}

// setRef is what the engine uses of a predicate's set: add-wins or
// remove-wins, as a two-variant value rather than an interface, so
// binding one per read or action allocates nothing.
type setRef struct {
	remWins bool
	aw      store.AWSetRef
	rw      store.RWSetRef
}

// set binds the predicate's set in tx (the first binding takes the
// replica lock, held to commit).
func (a *App) set(tx *store.Txn, pi *predInfo) setRef {
	if pi.remWins {
		return setRef{remWins: true, rw: store.RWSetAt(tx, pi.key)}
	}
	return setRef{aw: store.AWSetAt(tx, pi.key)}
}

func (r setRef) Add(elem string) {
	if r.remWins {
		r.rw.Add(elem, "")
	} else {
		r.aw.Add(elem, "")
	}
}

func (r setRef) Touch(elem string) {
	if r.remWins {
		r.rw.Touch(elem)
	} else {
		r.aw.Touch(elem)
	}
}

func (r setRef) Remove(elem string) {
	if r.remWins {
		r.rw.Remove(elem)
	} else {
		r.aw.Remove(elem)
	}
}

func (r setRef) RemoveWhere(pred crdt.MatchFields) {
	if r.remWins {
		r.rw.RemoveWhere(pred)
	} else {
		r.aw.RemoveWhere(pred)
	}
}

func (r setRef) Contains(elem string) bool {
	if r.remWins {
		return r.rw.Contains(elem)
	}
	return r.aw.Contains(elem)
}

func (r setRef) Size() int {
	if r.remWins {
		return r.rw.Size()
	}
	return r.aw.Size()
}

func (r setRef) Elems() []string {
	if r.remWins {
		return r.rw.Elems()
	}
	return r.aw.Elems()
}

func (r setRef) ElemsWhere(pred crdt.MatchFields) []string {
	if r.remWins {
		return r.rw.ElemsWhere(pred)
	}
	return r.aw.ElemsWhere(pred)
}

// readAtom point-reads one ground atom: set membership of its tuple —
// for a 0-ary predicate, any member makes it true.
func (a *App) readAtom(tx *store.Txn, pi *predInfo, args []string) bool {
	a.tuplesRead.Add(1)
	if len(pi.sorts) == 0 {
		return a.set(tx, pi).Size() > 0
	}
	return a.set(tx, pi).Contains(elem(args))
}

// readField point-reads one ground field: its counter's value, but only
// for a tuple the field's index set knows — exactly what extraction
// finds; any other reads as zero.
func (a *App) readField(tx *store.Txn, ni *numInfo, args []string) int {
	a.tuplesRead.Add(1)
	tuple := elem(args)
	if !store.AWSetAt(tx, ni.idxKey).Contains(tuple) {
		return 0
	}
	return a.fieldValue(tx, ni, tuple)
}

// fieldValue reads an indexed tuple's value. A bounded field's effective
// value is the raw escrow counter plus its replenish ledger (see
// numInfo.ledgerPfx).
func (a *App) fieldValue(tx *store.Txn, ni *numInfo, tuple string) int {
	if ni.bounded {
		return int(store.BoundedAt(tx, ni.key(tuple)).Value() + ledgerSum(tx, ni.ledger(tuple)))
	}
	return int(store.CounterAt(tx, ni.key(tuple)).Value())
}

// ledgerSum totals a replenish ledger's "r<epoch>:<amount>" entries.
func ledgerSum(tx *store.Txn, key string) int64 {
	var sum int64
	for _, e := range store.AWSetAt(tx, key).Elems() {
		if i := strings.IndexByte(e, ':'); i >= 0 {
			if n, err := strconv.ParseInt(e[i+1:], 10, 64); err == nil {
				sum += n
			}
		}
	}
	return sum
}

// setElems reads a predicate's member tuples, sorted.
func (a *App) setElems(tx *store.Txn, pi *predInfo) []string {
	out := a.set(tx, pi).Elems()
	a.tuplesRead.Add(uint64(len(out)))
	return out
}

// setWhere reads the member tuples matching a pattern ("" = wildcard),
// sorted — emitted operations must be a deterministic function of the
// state for seed replay.
func (a *App) setWhere(tx *store.Txn, pi *predInfo, pattern []string) []string {
	out := a.set(tx, pi).ElemsWhere(crdt.MatchPattern(pattern...))
	a.tuplesRead.Add(uint64(len(out)))
	return out
}

// fork copies the state for post-state simulation. Truth and Nums are
// deep-copied (planning mutates them) — the whole state for the
// reference executor, only the whole-extracted and already-read atoms
// for a lazy one, whose copy reads anything else through to s. The
// domain slices are shared: addDomain only ever appends, which either
// reallocates or writes past the original's length, so s never observes
// the change.
func (s *state) fork() *state { return s.forkInto(&state{}) }

// forkInto is fork into c, reusing c's maps when it has them (a compiled
// call's pooled post-state), and then copying the domains into c's own
// slices.
func (s *state) forkInto(c *state) *state {
	pooled := c.in.Truth != nil
	if !pooled {
		c.in = logic.Interp{
			Domain: make(map[logic.Sort][]string, len(s.in.Domain)),
			Truth:  make(map[string]bool, len(s.in.Truth)),
			Nums:   make(map[string]int, len(s.in.Nums)),
		}
	} else {
		clear(c.in.Truth)
		clear(c.in.Nums)
	}
	c.in.Consts = s.in.Consts
	c.a, c.tx, c.sc, c.lazy, c.base, c.enumerated = s.a, s.tx, s.sc, s.lazy, s, false
	for k, v := range s.in.Domain {
		if pooled {
			// Into its own backing array: what addDomain grows stays
			// with the scratch for the next call.
			v = append(c.in.Domain[k][:0], v...)
		}
		c.in.Domain[k] = v
	}
	for k, v := range s.in.Truth {
		c.in.Truth[k] = v
	}
	for k, v := range s.in.Nums {
		c.in.Nums[k] = v
	}
	return c
}

// addDomain registers a call argument under its parameter's sort.
func (s *state) addDomain(srt logic.Sort, el string) {
	if srt == "" {
		return
	}
	for _, have := range s.in.Domain[srt] {
		if have == el {
			return
		}
	}
	s.in.Domain[srt] = append(s.in.Domain[srt], el)
}

// enumBindings enumerates all assignments of the clause variables over
// the state's domains, in deterministic order. Missing sorts yield no
// bindings (the clause is then vacuously true in this state).
func (s *state) enumBindings(vars []logic.Var) []map[string]string {
	out := []map[string]string{{}}
	for _, v := range vars {
		elems := s.in.Domain[v.Sort]
		if len(elems) == 0 {
			return nil
		}
		var next []map[string]string
		for _, env := range out {
			for _, el := range elems {
				inner := make(map[string]string, len(env)+1)
				for k, x := range env {
					inner[k] = x
				}
				inner[v.Name] = el
				next = append(next, inner)
			}
		}
		out = next
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EvalClauses evaluates invariant clauses against an interpretation and
// returns the violated ones — the generic replacement for hand-written
// per-application invariant checkers.
func EvalClauses(in logic.Interp, clauses []logic.Formula) ([]logic.Formula, error) {
	var violated []logic.Formula
	for _, cl := range clauses {
		ok, err := in.Eval(cl, nil)
		if err != nil {
			return nil, err
		}
		if !ok {
			violated = append(violated, cl)
		}
	}
	return violated, nil
}

// DigestOf renders an interpretation as a canonical state digest: the
// sorted true atoms plus every numeric field value. Two replicas of a
// converged cluster digest identically; a spec-driven executor and a
// hand-coded application that reach the same specification-level state
// digest identically regardless of their key layouts.
func DigestOf(in logic.Interp) string {
	var parts []string
	for atom, v := range in.Truth {
		if v {
			parts = append(parts, atom)
		}
	}
	for key, v := range in.Nums {
		parts = append(parts, fmt.Sprintf("%s=%d", key, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
