package crdt

import (
	"fmt"
	"math/rand"
	"testing"

	"ipa/internal/clock"
)

// listRWSet is the remove-wins set as it was before an add's record became
// its causal cut: the origin copies the id of every tombstone present
// into the add it prepares, a receiver completes those lists with the
// tombstones the transaction's dependency cut covers, and compaction makes
// surviving adds forget tombstones it discards. The property test below
// holds RWSet to it.
type listRWSet struct {
	adds    map[string]map[clock.EventID]listRecord
	removes map[string]map[clock.EventID]*rwTomb
	wild    map[clock.EventID]*wildRemove
}

type listRecord struct{ removes, wild tagSet }

// listAdd is an add as the enumerating origin prepared it.
type listAdd struct {
	op            RWAddOp
	removes, wild []clock.EventID
}

func newListRWSet() *listRWSet {
	return &listRWSet{
		adds:    map[string]map[clock.EventID]listRecord{},
		removes: map[string]map[clock.EventID]*rwTomb{},
		wild:    map[clock.EventID]*wildRemove{},
	}
}

func (s *listRWSet) prepareAdd(op RWAddOp) listAdd {
	a := listAdd{op: op}
	for r := range s.removes[op.Elem] {
		a.removes = append(a.removes, r)
	}
	for wid := range s.wild {
		a.wild = append(a.wild, wid)
	}
	return a
}

// apply integrates one op; deps is the transaction's dependency cut at a
// receiver and nil at the origin.
func (s *listRWSet) apply(op any, deps clock.Vector) {
	switch o := op.(type) {
	case listAdd:
		rec := listRecord{removes: tagSet{}, wild: tagSet{}}
		rec.removes.addAll(o.removes)
		rec.wild.addAll(o.wild)
		for r := range s.removes[o.op.Elem] {
			if deps.Contains(r) {
				rec.removes[r] = struct{}{}
			}
		}
		for wid := range s.wild {
			if deps.Contains(wid) {
				rec.wild[wid] = struct{}{}
			}
		}
		if s.adds[o.op.Elem] == nil {
			s.adds[o.op.Elem] = map[clock.EventID]listRecord{}
		}
		s.adds[o.op.Elem][o.op.Tag] = rec
	case RWRemoveOp:
		if s.removes[o.Elem] == nil {
			s.removes[o.Elem] = map[clock.EventID]*rwTomb{}
		}
		s.removes[o.Elem][o.Tag] = &rwTomb{}
	case RWRemoveWhereOp:
		s.wild[o.Tag] = &wildRemove{pred: o.Pred}
	}
}

// killedBy reports whether rec is defeated by a tombstone of elem that
// counts (all of them, or the stable ones when horizon is non-nil).
func (s *listRWSet) killedBy(elem string, rec listRecord, horizon clock.Vector) bool {
	for r := range s.removes[elem] {
		if _, seen := rec.removes[r]; !seen && (horizon == nil || horizon.Contains(r)) {
			return true
		}
	}
	for wid, w := range s.wild {
		if _, seen := rec.wild[wid]; !seen && (horizon == nil || horizon.Contains(wid)) && w.pred.Matches(elem) {
			return true
		}
	}
	return false
}

func (s *listRWSet) contains(elem string) bool {
	for _, rec := range s.adds[elem] {
		if !s.killedBy(elem, rec, nil) {
			return true
		}
	}
	return false
}

func (s *listRWSet) compactWithFrontier(horizon, frontier clock.Vector) {
	for elem, recs := range s.adds {
		for tag, rec := range recs {
			if s.killedBy(elem, rec, horizon) {
				delete(recs, tag)
			}
		}
		if len(recs) == 0 {
			delete(s.adds, elem)
		}
	}
	for wid, w := range s.wild {
		if horizon.Contains(wid) {
			if w.fence == nil {
				w.fence = frontier.Clone()
			}
			if w.fence.LEq(horizon) {
				delete(s.wild, wid)
			}
		}
	}
	for _, rs := range s.removes {
		for r, tomb := range rs {
			if horizon.Contains(r) {
				if tomb.fence == nil {
					tomb.fence = frontier.Clone()
				}
				if tomb.fence.LEq(horizon) {
					delete(rs, r)
				}
			}
		}
	}
	for elem, recs := range s.adds {
		for _, rec := range recs {
			for r := range rec.removes {
				if _, live := s.removes[elem][r]; horizon.Contains(r) && !live {
					delete(rec.removes, r)
				}
			}
			for wid := range rec.wild {
				if _, live := s.wild[wid]; horizon.Contains(wid) && !live {
					delete(rec.wild, wid)
				}
			}
		}
	}
}

// checkRWSetScript plays a history of multi-op transactions (add, touch,
// remove, remove-where) at three replicas, delivered in causal and
// per-origin FIFO order, with stability rounds in between; choose makes
// every choice, and steps bounds its length. The cut-based set and the
// enumerating reference must agree on every element's membership at
// every replica after every local transaction, every delivery and every
// compaction, and every pattern read (ElemsWhere) must equal the members
// filtered by the pattern. Elements of arity 2 and 3 meet patterns that
// bind one position, the tournament's wipe shapes, a pattern that binds
// every position and an all-wildcard pattern of each arity. A replayed
// op older than one its origin already applied to the same target changes
// nothing, byte for byte.
func checkRWSetScript(t *testing.T, label string, steps int, choose func(n int) int) {
	t.Helper()
	type txn struct {
		origin      clock.ReplicaID
		deps        clock.Vector
		first, last uint64
		got         []Op  // as the cut-based origin built them
		want        []any // as the enumerating origin built them
	}
	sites := []clock.ReplicaID{"a", "b", "c"}
	elems := []string{
		JoinTuple("p1", "t1"), JoinTuple("p2", "t1"),
		JoinTuple("p1", "t2"), JoinTuple("p2", "t2"),
		JoinTuple("p1", "p2", "t1"), JoinTuple("p2", "p1", "t1"),
		JoinTuple("p1", "p2", "t2"),
	}
	preds := []MatchFields{
		MatchPattern("", "t1"), MatchPattern("p1", ""), MatchPattern("", "t2"), MatchPattern("", ""),
		MatchPattern("p1", "", "t1"), MatchPattern("", "p1", "t1"), MatchPattern("p1", "p2", "t1"),
		MatchPattern("", "", ""),
	}
	// target names what an op acts on, for finding same-origin successors.
	target := func(op Op) string {
		switch o := op.(type) {
		case RWAddOp:
			return "add " + o.Elem
		case RWRemoveOp:
			return "remove " + o.Elem
		case RWRemoveWhereOp:
			return fmt.Sprint("wild ", o.Pred)
		}
		return ""
	}
	got, want, vc := map[clock.ReplicaID]*RWSet{}, map[clock.ReplicaID]*listRWSet{}, map[clock.ReplicaID]*clock.Vector{}
	inbox := map[clock.ReplicaID][]txn{}
	// applied lists the ops each replica applied since it last
	// compacted, as applied (adds with their cuts).
	applied := map[clock.ReplicaID][]Op{}
	for _, r := range sites {
		got[r], want[r], vc[r] = NewRWSet(), newListRWSet(), &clock.Vector{}
	}
	compare := func(step int, what string, r clock.ReplicaID) {
		t.Helper()
		for _, e := range elems {
			if g, w := got[r].Contains(e), want[r].contains(e); g != w {
				t.Fatalf("%s step %d (%s) at %s: %q present=%v, enumerating reference says %v",
					label, step, what, r, e, g, w)
			}
		}
		members := got[r].Elems()
		for _, p := range preds {
			var filtered []string
			for _, e := range members {
				if p.Matches(e) {
					filtered = append(filtered, e)
				}
			}
			if g := got[r].ElemsWhere(p); fmt.Sprint(g) != fmt.Sprint(filtered) {
				t.Fatalf("%s step %d (%s) at %s: ElemsWhere(%v) = %q, members matching it are %q",
					label, step, what, r, p, g, filtered)
			}
		}
	}
	for step := 0; step < steps; step++ {
		r := sites[choose(len(sites))]
		switch k := choose(11); {
		case k == 10:
			// Replay an op older than one its origin has since applied
			// to the same target (as log replay does): it changes
			// nothing.
			var stale []Op
			later := map[string]bool{}
			for i := len(applied[r]) - 1; i >= 0; i-- {
				op := applied[r][i]
				key := string(op.ID().Replica) + " " + target(op)
				if later[key] {
					stale = append(stale, op)
				}
				later[key] = true
			}
			if len(stale) == 0 {
				continue
			}
			before, _ := AppendCRDTState(nil, got[r])
			got[r].Apply(stale[choose(len(stale))])
			if after, _ := AppendCRDTState(nil, got[r]); string(after) != string(before) {
				t.Fatalf("%s step %d at %s: replaying a superseded op changed the set", label, step, r)
			}
			compare(step, "replay", r)
		case k < 4:
			// Deliver one pending transaction at r, if causality allows.
			for i, m := range inbox[r] {
				if vc[r].Get(m.origin) != m.first || !m.deps.LEq(*vc[r]) {
					continue
				}
				for j := range m.got {
					op := m.got[j]
					if a, ok := op.(RWAddOp); ok {
						a.Deps = m.deps
						op = a
					}
					got[r].Apply(op)
					want[r].apply(m.want[j], m.deps)
					applied[r] = append(applied[r], op)
				}
				vc[r].Set(m.origin, m.last)
				inbox[r] = append(inbox[r][:i:i], inbox[r][i+1:]...)
				compare(step, "delivery", r)
				break
			}
		case k < 5:
			// A stability round: the horizon every replica has
			// delivered, fenced by each origin's commit count.
			horizon := clock.GLB(*vc["a"], *vc["b"], *vc["c"])
			frontier := clock.New()
			for _, o := range sites {
				frontier.Set(o, vc[o].Get(o))
			}
			for _, o := range sites {
				got[o].CompactWithFrontier(horizon, frontier)
				want[o].compactWithFrontier(horizon, frontier)
				applied[o] = nil
				compare(step, "compaction", o)
			}
		default:
			// A local transaction of one to three operations.
			m := txn{origin: r, deps: vc[r].Clone(), first: vc[r].Get(r)}
			for n := 1 + choose(3); n > 0; n-- {
				tag := clock.EventID{Replica: r, Seq: vc[r].Get(r) + 1}
				e := elems[choose(len(elems))]
				var g Op
				var w any
				switch choose(4) {
				case 0:
					op := got[r].PrepareAdd(e, fmt.Sprintf("pay%d", step), tag)
					g, w = op, want[r].prepareAdd(op)
				case 1:
					op := got[r].PrepareTouch(e, tag)
					g, w = op, want[r].prepareAdd(op)
				case 2:
					op := got[r].PrepareRemove(e, tag)
					g, w = op, op
				case 3:
					op := got[r].PrepareRemoveWhere(preds[choose(len(preds))], tag)
					g, w = op, op
				}
				// The origin applies each op as it is built, its add
				// stamped with the delivered cut (the own-origin entry
				// still excludes this transaction).
				local := g
				if a, ok := g.(RWAddOp); ok {
					a.Deps = m.deps.Clone()
					local = a
				}
				got[r].Apply(local)
				want[r].apply(w, nil)
				applied[r] = append(applied[r], local)
				m.got, m.want = append(m.got, g), append(m.want, w)
				vc[r].Set(r, tag.Seq)
			}
			// Commit-time deps: the origin's cut before this
			// transaction's own entry advanced.
			m.last = vc[r].Get(r)
			compare(step, "local transaction", r)
			for _, o := range sites {
				if o != r {
					inbox[o] = append(inbox[o], m)
				}
			}
		}
	}
}

func TestRWSetCutMatchesEnumeratedObservations(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkRWSetScript(t, fmt.Sprintf("seed %d", seed), 150, rng.Intn)
	}
}

// FuzzRWSetMatchesReference runs the same check on scripts the fuzzer
// writes: each byte is one choice (replica, step kind, op, element,
// pattern) of the history checkRWSetScript plays.
func FuzzRWSetMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x05\x01\x00\x00\x01\x06\x01\x02\x00\x05\x01\x03\x03\x04\x00\x00\x00\x04"))
	for seed := int64(0); seed < 4; seed++ {
		script := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(script)
		f.Add(script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		next := 0
		choose := func(n int) int {
			if next >= len(script) {
				return 0
			}
			next++
			return int(script[next-1]) % n
		}
		checkRWSetScript(t, "script", min(len(script), 400), choose)
	})
}

// The recovery-replay case the dependency cut exists for: a tombstone the
// mesh compacted away is re-applied (a crash-recovered replica replays it
// from its log). An add whose cut covers the tombstone happened after it
// and must survive it.
func TestRWSetReappliedTombstoneAfterCompaction(t *testing.T) {
	elem := JoinTuple("p1", "t1")
	rm := RWRemoveOp{Elem: elem, Tag: eid("b", 1)}
	wipe := RWRemoveWhereOp{Pred: MatchPattern("", "t1"), Tag: eid("b", 2)}
	add := RWAddOp{Elem: elem, Tag: eid("a", 1), Deps: clock.Of(map[clock.ReplicaID]uint64{"b": 2})}
	s := NewRWSet()
	s.Apply(rm)
	s.Apply(wipe)
	s.Apply(add)
	all := clock.Of(map[clock.ReplicaID]uint64{"a": 1, "b": 2})
	s.CompactWithFrontier(all, all) // fences and, the fence passed, discards both tombstones
	if n := s.MetadataSize(); n != 1 {
		t.Fatalf("metadata = %d after compaction, want the one add record", n)
	}
	s.Apply(rm)
	s.Apply(wipe)
	if !s.Contains(elem) {
		t.Fatal("a replayed tombstone inside the add's cut defeated the add")
	}
	// A tombstone outside the cut is concurrent with the add and still wins.
	s.Apply(RWRemoveWhereOp{Pred: MatchPattern("p1", ""), Tag: eid("c", 1)})
	if s.Contains(elem) {
		t.Fatal("a concurrent wildcard remove lost to the add")
	}
}
