package crdt

import (
	"fmt"
	"math/rand"
	"testing"

	"ipa/internal/clock"
)

func TestRWSetAddRemove(t *testing.T) {
	g := newTagger()
	s := NewRWSet()
	s.Apply(s.PrepareAdd("x", "pay", g.tag("a")))
	if !s.Contains("x") {
		t.Fatal("x should be present")
	}
	if p, ok := s.Payload("x"); !ok || p != "pay" {
		t.Fatalf("payload = %q", p)
	}
	s.Apply(s.PrepareRemove("x", g.tag("a")))
	if s.Contains("x") {
		t.Fatal("x should be removed")
	}
	// Re-add after remove (causally later): present again.
	s.Apply(s.PrepareAdd("x", "p2", g.tag("a")))
	if !s.Contains("x") {
		t.Fatal("causally later add must win")
	}
}

func TestRWSetRemoveWinsOverConcurrentAdd(t *testing.T) {
	g := newTagger()
	a, b := NewRWSet(), NewRWSet()
	seed := a.PrepareAdd("x", "", g.tag("a"))
	a.Apply(seed)
	b.Apply(seed)

	// Concurrent: a removes x, b re-adds x (b has not seen the remove).
	rm := a.PrepareRemove("x", g.tag("a"))
	add := b.PrepareAdd("x", "", g.tag("b"))
	a.Apply(rm)
	b.Apply(add)
	a.Apply(add)
	b.Apply(rm)

	if a.Contains("x") || b.Contains("x") {
		t.Fatal("remove must win over the concurrent add on both replicas")
	}
	if a.Size() != 0 || b.Size() != 0 {
		t.Fatal("size should be zero")
	}
}

func TestRWSetWildcardKillsConcurrentAdds(t *testing.T) {
	g := newTagger()
	a, b := NewRWSet(), NewRWSet()

	// Replica a removes every pair of tournament t1 (rem_tourn's extra
	// effect); concurrently replica b enrolls p2 in t1.
	seed := a.PrepareAdd(JoinTuple("p1", "t1"), "", g.tag("a"))
	a.Apply(seed)
	b.Apply(seed)

	wipe := a.PrepareRemoveWhere(MatchPattern("", "t1"), g.tag("a"))
	enroll := b.PrepareAdd(JoinTuple("p2", "t1"), "", g.tag("b"))
	a.Apply(wipe)
	b.Apply(enroll)
	a.Apply(enroll)
	b.Apply(wipe)

	for name, s := range map[string]*RWSet{"a": a, "b": b} {
		if s.Contains(JoinTuple("p1", "t1")) {
			t.Fatalf("%s: observed pair should be wiped", name)
		}
		if s.Contains(JoinTuple("p2", "t1")) {
			t.Fatalf("%s: concurrent enroll must lose to the wildcard remove", name)
		}
	}
}

func TestRWSetAddAfterWildcardSurvives(t *testing.T) {
	g := newTagger()
	s := NewRWSet()
	s.Apply(s.PrepareRemoveWhere(MatchPattern("", "t1"), g.tag("a")))
	// This add observes the wildcard tombstone, so it survives.
	s.Apply(s.PrepareAdd(JoinTuple("p1", "t1"), "", g.tag("a")))
	if !s.Contains(JoinTuple("p1", "t1")) {
		t.Fatal("causally later add must survive the wildcard")
	}
}

func TestRWSetTouch(t *testing.T) {
	g := newTagger()
	s := NewRWSet()
	s.Apply(s.PrepareAdd("u", "payload", g.tag("a")))
	s.Apply(s.PrepareTouch("u", g.tag("a")))
	if p, ok := s.Payload("u"); !ok || p != "payload" {
		t.Fatalf("touch must keep payload, got %q, %v", p, ok)
	}
}

func TestRWSetElems(t *testing.T) {
	g := newTagger()
	s := NewRWSet()
	s.Apply(s.PrepareAdd("b", "", g.tag("a")))
	s.Apply(s.PrepareAdd("a", "", g.tag("a")))
	s.Apply(s.PrepareAdd("c", "", g.tag("a")))
	s.Apply(s.PrepareRemove("b", g.tag("a")))
	got := s.Elems()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("Elems = %v", got)
	}
	if s.Size() != 2 {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestRWSetCompact(t *testing.T) {
	g := newTagger()
	a, b := NewRWSet(), NewRWSet()
	seed := a.PrepareAdd("x", "", g.tag("a"))
	a.Apply(seed)
	b.Apply(seed)
	rm := a.PrepareRemove("x", g.tag("a"))
	add := b.PrepareAdd("x", "", g.tag("b"))
	for _, s := range []*RWSet{a, b} {
		s.Apply(rm)
		s.Apply(add)
	}
	if a.Contains("x") {
		t.Fatal("remove wins pre-compaction")
	}
	// Everything delivered everywhere: compact.
	horizon := clock.Of(map[clock.ReplicaID]uint64{"a": 2, "b": 1})
	a.Compact(horizon)
	if a.Contains("x") {
		t.Fatal("presence must be preserved by compaction")
	}
	if len(a.adds) != 0 || len(a.removes) != 0 || len(a.wild) != 0 {
		t.Fatalf("metadata not compacted: adds=%d removes=%d wild=%d", len(a.adds), len(a.removes), len(a.wild))
	}

	// Surviving element: metadata trimmed but membership kept.
	s := NewRWSet()
	s.Apply(s.PrepareAdd("y", "pay", g.tag("a")))
	rm2 := s.PrepareRemove("y", g.tag("a"))
	s.Apply(rm2)
	s.Apply(s.PrepareAdd("y", "pay", g.tag("a"))) // observes rm2
	s.Compact(clock.Of(map[clock.ReplicaID]uint64{"a": 99}))
	if !s.Contains("y") {
		t.Fatal("survivor lost by compaction")
	}
	if len(s.removes) != 0 {
		t.Fatal("stable tombstones should be gone")
	}
}

func TestRWSetWildcardCompact(t *testing.T) {
	g := newTagger()
	s := NewRWSet()
	s.Apply(s.PrepareAdd(JoinTuple("p1", "t1"), "", g.tag("a")))
	s.Apply(s.PrepareRemoveWhere(MatchPattern("", "t1"), g.tag("a")))
	s.Compact(clock.Of(map[clock.ReplicaID]uint64{"a": 99}))
	if len(s.wild) != 0 {
		t.Fatal("stable wildcard tombstone should be dropped")
	}
	if s.Contains(JoinTuple("p1", "t1")) {
		t.Fatal("wiped element must stay absent after compaction")
	}
}

// Concurrent RWSet ops commute.
func TestRWSetConcurrentOpsCommute(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	elems := []string{JoinTuple("p1", "t1"), JoinTuple("p2", "t1"), JoinTuple("p1", "t2")}
	for trial := 0; trial < 200; trial++ {
		g := newTagger()
		base := NewRWSet()
		var seed []Op
		for _, e := range elems {
			if rng.Intn(2) == 0 {
				op := base.PrepareAdd(e, "", g.tag("seed"))
				base.Apply(op)
				seed = append(seed, op)
			}
		}
		var ops []Op
		for i := 0; i < 4; i++ {
			r := clock.ReplicaID(rune('a' + i))
			e := elems[rng.Intn(len(elems))]
			switch rng.Intn(4) {
			case 0:
				ops = append(ops, base.PrepareAdd(e, "", g.tag(r)))
			case 1:
				ops = append(ops, base.PrepareRemove(e, g.tag(r)))
			case 2:
				ops = append(ops, base.PrepareTouch(e, g.tag(r)))
			case 3:
				ops = append(ops, base.PrepareRemoveWhere(MatchPattern("", "t1"), g.tag(r)))
			}
		}
		apply := func(order []int) []string {
			s := NewRWSet()
			for _, op := range seed {
				s.Apply(op)
			}
			for _, i := range order {
				s.Apply(ops[i])
			}
			return s.Elems()
		}
		ref := apply([]int{0, 1, 2, 3})
		got := apply(rng.Perm(len(ops)))
		if len(ref) != len(got) {
			t.Fatalf("trial %d: diverged: %v vs %v", trial, ref, got)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("trial %d: diverged: %v vs %v", trial, ref, got)
			}
		}
	}
}

// TestRWSetCompactionHoldsTombstoneForInFlightAdd is the regression test
// for a convergence bug the chaos harness found: a remove-wins tombstone
// was discarded as soon as it fell below the stability horizon, but an
// add *concurrent* with the tombstone can still be in flight behind a
// slow link — stability of the tombstone only proves the tombstone itself
// reached every replica. A replica that forgot the tombstone resurrected
// the element on the late add's arrival while the others kept it dead.
// With fencing, the tombstone survives until the horizon also dominates
// everything that can be concurrent with it.
func TestRWSetCompactionHoldsTombstoneForInFlightAdd(t *testing.T) {
	elem := JoinTuple("p1", "t1")
	wild := NewRWSet().PrepareRemoveWhere(MatchPattern("", "t1"), clock.EventID{Replica: "b", Seq: 1})
	// The concurrent add: prepared against a state that has not seen the
	// wildcard remove (so it observes nothing).
	add := NewRWSet().PrepareAdd(elem, "", clock.EventID{Replica: "x", Seq: 1})

	// Replica P sees both ops before compacting.
	p := NewRWSet()
	p.Apply(add)
	p.Apply(wild)

	// Replica Q sees only the remove, then compacts while the add is in
	// flight. The horizon covers the remove (it is everywhere); the
	// frontier records that origin x had already committed seq 1 — the
	// add exists and can be concurrent, so the tombstone must survive.
	q := NewRWSet()
	q.Apply(wild)
	horizon := clock.Of(map[clock.ReplicaID]uint64{"b": 1})
	frontier := clock.Of(map[clock.ReplicaID]uint64{"b": 1, "x": 1})
	q.CompactWithFrontier(horizon, frontier)

	// The late add arrives: remove-wins must still defeat it.
	q.Apply(add)
	if q.Contains(elem) {
		t.Fatal("tombstone was discarded while a concurrent add was in flight; element resurrected")
	}
	if p.Contains(elem) {
		t.Fatal("remove-wins lost against a concurrent add")
	}

	// Once the horizon dominates the fence, the tombstone (and the dead
	// add) compact away for good — and presence stays identical.
	final := clock.Of(map[clock.ReplicaID]uint64{"b": 1, "x": 1})
	p.CompactWithFrontier(final, final)
	q.CompactWithFrontier(final, final)
	if p.Contains(elem) || q.Contains(elem) {
		t.Fatal("compaction changed the presence decision")
	}
	if p.MetadataSize() != 0 || q.MetadataSize() != 0 {
		t.Fatalf("metadata not fully compacted: p=%d q=%d", p.MetadataSize(), q.MetadataSize())
	}
}

// TestRWSetExactRemoveFencing covers the same scenario for exact (non-
// wildcard) removes.
func TestRWSetExactRemoveFencing(t *testing.T) {
	rm := NewRWSet().PrepareRemove("x", clock.EventID{Replica: "b", Seq: 1})
	add := NewRWSet().PrepareAdd("x", "", clock.EventID{Replica: "a", Seq: 1})

	q := NewRWSet()
	q.Apply(rm)
	q.CompactWithFrontier(clock.Of(map[clock.ReplicaID]uint64{"b": 1}), clock.Of(map[clock.ReplicaID]uint64{"b": 1, "a": 1}))
	q.Apply(add)
	if q.Contains("x") {
		t.Fatal("exact tombstone discarded while a concurrent add was in flight")
	}
	final := clock.Of(map[clock.ReplicaID]uint64{"a": 1, "b": 1})
	q.CompactWithFrontier(final, final)
	if q.Contains("x") || q.MetadataSize() != 0 {
		t.Fatalf("final compaction wrong: contains=%v meta=%d", q.Contains("x"), q.MetadataSize())
	}
}

// BenchmarkRWSetContains times a membership check of an element that n
// wildcard tombstones of the element's own shapes do not match (the
// tournament's (p,*,t) and (*,p,t) wipes of other players): the pattern
// index looks up only the tombstones that match, so ns/op stays flat as n
// grows.
func BenchmarkRWSetContains(b *testing.B) {
	for _, n := range []int{10, 1000, 10000} {
		b.Run(fmt.Sprintf("wild=%d", n), func(b *testing.B) {
			s := NewRWSet()
			elem := JoinTuple("p1", "p2", "t1")
			for i := 0; i < n; i++ {
				p := fmt.Sprintf("q%d", i)
				pred := MatchPattern(p, "", "t1")
				if i%2 == 1 {
					pred = MatchPattern("", p, "t1")
				}
				s.Apply(s.PrepareRemoveWhere(pred, clock.EventID{Replica: "b", Seq: uint64(i + 1)}))
			}
			s.Apply(RWAddOp{Elem: elem, Tag: clock.EventID{Replica: "a", Seq: 1}, Deps: clock.Vector{}})
			for b.Loop() {
				if !s.Contains(elem) {
					b.Fatal("element lost")
				}
			}
		})
	}
}

// TestRWSetElemsWhereAllocs pins that a read by pattern looks its bound
// values up without building a key string: once the read index is built,
// a read allocates only the slice it returns.
func TestRWSetElemsWhereAllocs(t *testing.T) {
	g := newTagger()
	s := NewRWSet()
	for _, e := range []string{JoinTuple("p1", "t1"), JoinTuple("p2", "t1"), JoinTuple("p1", "t2")} {
		s.Apply(s.PrepareAdd(e, "", g.tag("a")))
	}
	one := MatchFields{Fields: []string{"", "t2"}}
	none := MatchFields{Fields: []string{"", "t3"}}
	if got := s.ElemsWhere(one); len(got) != 1 {
		t.Fatalf("ElemsWhere(%v) = %v, want one element", one, got)
	}
	for pat, want := range map[*MatchFields]float64{&one: 1, &none: 0} {
		if got := testing.AllocsPerRun(100, func() { s.ElemsWhere(*pat) }); got != want {
			t.Errorf("ElemsWhere(%v) made %.0f allocations, want %.0f", *pat, got, want)
		}
	}
}
