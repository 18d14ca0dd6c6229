package clock

import (
	"testing"
	"testing/quick"
)

func TestTickAndContains(t *testing.T) {
	v := New()
	e1 := v.Tick("a")
	if e1.Replica != "a" || e1.Seq != 1 {
		t.Fatalf("first tick = %v, want a:1", e1)
	}
	e2 := v.Tick("a")
	if e2.Seq != 2 {
		t.Fatalf("second tick seq = %d, want 2", e2.Seq)
	}
	if !v.Contains(e1) || !v.Contains(e2) {
		t.Fatal("vector should contain its own events")
	}
	if v.Contains(EventID{"a", 3}) {
		t.Fatal("vector should not contain future events")
	}
	if v.Contains(EventID{"b", 1}) {
		t.Fatal("vector should not contain events from unseen replicas")
	}
}

func TestPartialOrder(t *testing.T) {
	a := Vector{{"r1", 2}, {"r2", 1}}
	b := Vector{{"r1", 3}, {"r2", 1}}
	c := Vector{{"r1", 1}, {"r2", 5}}

	if !a.LEq(b) || b.LEq(a) {
		t.Fatal("a < b expected")
	}
	if !a.Before(b) {
		t.Fatal("a.Before(b) expected")
	}
	if !b.Concurrent(c) || !c.Concurrent(b) {
		t.Fatal("b || c expected")
	}
	if a.Concurrent(a.Clone()) {
		t.Fatal("a not concurrent with itself")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone should be equal")
	}
}

func TestZeroValueIsBottom(t *testing.T) {
	var zero Vector
	a := Vector{{"r1", 1}}
	if !zero.LEq(a) {
		t.Fatal("zero clock must be below everything")
	}
	if !zero.LEq(Vector{}) || !(Vector{}).LEq(zero) {
		t.Fatal("zero and empty must be equal")
	}
}

func TestMergeIsLUB(t *testing.T) {
	a := Vector{{"r1", 2}, {"r2", 1}}
	b := Vector{{"r1", 1}, {"r3", 4}}
	m := a.Clone()
	m.Merge(b)
	if !a.LEq(m) || !b.LEq(m) {
		t.Fatal("merge must dominate both inputs")
	}
	want := Vector{{"r1", 2}, {"r2", 1}, {"r3", 4}}
	if !m.Equal(want) {
		t.Fatalf("merge = %v, want %v", m, want)
	}
}

func TestGLB(t *testing.T) {
	a := Vector{{"r1", 5}, {"r2", 3}}
	b := Vector{{"r1", 2}, {"r2", 7}}
	g := GLB(a, b)
	if !g.Equal(Vector{{"r1", 2}, {"r2", 3}}) {
		t.Fatalf("GLB = %v", g)
	}
	// A replica absent from one vector clamps to zero.
	c := Vector{{"r1", 9}}
	g2 := GLB(a, c)
	if g2.Get("r2") != 0 {
		t.Fatalf("GLB with missing replica = %v, want r2 absent", g2)
	}
	if !GLB().Equal(Vector{}) {
		t.Fatal("GLB of nothing is bottom")
	}
}

// TestStabilityHorizon checks the stability round: the horizon is the
// GLB of the members' cuts, and the frontier holds each member's own
// entry and nothing else.
func TestStabilityHorizon(t *testing.T) {
	members := []ReplicaID{"b", "a"}
	cuts := []Vector{{{"a", 3}, {"b", 4}}, {{"a", 5}, {"b", 2}}}
	h, frontier := Horizon(members, cuts)
	if !h.Equal(Vector{{"a", 3}, {"b", 2}}) {
		t.Fatalf("horizon = %v, want {a:3 b:2}", h)
	}
	if !frontier.Equal(Vector{{"a", 5}, {"b", 4}}) {
		t.Fatalf("frontier = %v, want {a:5 b:4}", frontier)
	}
	// A member whose cut is frozen (crashed at b:2) holds the horizon
	// there however far the others advance; its frontier entry is its own
	// frozen entry, whatever the others have seen of it.
	frozen := Vector{{"a", 5}, {"b", 2}, {"c", 1}}
	h, frontier = Horizon([]ReplicaID{"a", "b", "c"},
		[]Vector{{{"a", 9}, {"b", 9}, {"c", 9}}, frozen, {{"a", 9}, {"b", 9}, {"c", 9}}})
	if !h.Equal(frozen) {
		t.Fatalf("horizon with a frozen member = %v, want %v", h, frozen)
	}
	if !frontier.Equal(Vector{{"a", 9}, {"b", 2}, {"c", 9}}) {
		t.Fatalf("frontier with a frozen member = %v, want {a:9 b:2 c:9}", frontier)
	}
}

// TestStabilityUnknownReplica: a member that another member's cut does
// not know yet (a site that just joined) pins its own horizon entry at
// zero; its frontier entry is its own commit count.
func TestStabilityUnknownReplica(t *testing.T) {
	h, frontier := Horizon([]ReplicaID{"a", "j"}, []Vector{{{"a", 3}}, {{"a", 3}, {"j", 2}}})
	if !h.Equal(Vector{{"a", 3}}) || h.Get("j") != 0 {
		t.Fatalf("horizon = %v, want {a:3} with the joiner at 0", h)
	}
	if !frontier.Equal(Vector{{"a", 3}, {"j", 2}}) {
		t.Fatalf("frontier = %v, want {a:3 j:2}", frontier)
	}
	// A member with no history at all pins every entry at zero.
	if h, _ := Horizon([]ReplicaID{"a", "j"}, []Vector{{{"a", 3}}, New()}); h.Get("a") != 0 {
		t.Fatalf("new member with empty history should pin horizon at 0, got %v", h)
	}
}

func TestEventIDOrdering(t *testing.T) {
	a := EventID{"r1", 1}
	b := EventID{"r1", 2}
	c := EventID{"r2", 1}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("seq ordering broken")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("replica ordering broken")
	}
	if a.Less(a) {
		t.Fatal("irreflexive")
	}
}

func TestString(t *testing.T) {
	v := Of(map[ReplicaID]uint64{"b": 2, "ab": 0, "a": 1})
	if got := v.String(); got != "{a:1 ab:0 b:2}" {
		t.Fatalf("String() = %q", got)
	}
	e := EventID{"x", 7}
	if e.String() != "x:7" {
		t.Fatalf("EventID.String() = %q", e.String())
	}
}

// Property: merge is commutative, associative, idempotent (join-semilattice).
func TestQuickMergeSemilattice(t *testing.T) {
	type gen struct{ A, B, C map[string]uint8 }
	toVec := func(m map[string]uint8) Vector {
		v := New()
		for k, n := range m {
			if len(k) > 0 {
				v.Set(ReplicaID(k[:1]), uint64(n))
			}
		}
		return v
	}
	f := func(g gen) bool {
		a, b, c := toVec(g.A), toVec(g.B), toVec(g.C)

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}

		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false
		}

		aa := a.Clone()
		aa.Merge(a)
		return aa.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: LEq is antisymmetric and Merge is the least upper bound.
func TestQuickMergeIsLUB(t *testing.T) {
	toVec := func(m map[string]uint8) Vector {
		v := New()
		for k, n := range m {
			if len(k) > 0 {
				v.Set(ReplicaID(k[:1]), uint64(n))
			}
		}
		return v
	}
	f := func(am, bm, cm map[string]uint8) bool {
		a, b, c := toVec(am), toVec(bm), toVec(cm)
		m := a.Clone()
		m.Merge(b)
		// upper bound
		if !a.LEq(m) || !b.LEq(m) {
			return false
		}
		// least: any other upper bound dominates m
		if a.LEq(c) && b.LEq(c) && !m.LEq(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
