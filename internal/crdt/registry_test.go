package crdt

import (
	"testing"

	"ipa/internal/clock"
)

func tag(seq uint64) clock.EventID { return clock.EventID{Replica: "r", Seq: seq} }

func TestRegistryNewForOp(t *testing.T) {
	cases := []struct {
		op   Op
		kind string
	}{
		{NewAWSet().PrepareAdd("x", "", tag(1)), KindAWSet},
		{NewAWSet().PrepareRemove("x", tag(2)), KindAWSet},
		{NewRWSet().PrepareAdd("x", "", tag(3)), KindRWSet},
		{NewRWSet().PrepareRemove("x", tag(4)), KindRWSet},
		{NewRWSet().PrepareRemoveWhere(MatchPattern("", ""), tag(5)), KindRWSet},
		{NewPNCounter().PrepareAdd(1, tag(6)), KindPNCounter},
	}
	for _, c := range cases {
		kind, ok := KindForOp(c.op)
		if !ok || kind != c.kind {
			t.Errorf("KindForOp(%T) = %q/%v, want %q", c.op, kind, ok, c.kind)
		}
		obj := NewForOp(c.op)
		if obj.Type() != c.kind {
			t.Errorf("NewForOp(%T).Type() = %q, want %q", c.op, obj.Type(), c.kind)
		}
		// The created object must actually integrate the op.
		obj.Apply(c.op)
	}
}

func TestRegistryCompSetOpsRouteToAWSet(t *testing.T) {
	// Compensation sets replicate plain AWSet ops; a replica without the
	// seeded object materialises an AWSet (which is why seeding the bound
	// everywhere is mandatory — see store.SeedCompSet).
	cs := NewCompSet(3)
	op := cs.PrepareAdd("e", "", tag(1))
	kind, ok := KindForOp(op)
	if !ok || kind != KindAWSet {
		t.Fatalf("comp-set add routes to %q/%v, want %q", kind, ok, KindAWSet)
	}
}

func TestRegistryCtor(t *testing.T) {
	for _, kind := range []string{KindAWSet, KindRWSet, KindPNCounter, KindBoundedCounter} {
		obj := Ctor(kind)()
		if obj.Type() != kind {
			t.Errorf("Ctor(%q)().Type() = %q", kind, obj.Type())
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ctor of an unregistered kind should panic")
		}
	}()
	Ctor("no-such-kind")
}
