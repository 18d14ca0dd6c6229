package crdt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ipa/internal/clock"
)

func TestPNCounter(t *testing.T) {
	g := newTagger()
	c := NewPNCounter()
	c.Apply(c.PrepareAdd(5, g.tag("a")))
	c.Apply(c.PrepareAdd(-2, g.tag("a")))
	if c.Value() != 3 {
		t.Fatalf("value = %d", c.Value())
	}
	if c.Increments() != 5 || c.Decrements() != 2 {
		t.Fatalf("incs=%d decs=%d", c.Increments(), c.Decrements())
	}
}

// Property: PN-counter ops commute in any order.
func TestPNCounterCommutes(t *testing.T) {
	f := func(deltas []int8, seed int64) bool {
		if len(deltas) > 12 {
			deltas = deltas[:12]
		}
		g := newTagger()
		ops := make([]Op, len(deltas))
		for i, d := range deltas {
			ops[i] = CounterOp{Delta: int64(d), Tag: g.tag("a")}
		}
		a, b := NewPNCounter(), NewPNCounter()
		for _, op := range ops {
			a.Apply(op)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, i := range rng.Perm(len(ops)) {
			b.Apply(ops[i])
		}
		return a.Value() == b.Value()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoundedCounterLocalRights(t *testing.T) {
	g := newTagger()
	c := NewBoundedCounter(map[clock.ReplicaID]int64{"a": 5, "b": 3})
	if c.Value() != 8 {
		t.Fatalf("value = %d", c.Value())
	}
	if c.Local("a") != 5 || c.Local("b") != 3 || c.Local("ghost") != 0 {
		t.Fatal("local rights wrong")
	}
	op, ok := c.PrepareConsume("a", 4, g.tag("a"))
	if !ok {
		t.Fatal("a should afford 4")
	}
	c.Apply(op)
	if c.Local("a") != 1 || c.Value() != 4 {
		t.Fatalf("after consume: local=%d value=%d", c.Local("a"), c.Value())
	}
	if _, ok := c.PrepareConsume("a", 2, g.tag("a")); ok {
		t.Fatal("a cannot consume beyond its rights")
	}
}

func TestBoundedCounterTransfer(t *testing.T) {
	g := newTagger()
	c := NewBoundedCounter(map[clock.ReplicaID]int64{"a": 5, "b": 0})
	if _, ok := c.PrepareConsume("b", 1, g.tag("b")); ok {
		t.Fatal("b has no rights yet")
	}
	tr, ok := c.PrepareTransfer("a", "b", 2, g.tag("a"))
	if !ok {
		t.Fatal("transfer should be possible")
	}
	c.Apply(tr)
	if c.Local("a") != 3 || c.Local("b") != 2 {
		t.Fatalf("after transfer: a=%d b=%d", c.Local("a"), c.Local("b"))
	}
	if c.Value() != 5 {
		t.Fatal("transfers must not change the value")
	}
	if _, ok := c.PrepareTransfer("b", "a", 99, g.tag("b")); ok {
		t.Fatal("cannot transfer more than held")
	}
}

func TestBoundedCounterGrant(t *testing.T) {
	g := newTagger()
	c := NewBoundedCounter(nil)
	c.Apply(c.PrepareGrant("a", 10, g.tag("a")))
	if c.Value() != 10 || c.Local("a") != 10 {
		t.Fatal("grant should add rights")
	}
}

// The escrow invariant: as long as every replica only consumes rights it
// holds locally, the global value never drops below zero, regardless of
// delivery interleaving.
func TestBoundedCounterEscrowInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	replicas := []clock.ReplicaID{"a", "b", "c"}
	for trial := 0; trial < 100; trial++ {
		g := newTagger()
		init := map[clock.ReplicaID]int64{"a": 4, "b": 4, "c": 4}
		// Each replica has its own view; ops queue for cross-delivery.
		views := map[clock.ReplicaID]*BoundedCounter{}
		for _, r := range replicas {
			views[r] = NewBoundedCounter(init)
		}
		var log []Op
		for step := 0; step < 30; step++ {
			r := replicas[rng.Intn(len(replicas))]
			v := views[r]
			switch rng.Intn(3) {
			case 0:
				if op, ok := v.PrepareConsume(r, 1+int64(rng.Intn(2)), g.tag(r)); ok {
					v.Apply(op)
					log = append(log, op)
				}
			case 1:
				to := replicas[rng.Intn(len(replicas))]
				if op, ok := v.PrepareTransfer(r, to, 1, g.tag(r)); ok && to != r {
					v.Apply(op)
					log = append(log, op)
				}
			case 2:
				// Deliver a random logged op to r (idempotence not modelled:
				// deliver-once via index tracking would need the store; here
				// we just rebuild converged state below).
			}
		}
		// Converged state: all ops applied once.
		final := NewBoundedCounter(init)
		for _, op := range log {
			final.Apply(op)
		}
		if final.Value() < 0 {
			t.Fatalf("trial %d: escrow invariant violated: %d", trial, final.Value())
		}
		for _, r := range replicas {
			if final.Local(r) < 0 {
				// Local rights can only go negative if a replica consumed
				// rights transferred away concurrently — our discipline
				// (consume/transfer only from the local view) prevents it.
				t.Fatalf("trial %d: local rights negative at %s", trial, r)
			}
		}
	}
}

func TestCountersIgnoreForeignOps(t *testing.T) {
	g := newTagger()
	c := NewPNCounter()
	c.Apply(AWAddOp{Elem: "x", Tag: g.tag("a")})
	if c.Value() != 0 {
		t.Fatal("foreign op must be ignored")
	}
	b := NewBoundedCounter(nil)
	b.Apply(CounterOp{Delta: 1, Tag: g.tag("a")})
	if b.Value() != 0 {
		t.Fatal("foreign op must be ignored")
	}
}
