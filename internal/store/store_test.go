package store

import (
	"fmt"
	"testing"

	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/wan"
)

func newTestCluster(seed int64) (*wan.Sim, *Cluster) {
	sim := wan.NewSim(seed)
	lat := wan.PaperTopology()
	ids := []clock.ReplicaID{wan.USEast, wan.USWest, wan.EUWest}
	return sim, NewCluster(sim, lat, ids)
}

func TestCommitReplicatesEverywhere(t *testing.T) {
	sim, c := newTestCluster(1)
	east := c.Replica(wan.USEast)

	tx := east.Begin()
	AWSetAt(tx, "players").Add("alice", "profile")
	tx.Commit()
	if c.TxnsCommitted != 1 {
		t.Fatal("commit not counted")
	}

	// Before the WAN delay, remote replicas have not seen it.
	west := c.Replica(wan.USWest)
	wtx := west.Begin()
	if AWSetAt(wtx, "players").Contains("alice") {
		t.Fatal("update visible remotely before replication delay")
	}
	wtx.Commit()

	sim.Run()
	for _, id := range c.Replicas() {
		tx := c.Replica(id).Begin()
		set := AWSetAt(tx, "players")
		if !set.Contains("alice") {
			t.Fatalf("replica %s missing update", id)
		}
		if p, _ := set.Payload("alice"); p != "profile" {
			t.Fatalf("replica %s payload = %q", id, p)
		}
		tx.Commit()
	}
}

func TestTransactionAtomicity(t *testing.T) {
	sim, c := newTestCluster(2)
	east := c.Replica(wan.USEast)

	tx := east.Begin()
	AWSetAt(tx, "players").Add("p1", "")
	AWSetAt(tx, "tournaments").Add("t1", "")
	AWSetAt(tx, "enrolled").Add(crdt.JoinTuple("p1", "t1"), "")
	tx.Commit()

	sim.Run()
	for _, id := range c.Replicas() {
		r := c.Replica(id)
		tx := r.Begin()
		a := AWSetAt(tx, "players").Contains("p1")
		b := AWSetAt(tx, "tournaments").Contains("t1")
		cc := AWSetAt(tx, "enrolled").Contains(crdt.JoinTuple("p1", "t1"))
		if !a || !b || !cc {
			t.Fatalf("replica %s saw partial transaction: %v %v %v", id, a, b, cc)
		}
		tx.Commit()
	}
}

func TestCausalDelivery(t *testing.T) {
	sim, c := newTestCluster(3)
	east := c.Replica(wan.USEast)
	west := c.Replica(wan.USWest)

	// east writes A; west reads A (after replication) then writes B that
	// causally depends on A. eu-west must never apply B before A.
	tx := east.Begin()
	AWSetAt(tx, "s").Add("A", "")
	tx.Commit()
	sim.RunUntil(wan.Ms(100)) // A reached west

	wtx := west.Begin()
	if !AWSetAt(wtx, "s").Contains("A") {
		t.Fatal("west should have A by now")
	}
	AWSetAt(wtx, "s").Add("B", "")
	wtx.Commit()

	// B travels west->eu (80ms one-way) arriving ~180; A went east->eu
	// (40ms) arriving ~40. Delivery order is fine here; the causal queue
	// is exercised by the partition test below. Still: eventually both.
	sim.Run()
	eu := c.Replica(wan.EUWest)
	tx2 := eu.Begin()
	if !AWSetAt(tx2, "s").Contains("A") || !AWSetAt(tx2, "s").Contains("B") {
		t.Fatal("eu-west missing updates")
	}
	tx2.Commit()
}

func TestCausalQueueHoldsDependentTxn(t *testing.T) {
	sim, c := newTestCluster(4)
	east := c.Replica(wan.USEast)
	west := c.Replica(wan.USWest)
	eu := c.Replica(wan.EUWest)

	// Partition east<->eu so A (from east) cannot reach eu.
	c.SetPartitioned(wan.USEast, wan.EUWest, true)

	tx := east.Begin()
	AWSetAt(tx, "s").Add("A", "")
	tx.Commit()
	sim.RunUntil(wan.Ms(60)) // A reached west only

	wtx := west.Begin()
	if !AWSetAt(wtx, "s").Contains("A") {
		t.Fatal("west should have A")
	}
	AWSetAt(wtx, "s").Add("B", "")
	wtx.Commit()

	// B arrives at eu (~80ms) but depends on A, which is partitioned away:
	// it must wait in the causal queue.
	sim.RunUntil(wan.Ms(400))
	etx := eu.Begin()
	if AWSetAt(etx, "s").Contains("B") {
		t.Fatal("B delivered before its dependency A")
	}
	etx.Commit()
	if eu.Buffered() == 0 {
		t.Fatal("B should be queued at eu")
	}

	// Heal: A flushes, then B applies.
	c.SetPartitioned(wan.USEast, wan.EUWest, false)
	sim.Run()
	ftx := eu.Begin()
	if !AWSetAt(ftx, "s").Contains("A") || !AWSetAt(ftx, "s").Contains("B") {
		t.Fatal("updates lost after heal")
	}
	ftx.Commit()
	if eu.Buffered() != 0 {
		t.Fatal("queue should be drained")
	}
}

func TestConcurrentAddWins(t *testing.T) {
	sim, c := newTestCluster(5)
	east := c.Replica(wan.USEast)
	west := c.Replica(wan.USWest)

	// Seed: tournament exists everywhere.
	tx := east.Begin()
	AWSetAt(tx, "tournaments").Add("t1", "info")
	tx.Commit()
	sim.Run()

	// Concurrent: east removes t1; west touches it (IPA's enroll repair).
	rtx := east.Begin()
	AWSetAt(rtx, "tournaments").Remove("t1")
	rtx.Commit()
	wtx := west.Begin()
	AWSetAt(wtx, "tournaments").Touch("t1")
	wtx.Commit()
	sim.Run()

	for _, id := range c.Replicas() {
		tx := c.Replica(id).Begin()
		set := AWSetAt(tx, "tournaments")
		if !set.Contains("t1") {
			t.Fatalf("replica %s: touch must win over concurrent remove", id)
		}
		if p, _ := set.Payload("t1"); p != "info" {
			t.Fatalf("replica %s: payload lost: %q", id, p)
		}
		tx.Commit()
	}
}

func TestConvergenceAcrossReplicas(t *testing.T) {
	sim, c := newTestCluster(6)
	// Random-ish workload from all three replicas, then settle.
	for i := 0; i < 30; i++ {
		id := c.Replicas()[i%3]
		tx := c.Replica(id).Begin()
		set := RWSetAt(tx, "rw")
		if i%5 == 4 {
			set.Remove("x")
		} else {
			set.Add("x", "")
		}
		CounterAt(tx, "cnt").Add(int64(i))
		tx.Commit()
		sim.RunUntil(sim.Now() + wan.Ms(7))
	}
	sim.Run()
	var want []string
	var wantCnt int64
	for i, id := range c.Replicas() {
		tx := c.Replica(id).Begin()
		got := RWSetAt(tx, "rw").Elems()
		cnt := CounterAt(tx, "cnt").Value()
		tx.Commit()
		if i == 0 {
			want, wantCnt = got, cnt
			continue
		}
		if len(got) != len(want) || cnt != wantCnt {
			t.Fatalf("replica %s diverged: %v/%d vs %v/%d", id, got, cnt, want, wantCnt)
		}
	}
}

func TestStabilizeCompacts(t *testing.T) {
	sim, c := newTestCluster(7)
	east := c.Replica(wan.USEast)
	tx := east.Begin()
	RWSetAt(tx, "rw").Add("x", "")
	tx.Commit()
	tx2 := east.Begin()
	RWSetAt(tx2, "rw").Remove("x")
	tx2.Commit()
	sim.Run()
	h := c.Stabilize()
	if h.Get(wan.USEast) == 0 {
		t.Fatalf("horizon should cover east's events: %v", h)
	}
	// After compaction the tombstones are gone but absence is preserved.
	tx3 := east.Begin()
	if RWSetAt(tx3, "rw").Contains("x") {
		t.Fatal("x should stay removed after compaction")
	}
	tx3.Commit()
}

// Within one transaction, a touch after a wildcard remove observed it
// (per-origin order) and survives, while a touch before one did not and
// dies — at the origin, which stamps its delivered cut, and at the
// receivers, which stamp the transaction's deps, alike.
func TestRWSetOrderWithinTransaction(t *testing.T) {
	sim, c := newTestCluster(9)
	east := c.Replica(wan.USEast)
	kept, lost := crdt.JoinTuple("p1", "t1"), crdt.JoinTuple("p1", "t2")
	tx := east.Begin()
	RWSetAt(tx, "rw").Add(kept, "")
	RWSetAt(tx, "rw").Add(lost, "")
	tx.Commit()
	sim.Run()

	tx = east.Begin()
	rw := RWSetAt(tx, "rw")
	rw.RemoveWhere(crdt.MatchPattern("", "t1"))
	rw.Touch(kept)
	rw.Touch(lost)
	rw.RemoveWhere(crdt.MatchPattern("", "t2"))
	tx.Commit()
	digest := func(r *Replica) string {
		tx := r.Begin()
		defer tx.Commit()
		return fmt.Sprint(RWSetAt(tx, "rw").Elems())
	}
	want := fmt.Sprint([]string{kept})
	if got := digest(east); got != want {
		t.Fatalf("origin holds %s, want %s", got, want)
	}
	sim.Run()
	for _, id := range c.Replicas() {
		if got := digest(c.Replica(id)); got != want {
			t.Fatalf("%s holds %s, want %s as at the origin", id, got, want)
		}
	}
}

// An add's cost does not depend on how many tombstones its set holds: it
// replicates the same bytes as an add to a set without any, and it adds
// one record to the set and nothing else.
func TestRWAddCostIndependentOfTombstones(t *testing.T) {
	const tombstones = 1000
	addFrame := func(wipedKey string) (frame []byte, before, after int) {
		c := NewSocketCluster("a")
		var last WireTxn
		c.SetOnCommit(func(w WireTxn) { last = w })
		r := c.Replica("a")
		for i := 0; i < tombstones; i++ {
			tx := r.Begin()
			RWSetAt(tx, wipedKey).RemoveWhere(crdt.MatchPattern("", fmt.Sprint("t", i)))
			tx.Commit()
		}
		set := r.Object("rw", crdt.Ctor(crdt.KindRWSet)).(*crdt.RWSet)
		before = set.MetadataSize()
		tx := r.Begin()
		RWSetAt(tx, "rw").Add(crdt.JoinTuple("p1", "t0"), "")
		tx.Commit()
		frame, err := EncodeBatchV2([]WireTxn{last})
		if err != nil {
			t.Fatal(err)
		}
		return frame, before, set.MetadataSize()
	}
	wiped, before, after := addFrame("rw")
	clean, _, _ := addFrame("other")
	if len(wiped) != len(clean) {
		t.Fatalf("add to a set with %d wildcard tombstones encodes to %d bytes, to a set with none %d", tombstones, len(wiped), len(clean))
	}
	if before != tombstones || after != before+1 {
		t.Fatalf("set metadata %d → %d across one add, want %d → %d", before, after, tombstones, tombstones+1)
	}
}

func TestLWWRegisterThroughStore(t *testing.T) {
	sim, c := newTestCluster(8)
	east := c.Replica(wan.USEast)
	west := c.Replica(wan.USWest)
	tx := east.Begin()
	RegisterAt(tx, "name").Set("v-east")
	tx.Commit()
	tx2 := west.Begin()
	RegisterAt(tx2, "name").Set("v-west")
	tx2.Commit()
	sim.Run()
	var vals []string
	for _, id := range c.Replicas() {
		tx := c.Replica(id).Begin()
		v, ok := RegisterAt(tx, "name").Value()
		tx.Commit()
		if !ok {
			t.Fatalf("replica %s: register unset", id)
		}
		vals = append(vals, v)
	}
	if vals[0] != vals[1] || vals[1] != vals[2] {
		t.Fatalf("LWW diverged: %v", vals)
	}
}

func TestCompSetThroughStore(t *testing.T) {
	sim, c := newTestCluster(9)
	for _, id := range c.Replicas() {
		SeedCompSet(c.Replica(id), "event1", 1)
	}
	// Two replicas concurrently sell the last ticket.
	tx := c.Replica(wan.USEast).Begin()
	CompSetAt(tx, "event1").Add("buyer-east", "")
	tx.Commit()
	tx2 := c.Replica(wan.USWest).Begin()
	CompSetAt(tx2, "event1").Add("buyer-west", "")
	tx2.Commit()
	sim.Run()

	// Every replica observes the overshoot; reading compensates.
	rtx := c.Replica(wan.EUWest).Begin()
	ref := CompSetAt(rtx, "event1")
	if !ref.Violating() {
		t.Fatal("oversell should be observable")
	}
	elems := ref.Read()
	rtx.Commit()
	if len(elems) != 1 {
		t.Fatalf("compensated view = %v", elems)
	}
	sim.Run()
	// The compensation replicated: all replicas converge to one ticket.
	for _, id := range c.Replicas() {
		tx := c.Replica(id).Begin()
		ref := CompSetAt(tx, "event1")
		if ref.SizeObserved() != 1 {
			t.Fatalf("replica %s size = %d", id, ref.SizeObserved())
		}
		tx.Commit()
	}
}

func TestTxnMisuse(t *testing.T) {
	_, c := newTestCluster(10)
	east := c.Replica(wan.USEast)
	tx := east.Begin()
	tx.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("double commit must panic")
		}
	}()
	tx.Commit()
}

func TestTypeMismatchPanics(t *testing.T) {
	_, c := newTestCluster(11)
	east := c.Replica(wan.USEast)
	tx := east.Begin()
	AWSetAt(tx, "obj").Add("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch must panic")
		}
	}()
	CounterAt(tx, "obj").Add(1)
}

func TestMessagesCounted(t *testing.T) {
	sim, c := newTestCluster(12)
	tx := c.Replica(wan.USEast).Begin()
	AWSetAt(tx, "s").Add("x", "")
	tx.Commit()
	sim.Run()
	if c.MessagesSent != 2 { // two peers
		t.Fatalf("messages = %d, want 2", c.MessagesSent)
	}
	if got := c.Replica(wan.USWest).TxnsDelivered; got != 1 {
		t.Fatalf("west delivered = %d", got)
	}
}

func TestReadOnlyTxnSendsNothing(t *testing.T) {
	_, c := newTestCluster(13)
	tx := c.Replica(wan.USEast).Begin()
	_ = AWSetAt(tx, "s").Elems()
	tx.Commit()
	if c.MessagesSent != 0 {
		t.Fatal("read-only txn must not replicate")
	}
}

func TestPausedReplicaBuffersDeliveries(t *testing.T) {
	sim, c := newTestCluster(5)
	east, west := c.Replica(wan.USEast), c.Replica(wan.USWest)

	c.SetPaused(wan.USWest, true)
	tx := east.Begin()
	AWSetAt(tx, "k").Add("x", "")
	tx.Commit()
	sim.Run()

	// The paused replica received but did not apply; the third replica did.
	wtx := west.Begin()
	if AWSetAt(wtx, "k").Contains("x") {
		t.Fatal("paused replica applied a delivery")
	}
	wtx.Commit()
	if west.Buffered() == 0 {
		t.Fatal("paused replica did not buffer the delivery")
	}
	etx := c.Replica(wan.EUWest).Begin()
	if !AWSetAt(etx, "k").Contains("x") {
		t.Fatal("unpaused replica missing the delivery")
	}
	etx.Commit()

	// A paused replica can still commit locally.
	wtx2 := west.Begin()
	AWSetAt(wtx2, "k").Add("y", "")
	wtx2.Commit()
	sim.Run()

	// Unpausing drains the buffer in causal order.
	c.SetPaused(wan.USWest, false)
	wtx3 := west.Begin()
	if !AWSetAt(wtx3, "k").Contains("x") {
		t.Fatal("unpause did not drain buffered deliveries")
	}
	wtx3.Commit()
	if west.Buffered() != 0 {
		t.Fatalf("pending = %d after unpause", west.Buffered())
	}
}
