package runtime

import (
	"fmt"
	"testing"
	"time"

	"ipa/internal/clock"
	"ipa/internal/netrepl"
	"ipa/internal/store"
	"ipa/internal/wan"
)

func testIDs(n int) []clock.ReplicaID {
	ids := make([]clock.ReplicaID, n)
	for i := range ids {
		ids[i] = clock.ReplicaID(fmt.Sprintf("rt-%d", i))
	}
	return ids
}

func newTestNetCluster(t *testing.T, n int) *NetCluster {
	t.Helper()
	c, err := NewNetCluster(testIDs(n), NetConfig{
		Transport: netrepl.Config{
			FlushInterval: 100 * time.Microsecond,
			BackoffMin:    time.Millisecond,
			BackoffMax:    10 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// runOn is the backend-agnostic workload used by the parity tests: the
// same transactions through the same interface on either cluster.
func runOn(c Cluster, perReplica int) error {
	for _, id := range c.Replicas() {
		rep := c.Replica(id)
		for k := 0; k < perReplica; k++ {
			tx := rep.Begin()
			store.CounterAt(tx, "ops").Add(1)
			store.AWSetAt(tx, "live").Add(fmt.Sprintf("%s-%d", id, k), "")
			tx.Commit()
		}
	}
	return c.Settle()
}

// checkConverged asserts every replica sees all commits.
func checkConverged(t *testing.T, c Cluster, perReplica int) {
	t.Helper()
	total := int64(len(c.Replicas()) * perReplica)
	for _, id := range c.Replicas() {
		rep := c.Replica(id)
		tx := rep.Begin()
		if v := store.CounterAt(tx, "ops").Value(); v != total {
			t.Errorf("%s [%T]: counter = %d, want %d", id, c, v, total)
		}
		if sz := store.AWSetAt(tx, "live").Size(); int64(sz) != total {
			t.Errorf("%s [%T]: live set = %d, want %d", id, c, sz, total)
		}
		tx.Commit()
	}
}

// TestBackendParity runs the identical workload through the Cluster
// interface on both backends and requires identical convergence.
func TestBackendParity(t *testing.T) {
	const perReplica = 50
	ids := testIDs(3)

	sim := NewSimCluster(store.NewCluster(wan.NewSim(1), wan.NewLatency(wan.Ms(20)), ids))
	if err := runOn(sim, perReplica); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, sim, perReplica)

	net := newTestNetCluster(t, 3)
	if err := runOn(net, perReplica); err != nil {
		t.Fatal(err)
	}
	checkConverged(t, net, perReplica)
}

// TestNetClusterPartitionFault checks the partition hook: while the link
// is down, commits do not cross it (but other links still replicate);
// after heal, everything converges — no update lost.
func TestNetClusterPartitionFault(t *testing.T) {
	c := newTestNetCluster(t, 3)
	ids := c.Replicas()
	var f Faults = c
	f.SetPartitioned(ids[0], ids[1], true)

	tx := c.Replica(ids[0]).Begin()
	store.AWSetAt(tx, "p").Add("x", "")
	tx.Commit()

	// ids[2] receives the commit, ids[1] must not.
	deadline := time.Now().Add(10 * time.Second)
	for c.Node(ids[2]).Clock().Get(ids[0]) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unpartitioned link did not deliver")
		}
		time.Sleep(time.Millisecond)
	}
	// Give the blocked link ample opportunity to (wrongly) deliver.
	time.Sleep(20 * time.Millisecond)
	if got := c.Node(ids[1]).Clock().Get(ids[0]); got != 0 {
		t.Fatalf("partitioned link delivered %d updates", got)
	}

	f.SetPartitioned(ids[0], ids[1], false)
	if err := c.Settle(); err != nil {
		t.Fatalf("no convergence after heal: %v", err)
	}
	if got := c.Node(ids[1]).Clock().Get(ids[0]); got == 0 {
		t.Fatal("healed link lost the update")
	}
}

// TestNetClusterPauseFault checks the pause hook: a paused replica
// buffers deliveries without applying and drains on unpause.
func TestNetClusterPauseFault(t *testing.T) {
	c := newTestNetCluster(t, 2)
	ids := c.Replicas()
	var f Faults = c
	f.SetPaused(ids[1], true)

	tx := c.Replica(ids[0]).Begin()
	store.AWSetAt(tx, "q").Add("y", "")
	tx.Commit()

	// The frame arrives (and is acked) but must not apply while paused.
	deadline := time.Now().Add(10 * time.Second)
	for c.Node(ids[1]).Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("paused replica never buffered the delivery")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Node(ids[1]).Clock().Get(ids[0]); got != 0 {
		t.Fatalf("paused replica applied %d updates", got)
	}

	f.SetPaused(ids[1], false)
	if err := c.Settle(); err != nil {
		t.Fatalf("no convergence after unpause: %v", err)
	}
}

// TestNetClusterStabilize checks that the gathered-clock stability pass
// reaches the same horizon the nodes' clocks define.
func TestNetClusterStabilize(t *testing.T) {
	c := newTestNetCluster(t, 3)
	if err := runOn(c, 10); err != nil {
		t.Fatal(err)
	}
	h := c.Stabilize()
	for _, id := range c.Replicas() {
		if got := h.Get(id); got != 20 { // 10 txns x 2 updates
			t.Fatalf("horizon[%s] = %d, want 20", id, got)
		}
	}
}
