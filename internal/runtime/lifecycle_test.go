package runtime

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/netrepl"
	"ipa/internal/store"
	"ipa/internal/wan"
)

func newDurableNetCluster(t *testing.T, n int) *NetCluster {
	t.Helper()
	c, err := NewNetCluster(testIDs(n), NetConfig{
		Transport: netrepl.Config{
			FlushInterval: 100 * time.Microsecond,
			BackoffMin:    time.Millisecond,
			BackoffMax:    10 * time.Millisecond,
		},
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestNetClusterCrashRecover is the lifecycle round-trip: every commit
// that returned before the crash must be present after recovery, commits
// made elsewhere while the site was down must flow to it afterwards, and
// a session pinned to the dead replica instance must fail loudly rather
// than read its frozen state.
func TestNetClusterCrashRecover(t *testing.T) {
	c := newDurableNetCluster(t, 3)
	ids := c.Replicas()

	// Commits that return are fsynced (the commit hook's wait): all of
	// them must survive the crash.
	for k := 0; k < 40; k++ {
		tx := c.Replica(ids[0]).Begin()
		store.CounterAt(tx, "ops").Add(1)
		store.AWSetAt(tx, "acked").Add(fmt.Sprintf("pre-%d", k), "")
		tx.Commit()
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}

	// A session pinned to the replica instance that is about to die.
	sess := store.NewSession()
	pinned := c.Node(ids[0]).Replica()
	if _, err := sess.Begin(pinned); err != nil {
		t.Fatalf("session on live replica: %v", err)
	}

	if err := c.Crash(ids[0]); err != nil {
		t.Fatal(err)
	}
	var stale *store.ErrStale
	if _, err := sess.Begin(pinned); !errors.As(err, &stale) {
		t.Fatalf("session Begin on crashed replica: got %v, want ErrStale", err)
	}

	// Commits elsewhere while the site is down; senders hold them.
	for k := 0; k < 25; k++ {
		tx := c.Replica(ids[1]).Begin()
		store.CounterAt(tx, "ops").Add(1)
		store.AWSetAt(tx, "acked").Add(fmt.Sprintf("down-%d", k), "")
		tx.Commit()
	}

	if err := c.Recover(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		tx := c.Replica(id).Begin()
		if v := store.CounterAt(tx, "ops").Value(); v != 65 {
			t.Errorf("%s: counter = %d, want 65", id, v)
		}
		if sz := store.AWSetAt(tx, "acked").Size(); sz != 65 {
			t.Errorf("%s: set size = %d, want 65", id, sz)
		}
		tx.Commit()
	}
	// The recovered instance is a different replica object; a fresh
	// session against it must work.
	if _, ok := c.Replica(ids[0]).(*netrepl.Node); !ok {
		t.Fatalf("recovered replica has unexpected type %T", c.Replica(ids[0]))
	}
	if _, err := store.NewSession().Begin(c.Node(ids[0]).Replica()); err != nil {
		t.Fatalf("session on recovered replica: %v", err)
	}
}

// TestSurvivorsServeWhileSiteDown pins availability with a site down:
// on the default transport, two survivors of a durable three-site
// cluster each commit three times QueueCap while the third site is
// crashed, and neither waits on it. Once it recovers, all three converge.
func TestSurvivorsServeWhileSiteDown(t *testing.T) {
	c, err := NewNetCluster(testIDs(3), NetConfig{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ids := c.Replicas()
	if err := c.Crash(ids[2]); err != nil {
		t.Fatal(err)
	}
	per := 3 * netrepl.QueueCap
	start := time.Now()
	var committed [2]atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i, id := range ids[:2] {
		wg.Add(1)
		go func(r Replica, n *atomic.Int64) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				tx := r.Begin()
				store.CounterAt(tx, "ops").Add(1)
				tx.Commit()
				n.Add(1)
			}
		}(c.Replica(id), &committed[i])
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("with %s down, %s committed %d and %s %d of %d within 30 s",
			ids[2], ids[0], committed[0].Load(), ids[1], committed[1].Load(), per)
	}
	t.Logf("%d commits at each survivor in %v", per, time.Since(start))
	if err := c.Recover(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	want := c.Node(ids[0]).Clock()
	for _, id := range ids[1:] {
		if got := c.Node(id).Clock(); !got.Equal(want) {
			t.Errorf("%s clock %s, want %s", id, got, want)
		}
	}
}

// TestNetClusterRecoverFromSnapshotAndTail crashes a site after enough
// traffic that stability snapshots and log truncation have happened, so
// recovery exercises the snapshot-restore + log-replay path, not just
// replay from an empty store.
func TestNetClusterRecoverFromSnapshotAndTail(t *testing.T) {
	c, err := NewNetCluster(testIDs(3), NetConfig{
		Transport: netrepl.Config{
			FlushInterval: 100 * time.Microsecond,
			BackoffMin:    time.Millisecond,
			BackoffMax:    10 * time.Millisecond,
			SnapshotEvery: 1, // snapshot on every stability round
		},
		DataDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := c.Replicas()
	for round := 0; round < 4; round++ {
		for _, id := range ids {
			for k := 0; k < 10; k++ {
				tx := c.Replica(id).Begin()
				store.CounterAt(tx, "ops").Add(1)
				tx.Commit()
			}
		}
		if err := c.Settle(); err != nil {
			t.Fatal(err)
		}
		c.Stabilize() // snapshot + truncate every round
	}
	if got := c.Node(ids[0]).Stats().Snapshots; got == 0 {
		t.Fatal("no snapshots were taken; test exercises nothing")
	}
	if err := c.Crash(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	tx := c.Replica(ids[0]).Begin()
	if v := store.CounterAt(tx, "ops").Value(); v != 120 {
		t.Fatalf("recovered counter = %d, want 120", v)
	}
	tx.Commit()
}

// TestNetClusterJoinAndDecommission bootstraps a brand-new site from a
// donor snapshot plus op tails, verifies it converges with the mesh,
// then retires it and checks the mesh keeps working — including that
// fault hooks aimed at the retired site no-op instead of panicking
// (a fault injector racing a decommission must not bring the run down).
func TestNetClusterJoinAndDecommission(t *testing.T) {
	c := newDurableNetCluster(t, 3)
	ids := c.Replicas()
	if err := runOn(c, 20); err != nil {
		t.Fatal(err)
	}
	c.Stabilize()

	joiner := testIDs(4)[3]
	if err := c.Join(joiner, ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	tx := c.Replica(joiner).Begin()
	if v := store.CounterAt(tx, "ops").Value(); v != 60 {
		t.Fatalf("joined site counter = %d, want 60", v)
	}
	tx.Commit()

	// New commits reach the joiner too.
	tx = c.Replica(ids[1]).Begin()
	store.CounterAt(tx, "ops").Add(1)
	tx.Commit()
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	tx = c.Replica(joiner).Begin()
	if v := store.CounterAt(tx, "ops").Value(); v != 61 {
		t.Fatalf("joined site counter after new commit = %d, want 61", v)
	}
	tx.Commit()

	if err := c.Decommission(joiner); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.Replicas() {
		if id == joiner {
			t.Fatal("decommissioned site still in membership")
		}
	}
	// Fault hooks on the retired site: must not panic, must not wedge.
	c.SetPartitioned(ids[0], joiner, true)
	c.SetPartitioned(ids[0], joiner, false)
	c.SetPaused(joiner, true)
	c.SetPaused(joiner, false)
	// Sessions pinned to the retired replica fail loudly.
	var stale *store.ErrStale
	if _, err := store.NewSession().Begin(c.Node(joiner).Replica()); !errors.As(err, &stale) {
		t.Fatalf("session on decommissioned replica: got %v, want ErrStale", err)
	}
	// The shrunk mesh still replicates and settles.
	tx = c.Replica(ids[2]).Begin()
	store.CounterAt(tx, "ops").Add(1)
	tx.Commit()
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	c.Stabilize()
}

// TestNetClusterFaultsWhileDown takes partition and pause faults while a
// site is crashed — the hooks must not panic on the dead node, and the
// fault must still be in force on the recovered instance (satellite of
// the recovery work: fault state outlives the node object).
func TestNetClusterFaultsWhileDown(t *testing.T) {
	c := newDurableNetCluster(t, 3)
	ids := c.Replicas()
	if err := runOn(c, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(ids[1]); err != nil {
		t.Fatal(err)
	}
	// Faults against the dead site: no panic.
	c.SetPartitioned(ids[0], ids[1], true)
	c.SetPaused(ids[1], true)
	// Stabilize with a dead member must return (horizon frozen at the
	// dead site's cut, nobody compacts past it).
	h := c.Stabilize()
	if got, want := h.Get(ids[0]), c.Node(ids[1]).Clock().Get(ids[0]); got > want {
		t.Fatalf("horizon advanced past dead site's cut: %d > %d", got, want)
	}
	if err := c.Recover(ids[1]); err != nil {
		t.Fatal(err)
	}
	// The partition taken while down is in force on the new instance:
	// a commit at ids[0] must not reach ids[1].
	tx := c.Replica(ids[0]).Begin()
	store.CounterAt(tx, "blocked").Add(1)
	tx.Commit()
	time.Sleep(50 * time.Millisecond)
	// Partition drops the frame before delivery; pause would merely
	// buffer it. Nothing may be pending on the recovered instance.
	if c.Node(ids[1]).Pending() != 0 {
		t.Fatal("partitioned+paused recovered node accepted frames")
	}
	// Heal everything and converge.
	c.SetPartitioned(ids[0], ids[1], false)
	c.SetPaused(ids[1], false)
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		tx := c.Replica(id).Begin()
		if v := store.CounterAt(tx, "blocked").Value(); v != 1 {
			t.Errorf("%s: blocked counter = %d, want 1", id, v)
		}
		tx.Commit()
	}
}

// TestRecoverWhenOldPortTaken crashes a site and lets another socket
// take its port before Recover, as any socket may on a busy host. The
// site must come back on a new port; the survivors' senders, whose
// frames sit unacknowledged on the squatter's accept backlog, must follow
// it there; and the mesh must commit and converge well inside the
// transport's 10 s ack timeout.
func TestRecoverWhenOldPortTaken(t *testing.T) {
	c := newDurableNetCluster(t, 3)
	ids := c.Replicas()
	if err := runOn(c, 5); err != nil {
		t.Fatal(err)
	}
	old := c.Node(ids[0]).Addr()
	if err := c.Crash(ids[0]); err != nil {
		t.Fatal(err)
	}
	if ln, err := net.Listen("tcp", old); err == nil {
		defer ln.Close()
	} else {
		t.Logf("port of %s already taken: %v", old, err)
	}
	for _, id := range ids[1:] {
		for k := 0; k < 5; k++ {
			tx := c.Replica(id).Begin()
			store.CounterAt(tx, "ops").Add(1)
			tx.Commit()
		}
	}
	time.Sleep(50 * time.Millisecond) // let the senders reach the squatter

	start := time.Now()
	if err := c.Recover(ids[0]); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(ids[0]).Addr(); got == old {
		t.Fatalf("recovered site listens on its old address %s", got)
	}
	if err := runOn(c, 5); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("mesh took %v to converge after Recover", d)
	}
	want := c.Node(ids[0]).Clock()
	for _, id := range ids {
		if got := c.Node(id).Clock(); !got.Equal(want) {
			t.Errorf("%s clock %s, want %s", id, got, want)
		}
		tx := c.Replica(id).Begin()
		if v := store.CounterAt(tx, "ops").Value(); v != 40 {
			t.Errorf("%s: counter = %d, want 40", id, v)
		}
		tx.Commit()
	}
}

// TestNetClusterRefusesTransportDataDir: a Transport.DataDir would give
// every site the same directory, so every node would open one log while
// Durable reported false. NetConfig.DataDir is the only way to make a
// cluster durable.
func TestNetClusterRefusesTransportDataDir(t *testing.T) {
	c, err := NewNetCluster(testIDs(2), NetConfig{Transport: netrepl.Config{DataDir: t.TempDir()}})
	if err == nil {
		c.Close()
		t.Fatal("NewNetCluster accepted a Transport.DataDir every site would share")
	}
}

// TestSimClusterLifecycle checks the sim backend's Lifecycle modelling:
// crash/recover as a lossless pause window, join/decommission refused.
func TestSimClusterLifecycle(t *testing.T) {
	ids := testIDs(2)
	sim := NewSimCluster(store.NewCluster(wan.NewSim(1), wan.NewLatency(wan.Ms(20)), ids))
	var lc Lifecycle = sim
	if err := lc.Crash(ids[1]); err != nil {
		t.Fatal(err)
	}
	tx := sim.Replica(ids[0]).Begin()
	store.CounterAt(tx, "ops").Add(1)
	tx.Commit()
	if err := lc.Recover(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := sim.Settle(); err != nil {
		t.Fatal(err)
	}
	tx = sim.Replica(ids[1]).Begin()
	if v := store.CounterAt(tx, "ops").Value(); v != 1 {
		t.Fatalf("recovered sim site counter = %d, want 1", v)
	}
	tx.Commit()
	if err := lc.Join("new-site", ids[0]); err == nil {
		t.Fatal("sim Join must fail: fixed membership")
	}
	if err := lc.Decommission(ids[0]); err == nil {
		t.Fatal("sim Decommission must fail: fixed membership")
	}
}
