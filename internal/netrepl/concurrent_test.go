package netrepl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ipa/internal/store"
)

// The tests in this file exercise the node surface under concurrency: many
// client goroutines commit on every node of a live mesh while the receive
// path races them. Run under -race; together with the store property
// suite they are the safety proof of the replica core on real sockets.

// waitQuiet polls until every node's clock matches and neither a delivery
// buffer nor an outbound log holds work.
func waitQuiet(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		quiet := true
		var base string
		for i, n := range nodes {
			if n.Stats().QueueDepth != 0 || n.Pending() != 0 {
				quiet = false
				break
			}
			vc := n.Clock().String()
			if i == 0 {
				base = vc
			} else if vc != base {
				quiet = false
				break
			}
		}
		if quiet {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("cluster did not quiesce in time")
}

// TestConcurrentClientsAndApplyPathConverge runs several committer
// goroutines per node — private counters for per-key read-your-writes,
// one shared set for cross-replica merge — while the receive path applies
// remote transactions concurrently. Every client read must be
// linearizable per key, and after quiescence all nodes must agree.
func TestConcurrentClientsAndApplyPathConverge(t *testing.T) {
	nodes := newTrio(t)
	const (
		workers = 3
		txnsPer = 80
	)
	var wg sync.WaitGroup
	for _, n := range nodes {
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(n *Node, g int) {
				defer wg.Done()
				private := fmt.Sprintf("priv/%s/%d", n.ID(), g)
				for i := 0; i < txnsPer; i++ {
					tx := n.Begin()
					store.CounterAt(tx, private).Add(1)
					store.AWSetAt(tx, "shared").Add(fmt.Sprintf("%s-%d-%d", n.ID(), g, i), "")
					tx.Commit()

					check := n.Begin()
					got := store.CounterAt(check, private).Value()
					check.Commit()
					if got != int64(i+1) {
						t.Errorf("%s/%d: read-own-writes broken: %d after %d commits", n.ID(), g, got, i+1)
						return
					}
				}
			}(n, g)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	waitQuiet(t, nodes)

	want := len(nodes) * workers * txnsPer
	var base string
	for i, n := range nodes {
		tx := n.Begin()
		size := store.AWSetAt(tx, "shared").Size()
		digest := fmt.Sprint(size)
		for _, m := range nodes {
			for g := 0; g < workers; g++ {
				digest += fmt.Sprintf(" %d", store.CounterAt(tx, fmt.Sprintf("priv/%s/%d", m.ID(), g)).Value())
			}
		}
		tx.Commit()
		if size != want {
			t.Fatalf("%s: shared set has %d elements, want %d", n.ID(), size, want)
		}
		if i == 0 {
			base = digest
		} else if digest != base {
			t.Fatalf("%s diverged:\n%s\nvs\n%s", n.ID(), digest, base)
		}
	}
}

// TestCrossShardAtomicityOnSockets is the multi-key atomicity property on
// the live mesh: every transaction increments all K counters, writing
// each as it binds it (as applications do), reader transactions on every
// node continuously assert the K values are equal (local transactions
// and remote effect groups must become visible whole), and the final
// state must be identical everywhere.
func TestCrossShardAtomicityOnSockets(t *testing.T) {
	nodes := newTrio(t)
	keys := make([]string, 5)
	for i := range keys {
		keys[i] = fmt.Sprintf("atomic/k%02d", i*11)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, n := range nodes {
		readers.Add(1)
		go func(n *Node) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tx := n.Begin()
				refs := make([]store.CounterRef, len(keys))
				for i, k := range keys {
					refs[i] = store.CounterAt(tx, k)
				}
				base := refs[0].Value()
				for i, ref := range refs {
					if v := ref.Value(); v != base {
						t.Errorf("%s: torn effect group: %s=%d but %s=%d", n.ID(), keys[0], base, keys[i], v)
						tx.Commit()
						return
					}
				}
				tx.Commit()
			}
		}(n)
	}

	const txnsPer = 60
	var writers sync.WaitGroup
	for _, n := range nodes {
		for g := 0; g < 2; g++ {
			writers.Add(1)
			go func(n *Node) {
				defer writers.Done()
				for i := 0; i < txnsPer; i++ {
					tx := n.Begin()
					for _, k := range keys {
						store.CounterAt(tx, k).Add(1)
					}
					tx.Commit()
				}
			}(n)
		}
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	waitQuiet(t, nodes)

	want := int64(len(nodes) * 2 * txnsPer)
	for _, n := range nodes {
		tx := n.Begin()
		for _, k := range keys {
			if v := store.CounterAt(tx, k).Value(); v != want {
				t.Fatalf("%s: %s = %d, want %d", n.ID(), k, v, want)
			}
		}
		tx.Commit()
	}
}

// TestConcurrentClientsUnderChurnAndPause mixes the concurrency suite
// with the fault hooks: clients commit from several goroutines per node
// while one node is paused (apply pipeline frozen, frames still acked)
// and inbound connections are repeatedly killed. Everything must still
// converge exactly once per transaction after the faults lift, with no
// transaction dropped by a sender and every node's own sent.
func TestConcurrentClientsUnderChurnAndPause(t *testing.T) {
	nodes := newTrio(t)
	nodes[1].SetPaused(true)

	stop := make(chan struct{})
	var chaos sync.WaitGroup
	var killed int
	deadline := time.Now().Add(10 * time.Second)
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		// Kill until stopped, and past that until one kill lands (or the
		// deadline passes): churn is what is tested.
		for i := 0; ; i++ {
			select {
			case <-stop:
				if killed > 0 || time.Now().After(deadline) {
					return
				}
			default:
			}
			time.Sleep(2 * time.Millisecond)
			killed += nodes[i%len(nodes)].DropConnections()
		}
	}()

	const (
		workers = 2
		txnsPer = 50
	)
	var wg sync.WaitGroup
	for _, n := range nodes {
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(n *Node, g int) {
				defer wg.Done()
				for i := 0; i < txnsPer; i++ {
					tx := n.Begin()
					store.CounterAt(tx, "churn/total").Add(1)
					store.AWSetAt(tx, fmt.Sprintf("churn/%s", n.ID())).Add(fmt.Sprintf("%d-%d", g, i), "")
					tx.Commit()
					if i%10 == 9 {
						time.Sleep(time.Millisecond) // let the kills land mid-stream
					}
				}
			}(n, g)
		}
	}
	wg.Wait()
	close(stop)
	chaos.Wait()
	if killed == 0 {
		t.Fatal("the chaos loop killed no connection: churn not exercised")
	}
	nodes[1].SetPaused(false)
	waitQuiet(t, nodes)

	want := int64(len(nodes) * workers * txnsPer)
	for _, n := range nodes {
		tx := n.Begin()
		v := store.CounterAt(tx, "churn/total").Value()
		tx.Commit()
		if v != want {
			t.Fatalf("%s: total = %d, want %d (lost or duplicated transactions)", n.ID(), v, want)
		}
		m := n.Stats()
		t.Logf("%s: %s", n.ID(), m)
		if m.TxnsDropped != 0 {
			t.Errorf("%s dropped %d transactions during churn", n.ID(), m.TxnsDropped)
		}
		if m.TxnsSent == 0 {
			t.Errorf("%s sent no transactions", n.ID())
		}
	}
	t.Logf("%d connections killed", killed)
}

// TestPauseFreezesDependencyWaiters pins the pause semantics: a
// transaction already parked in the apply pipeline waiting for a causal
// dependency must not apply when that dependency arrives mid-pause —
// nothing applies while the node is "crashed", matching the simulator.
func TestPauseFreezesDependencyWaiters(t *testing.T) {
	n, err := NewNode("n", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	xs := captureTxns("x", "cx", 1)
	ys := captureTxns("y", "cy", 1)
	// Make y's transaction causally depend on x's.
	ys[0].Deps.Set("x", xs[0].LastSeq)

	// Deliver y first: its applier parks waiting for the dependency.
	rawSend(t, n.Addr(), encodeBatch(t, ys[0]))
	waitUntil(t, "dependency wait parked", func() bool { return n.Pending() == 1 })

	n.SetPaused(true)
	// The dependency arrives mid-pause. Neither transaction may apply.
	rawSend(t, n.Addr(), encodeBatch(t, xs[0]))
	waitUntil(t, "dependency accepted into pipeline", func() bool { return n.Pending() == 2 })
	time.Sleep(30 * time.Millisecond)
	if got := n.Clock().Sum(); got != 0 {
		t.Fatalf("applied during pause: clock %s", n.Clock())
	}

	n.SetPaused(false)
	waitUntil(t, "drain after unpause", func() bool {
		return n.Pending() == 0 && n.Clock().Get("x") == xs[0].LastSeq && n.Clock().Get("y") == ys[0].LastSeq
	})
}
