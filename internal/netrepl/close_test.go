package netrepl

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ipa/internal/clock"
	"ipa/internal/store"
)

// TestCloseDropConnectionsRace drives Close, DropConnections, and live
// replication traffic against each other. The ordering contract under
// test (run with -race):
//
//   - a handler accepted in the Close window is either registered and
//     counted (wg.Add inside the connMu critical section) before Close's
//     sweep — so Close waits for it — or dropped by the closed re-check;
//   - DropConnections during Close backs off (returns 0) instead of
//     closing connections the teardown already owns while peers sit in
//     their ack/retry loop.
func TestCloseDropConnectionsRace(t *testing.T) {
	cfg := Config{
		FlushInterval: 100 * time.Microsecond,
		BackoffMin:    time.Millisecond,
		BackoffMax:    5 * time.Millisecond,
		DrainTimeout:  200 * time.Millisecond,
	}
	for round := 0; round < 5; round++ {
		a, err := NewNodeWithConfig("close-a", "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewNodeWithConfig("close-b", "127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.AddPeer(b.ID(), b.Addr())
		b.AddPeer(a.ID(), a.Addr())

		stop := make(chan struct{})
		var wg sync.WaitGroup

		// Traffic into b (so b has inbound connections to drop/close).
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := a.Begin()
				store.AWSetAt(tx, "k").Add(fmt.Sprintf("a-%d-%d", round, i), "")
				tx.Commit()
			}
		}()

		// Connection churn racing the close below.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					b.DropConnections()
				}
			}
		}()

		time.Sleep(5 * time.Millisecond)
		if err := b.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// After Close returns, DropConnections must be inert.
		if n := b.DropConnections(); n != 0 {
			t.Fatalf("DropConnections after Close killed %d connections, want 0", n)
		}
		close(stop)
		a.Close()
		wg.Wait()
	}
}

// TestRuntimeSurfaceLocking exercises the Begin/Object/Lookup surface a
// runtime backend uses, concurrently with the receive path: transactions
// at one node while a peer streams into it must serialise on the node
// lock so reads observe transaction-atomic states.
func TestRuntimeSurfaceLocking(t *testing.T) {
	a, err := NewNode("lock-a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNode("lock-b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(b.ID(), b.Addr())
	b.AddPeer(a.ID(), a.Addr())

	const txns = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < txns; i++ {
			// The other writer: a's commits race b's receive path.
			tx := a.Begin()
			store.CounterAt(tx, "n").Add(1)
			tx.Commit()
		}
	}()
	for i := 0; i < txns; i++ {
		tx := b.Begin()
		store.CounterAt(tx, "n").Add(1)
		tx.Commit()
	}
	<-done

	want := uint64(txns)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ca, cb := a.Clock(), b.Clock()
		if ca.Get(clock.ReplicaID("lock-b")) >= want && cb.Get(clock.ReplicaID("lock-a")) >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: a=%s b=%s", ca, cb)
		}
		time.Sleep(time.Millisecond)
	}
	for _, n := range []*Node{a, b} {
		tx := n.Begin()
		if v := store.CounterAt(tx, "n").Value(); v != 2*txns {
			t.Errorf("%s: counter = %d, want %d", n.ID(), v, 2*txns)
		}
		tx.Commit()
	}
}
