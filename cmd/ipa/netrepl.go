package main

// The -netrepl mode: a local streaming-replication smoke ring. It is the
// ops-facing window into the transport — spin up N nodes on localhost,
// push load through real sockets, and print each node's transport
// metrics (frames, txns/frame, bytes, reconnects, queue depth).

import (
	"fmt"
	"time"

	"ipa/internal/clock"
	"ipa/internal/netrepl"
	"ipa/internal/store"
)

// runNetrepl runs the smoke ring and prints a per-node metrics table.
func runNetrepl(nodes, txns int) error {
	if nodes < 2 {
		return fmt.Errorf("-netrepl needs at least 2 nodes, got %d", nodes)
	}
	ring := make([]*netrepl.Node, nodes)
	for i := range ring {
		id := clock.ReplicaID(fmt.Sprintf("node%d", i))
		n, err := netrepl.NewNode(id, "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer n.Close()
		ring[i] = n
	}
	for _, a := range ring {
		for _, b := range ring {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}

	fmt.Printf("netrepl smoke ring: %d nodes, %d txns each\n\n", nodes, txns)

	start := time.Now()
	done := make(chan struct{})
	for _, n := range ring {
		n := n
		go func() {
			n.Do(func(r *store.Replica) {
				for k := 0; k < txns; k++ {
					tx := r.Begin()
					store.CounterAt(tx, "ops").Add(1)
					store.AWSetAt(tx, "live").Add(fmt.Sprintf("%s-%d", n.ID(), k), "")
					tx.Commit()
				}
			})
			done <- struct{}{}
		}()
	}
	for range ring {
		<-done
	}
	// The causal clock counts update sequence numbers; each smoke
	// transaction carries two updates (counter + set add).
	want := uint64(2 * txns)
	for deadline := time.Now().Add(time.Minute); ; {
		converged := true
		for _, n := range ring {
			vc := n.Clock()
			for _, o := range ring {
				if vc.Get(o.ID()) < want {
					converged = false
				}
			}
		}
		if converged {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring did not converge within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	total := float64(nodes * txns)
	fmt.Printf("converged in %v (%.0f txn/s end to end)\n\n", elapsed.Round(time.Millisecond), total/elapsed.Seconds())
	fmt.Printf("%-8s %10s %10s %11s %12s %8s %11s %8s %7s\n",
		"node", "txns-sent", "frames", "txns/frame", "bytes-sent", "dials", "reconnects", "backpr", "queue")
	for _, n := range ring {
		s := n.Stats()
		perFrame := 0.0
		if s.FramesSent > 0 {
			perFrame = float64(s.TxnsSent) / float64(s.FramesSent)
		}
		fmt.Printf("%-8s %10d %10d %11.1f %12d %8d %11d %8d %7d\n",
			n.ID(), s.TxnsSent, s.FramesSent, perFrame, s.BytesSent,
			s.Dials, s.Reconnects, s.BackpressureWaits, s.QueueDepth)
	}
	return nil
}
