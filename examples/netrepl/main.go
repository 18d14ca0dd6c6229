// Netrepl example: the same replicated store running over real TCP
// sockets instead of the simulator — three nodes on localhost, concurrent
// conflicting writes, CRDT convergence over the wire, and the streaming
// transport's per-node metrics.
//
//	go run ./examples/netrepl
package main

import (
	"fmt"
	"log"
	"time"

	"ipa/internal/clock"
	"ipa/internal/netrepl"
	"ipa/internal/store"
)

func main() {
	ids := []clock.ReplicaID{"lisbon", "porto", "faro"}
	nodes := make([]*netrepl.Node, len(ids))
	for i, id := range ids {
		n, err := netrepl.NewNode(id, "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
		fmt.Printf("node %-7s listening on %s\n", id, n.Addr())
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}

	// Concurrent conflicting writes: everyone enrolls someone, one node
	// removes the tournament, another touches it back (the IPA repair).
	tx := nodes[0].Begin()
	store.AWSetAt(tx, "tournaments").Add("cup", "prize: 100")
	tx.Commit()
	time.Sleep(50 * time.Millisecond) // let the seed replicate

	tx = nodes[1].Begin()
	store.AWSetAt(tx, "tournaments").Remove("cup")
	tx.Commit()
	tx = nodes[2].Begin()
	store.AWSetAt(tx, "enrolled").Add("alice|cup", "")
	store.AWSetAt(tx, "tournaments").Touch("cup")
	tx.Commit()

	// Wait for convergence over the sockets.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		clocks := make([]clock.Vector, len(nodes))
		for i, n := range nodes {
			clocks[i] = n.Clock()
		}
		same := true
		for i := 1; i < len(clocks); i++ {
			if !clocks[i].Equal(clocks[0]) {
				same = false
			}
		}
		if same {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Println("\nconverged state over TCP:")
	for _, n := range nodes {
		tx := n.Begin()
		tourns := ipaView(tx)
		fmt.Printf("  %-7s tournament=%v enrolment=%v\n", n.ID(), tourns.exists, tourns.enrolled)
		tx.Commit()
	}
	fmt.Println("\nthe add-wins touch won over the wire, exactly as in the simulation")

	fmt.Println("\ntransport metrics:")
	for _, n := range nodes {
		fmt.Printf("  %-7s %s\n", n.ID(), n.Stats())
	}
}

type view struct {
	exists   bool
	enrolled bool
}

func ipaView(tx *store.Txn) view {
	return view{
		exists:   store.AWSetAt(tx, "tournaments").Contains("cup"),
		enrolled: store.AWSetAt(tx, "enrolled").Contains("alice|cup"),
	}
}
