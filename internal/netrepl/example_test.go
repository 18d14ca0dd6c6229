package netrepl_test

import (
	"fmt"
	"log"
	"time"

	"ipa/internal/netrepl"
	"ipa/internal/store"
)

// ExampleNewNode replicates one transaction between two nodes over real
// TCP sockets with the default streaming transport.
func ExampleNewNode() {
	a, err := netrepl.NewNode("a", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	b, err := netrepl.NewNode("b", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer b.Close()
	a.AddPeer(b.ID(), b.Addr())
	b.AddPeer(a.ID(), a.Addr())

	tx := a.Begin()
	store.AWSetAt(tx, "accounts").Add("alice", "balance: 10")
	tx.Commit()

	// Replication is asynchronous: poll until b has delivered a's commit.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if b.Clock().Get("a") > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	tx = b.Begin()
	fmt.Println("b sees alice:", store.AWSetAt(tx, "accounts").Contains("alice"))
	tx.Commit()
	// Output: b sees alice: true
}

// ExampleNewNodeWithConfig tunes the streaming transport: a wide
// coalescing window for bulk replication, and a patient drain on Close.
func ExampleNewNodeWithConfig() {
	cfg := netrepl.Config{
		FlushInterval: 2 * time.Millisecond, // wait longer, batch more
		DrainTimeout:  5 * time.Second,      // flush patiently on Close
	}
	src, err := netrepl.NewNodeWithConfig("src", "127.0.0.1:0", cfg)
	if err != nil {
		log.Fatal(err)
	}
	dst, err := netrepl.NewNodeWithConfig("dst", "127.0.0.1:0", cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer dst.Close()
	src.AddPeer(dst.ID(), dst.Addr())

	// A burst of commits coalesces into far fewer frames than txns.
	for i := 0; i < 100; i++ {
		tx := src.Begin()
		store.CounterAt(tx, "events").Add(1)
		tx.Commit()
	}
	src.Close() // flushes what dst lacks before returning

	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if dst.Clock().Get("src") >= 100 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s := src.Stats()
	fmt.Println("txns sent:", s.TxnsSent)
	fmt.Println("batched:", s.FramesSent < s.TxnsSent)
	tx := dst.Begin()
	fmt.Println("dst counter:", store.CounterAt(tx, "events").Value())
	tx.Commit()
	// Output:
	// txns sent: 100
	// batched: true
	// dst counter: 100
}
