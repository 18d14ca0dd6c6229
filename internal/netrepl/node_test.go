package netrepl

import (
	"fmt"
	"testing"
	"time"

	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/store"
)

// newTrio spins up three connected nodes on localhost.
func newTrio(t *testing.T) []*Node {
	t.Helper()
	ids := []clock.ReplicaID{"n1", "n2", "n3"}
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		n, err := NewNode(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		t.Cleanup(func() { n.Close() })
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}
	return nodes
}

// waitConverged polls until every node's clock covers every other's.
func waitConverged(t *testing.T, nodes []*Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		clocks := make([]clock.Vector, len(nodes))
		for i, n := range nodes {
			clocks[i] = n.Clock()
		}
		for i := range clocks {
			for j := range clocks {
				if !clocks[i].LEq(clocks[j]) {
					done = false
				}
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("nodes did not converge in time")
}

func TestTCPReplicationConverges(t *testing.T) {
	nodes := newTrio(t)

	// Concurrent writes from all nodes over real sockets.
	for i, n := range nodes {
		i := i
		for k := 0; k < 10; k++ {
			tx := n.Begin()
			store.AWSetAt(tx, "set").Add(fmt.Sprintf("n%d-e%d", i, k), "")
			store.CounterAt(tx, "cnt").Add(1)
			tx.Commit()
		}
	}
	waitConverged(t, nodes)

	var sizes []int
	var counts []int64
	for _, n := range nodes {
		tx := n.Begin()
		sizes = append(sizes, store.AWSetAt(tx, "set").Size())
		counts = append(counts, store.CounterAt(tx, "cnt").Value())
		tx.Commit()
	}
	for i := range nodes {
		if sizes[i] != 30 || counts[i] != 30 {
			t.Fatalf("node %d: size=%d count=%d, want 30/30", i, sizes[i], counts[i])
		}
	}
}

func TestTCPCausalDependencyHolds(t *testing.T) {
	nodes := newTrio(t)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// a writes X; wait until b has it; b then writes Y (depends on X).
	tx := a.Begin()
	store.AWSetAt(tx, "s").Add("X", "")
	tx.Commit()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tx = b.Begin()
		has := store.AWSetAt(tx, "s").Contains("X")
		tx.Commit()
		if has {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("b never received X")
		}
		time.Sleep(2 * time.Millisecond)
	}
	tx = b.Begin()
	store.AWSetAt(tx, "s").Add("Y", "")
	tx.Commit()
	waitConverged(t, nodes)

	// Wherever Y is visible, X must be too (causal order), and c has both.
	tx = c.Begin()
	s := store.AWSetAt(tx, "s")
	if s.Contains("Y") && !s.Contains("X") {
		t.Error("causal order violated: Y without X")
	}
	if !s.Contains("X") || !s.Contains("Y") {
		t.Error("c missing updates after convergence")
	}
	tx.Commit()
}

func TestWireRoundTrip(t *testing.T) {
	// Every op kind survives encode/decode.
	nodes := newTrio(t)
	n := nodes[0]
	tx := n.Begin()
	store.AWSetAt(tx, "aw").Add("x", "payload")
	store.AWSetAt(tx, "aw").Touch("x")
	store.AWSetAt(tx, "aw").Remove("x")
	store.RWSetAt(tx, "rw").Add("y", "")
	store.RWSetAt(tx, "rw").Remove("y")
	store.CounterAt(tx, "c").Add(-7)
	store.BoundedAt(tx, "bc").Grant(5)
	tx.Commit()
	tx = n.Begin()
	store.RWSetAt(tx, "rw").Add(crdt.JoinTuple("p", "q"), "")
	store.RWSetAt(tx, "rw").Add(crdt.JoinTuple("p", "r"), "")
	store.BoundedAt(tx, "bc").Consume(2)
	tx.Commit()
	tx = n.Begin()
	store.RWSetAt(tx, "rw").RemoveWhere(crdt.MatchPattern("", "q"))
	tx.Commit()
	waitConverged(t, nodes)
	tx = nodes[2].Begin()
	if store.AWSetAt(tx, "aw").Contains("x") {
		t.Error("aw state wrong after wire round trip")
	}
	rw := store.RWSetAt(tx, "rw")
	if rw.Contains("y") || rw.Contains(crdt.JoinTuple("p", "q")) || !rw.Contains(crdt.JoinTuple("p", "r")) {
		t.Error("rw state wrong after wire round trip")
	}
	if store.CounterAt(tx, "c").Value() != -7 {
		t.Error("counter state wrong after wire round trip")
	}
	if v := store.BoundedAt(tx, "bc").Value(); v != 3 {
		t.Errorf("bounded counter = %d after wire round trip, want 3", v)
	}
	tx.Commit()
	if nodes[2].Stats().TxnsRecv == 0 {
		t.Fatal("no frames delivered")
	}
}

func TestEncodeDecodeDirect(t *testing.T) {
	w := store.WireTxn{
		Origin:   "n1",
		Deps:     clock.Of(map[clock.ReplicaID]uint64{"n1": 3, "n2": 1}),
		FirstSeq: 3,
		LastSeq:  5,
	}
	data, err := store.EncodeBatchV2([]store.WireTxn{w})
	if err != nil {
		t.Fatal(err)
	}
	back, err := store.DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Origin != "n1" || back[0].LastSeq != 5 || !back[0].Deps.Equal(w.Deps) {
		t.Fatalf("round trip = %+v", back)
	}
	if _, err := store.DecodeFrame([]byte("garbage")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

// TestConfigBackoffDefaults pins withDefaults' backoff bounds: a zero
// BackoffMax takes the default, and one still below BackoffMin is raised
// to it — the backoff may never shrink between retries.
func TestConfigBackoffDefaults(t *testing.T) {
	d := DefaultConfig()
	for _, tc := range []struct {
		name             string
		in               Config
		wantMin, wantMax time.Duration
	}{
		{"zero", Config{}, d.BackoffMin, d.BackoffMax},
		{"default", DefaultConfig(), d.BackoffMin, d.BackoffMax},
		{"min only", Config{BackoffMin: 2 * time.Second}, 2 * time.Second, 2 * time.Second},
		{"max only", Config{BackoffMax: 50 * time.Millisecond}, d.BackoffMin, 50 * time.Millisecond},
		{"inverted", Config{BackoffMin: 100 * time.Millisecond, BackoffMax: 10 * time.Millisecond}, 100 * time.Millisecond, 100 * time.Millisecond},
		{"both set", Config{BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond}, time.Millisecond, 20 * time.Millisecond},
	} {
		got := tc.in.withDefaults()
		if got.BackoffMin != tc.wantMin || got.BackoffMax != tc.wantMax {
			t.Errorf("%s: backoff %v..%v, want %v..%v", tc.name, got.BackoffMin, got.BackoffMax, tc.wantMin, tc.wantMax)
		}
	}
}
