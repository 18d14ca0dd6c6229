package harness

import (
	"testing"
	"time"
)

// TestSoakChurn runs the real-socket soak with small parameters: a 3-node
// streaming ring committing under repeated connection kills must converge
// to identical state at every node.
func TestSoakChurn(t *testing.T) {
	txns := 400
	if testing.Short() {
		txns = 150
	}
	res, err := Soak(SoakOptions{
		Nodes:       3,
		TxnsPerNode: txns,
		KillEvery:   2 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if !res.Converged {
		t.Fatalf("soak ring did not converge: %s", res.Divergence)
	}
	if res.ConnsKilled == 0 {
		t.Fatal("chaos loop killed no connections — churn not exercised")
	}
	if res.Metrics.TxnsDropped != 0 {
		t.Fatalf("streaming transport dropped %d txns during churn", res.Metrics.TxnsDropped)
	}
	if len(res.PerNode) != 3 {
		t.Fatalf("per-node metrics for %d nodes, want 3", len(res.PerNode))
	}
	for i, m := range res.PerNode {
		if m.TxnsSent == 0 {
			t.Errorf("soak%d sent no transactions: %s", i, m)
		}
	}
}
