package netrepl

import (
	"fmt"
	"testing"
	"time"

	"ipa/internal/clock"
	"ipa/internal/store"
)

// BenchmarkRecover times what durability buys back at restart: one
// durable node commits txns transactions, dies by Kill (the kill -9 path:
// unsynced tail abandoned), and only the reopen is timed. wal-only
// disables snapshots, so recovery replays the whole log; snapshot+tail
// runs the shipped snapshot cycle, so recovery loads the newest snapshot
// and replays past it, and its time tracks SnapshotEvery instead of
// history length. The snapshots metric is how many the node took before
// dying. Setup costs far more than the timed reopen, so run it with a
// fixed count (-benchtime 3x), not a duration.
func BenchmarkRecover(b *testing.B) {
	for _, mode := range []struct {
		name          string
		snapshotEvery int64 // huge disables the cycle
	}{{"wal-only", 1 << 60}, {"snapshot+tail", 64 << 10}} {
		for _, txns := range []int{500, 2000, 8000} {
			b.Run(fmt.Sprintf("%s/%d", mode.name, txns), func(b *testing.B) {
				var snaps uint64
				for range b.N {
					b.StopTimer()
					snaps = recoverOnce(b, txns, mode.snapshotEvery)
				}
				b.ReportMetric(float64(snaps), "snapshots")
			})
		}
	}
}

// recoverOnce commits count transactions on a fresh durable node, kills
// it, and reopens it with the benchmark timer running for the reopen
// only. It returns how many snapshots the node took before dying. The
// recovered state is verified: a recovery that lost acked transactions
// fails instead of reporting a time.
func recoverOnce(b *testing.B, count int, snapshotEvery int64) uint64 {
	cfg := Config{
		DataDir:       b.TempDir(),
		SnapshotEvery: snapshotEvery,
		// Small segments so truncation has units to delete at this scale;
		// otherwise the whole history lives in one active segment and
		// recovery decodes all of it in both modes.
		SegmentSize:   64 << 10,
		FlushInterval: 100 * time.Microsecond,
	}
	id := clock.ReplicaID("bench")
	n, err := NewNodeWithConfig(id, "127.0.0.1:0", cfg)
	if err != nil {
		b.Fatal(err)
	}
	// A fixed 64-key working set is the regime where snapshots pay: state
	// stays bounded while the log grows with history. Every 64 commits the
	// stability round runs, which on a durable node also triggers the
	// snapshot cycle; a lone node's own clock is the horizon.
	for i := 0; i < count; i++ {
		n.Do(func(r *store.Replica) {
			tx := r.Begin()
			store.AWSetAt(tx, "items").Add(fmt.Sprintf("item-%d", i%64), "payload-payload-payload")
			store.CounterAt(tx, "n").Add(1)
			tx.Commit()
		})
		if (i+1)%64 == 0 {
			vc := n.Clock()
			n.CompactAll(vc, vc)
		}
	}
	snaps := n.Stats().Snapshots
	if err := n.Kill(); err != nil {
		b.Fatal(err)
	}

	b.StartTimer()
	rec, err := NewNodeWithConfig(id, "127.0.0.1:0", cfg)
	b.StopTimer()
	if err != nil {
		b.Fatalf("reopen: %v", err)
	}
	got := counterValue(rec, "n")
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
	if got != int64(count) {
		b.Fatalf("recovered counter %d, committed %d", got, count)
	}
	return snaps
}
