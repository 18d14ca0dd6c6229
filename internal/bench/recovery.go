package bench

// The recovery benchmark behind BENCH_recovery.json: what durability
// buys back at restart. It measures cold-start recovery directly on a
// durable node: commit a ladder of transaction counts, kill -9, and time
// the reopen — once with snapshots disabled (full log replay) and once
// with the snapshot cycle running (snapshot + log tail), which is the
// shipped configuration's claim that recovery time is bounded by
// SnapshotEvery, not by history length. What durability costs while
// serving is the benchmark/ workload serve-durable against serve-steady.

import (
	"fmt"
	"os"
	"time"

	"ipa/internal/clock"
	"ipa/internal/netrepl"
	"ipa/internal/store"
)

// RecoveryOptions shapes the durability benchmark.
type RecoveryOptions struct {
	// Ladder is the committed-transaction counts for the recovery-time
	// series. Default 500, 2000, 8000.
	Ladder []int
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if len(o.Ladder) == 0 {
		o.Ladder = []int{500, 2000, 8000}
	}
	return o
}

// Recovery runs the recovery ladder and returns the experiment.
func Recovery(opts RecoveryOptions) (*Experiment, error) {
	opts = opts.withDefaults()
	e := &Experiment{
		ID:     "recovery",
		Title:  "Durability: cold-start recovery time after kill -9",
		XLabel: "committed transactions before kill -9",
		YLabel: "recovery ms",
	}

	// Cold-start recovery time against replay length, with and without
	// the snapshot cycle.
	for _, n := range opts.Ladder {
		e.XTicks = append(e.XTicks, fmt.Sprintf("%d", n))
	}
	modes := []struct {
		name string
		// snapshotEvery tunes the cycle: huge disables it (recovery is
		// a full log replay); small keeps snapshots current (recovery
		// is snapshot load + short tail).
		snapshotEvery int64
	}{
		{"wal-only", 1 << 60},
		{"snapshot+tail", 64 << 10},
	}
	for _, mode := range modes {
		s := Series{Name: mode.name}
		for i, count := range opts.Ladder {
			ms, snaps, err := recoverOnce(count, mode.snapshotEvery)
			if err != nil {
				return nil, fmt.Errorf("bench: recovery ladder %s/%d: %w", mode.name, count, err)
			}
			s.Points = append(s.Points, Point{X: float64(i), Y: ms,
				Aux: map[string]float64{"txns": float64(count), "snapshots": float64(snaps)}})
		}
		e.Series = append(e.Series, s)
	}

	e.Notes = append(e.Notes,
		"one durable node commits N transactions, dies by kill -9 (unsynced tail abandoned),",
		"and the reopen is timed — wal-only replays the whole log, snapshot+tail loads the",
		"newest snapshot and replays past it, so its recovery time tracks SnapshotEvery",
		"instead of history length.")
	return e, nil
}

// recoverOnce commits count transactions on one durable node, kills it,
// and times the reopen. Returns the reopen wall-clock in ms and how many
// snapshots the node took before dying. The recovered state is verified
// — a recovery that silently lost acked transactions must not report a
// time.
func recoverOnce(count int, snapshotEvery int64) (float64, uint64, error) {
	dir, err := os.MkdirTemp("", "ipa-recovery-ladder-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	cfg := netrepl.Config{
		DataDir:       dir,
		SnapshotEvery: snapshotEvery,
		// Small segments so truncation has units to delete at this
		// scale — otherwise the whole ladder lives in one active
		// segment and recovery decodes all of it in both modes.
		SegmentSize:   64 << 10,
		FlushInterval: 100 * time.Microsecond,
	}
	id := clock.ReplicaID("bench")
	n, err := netrepl.NewNodeWithConfig(id, "127.0.0.1:0", cfg)
	if err != nil {
		return 0, 0, err
	}
	// The workload updates a fixed working set (64 keys), the regime
	// where snapshots pay: state stays bounded while the log grows with
	// history, so snapshot+tail recovery is O(SnapshotEvery) where full
	// replay is O(count). (A workload whose state grows with every
	// transaction — unique keys — makes the snapshot as large as the
	// log and the comparison meaningless.) Every 64 commits the
	// stability round runs, which on a durable node is also the
	// snapshot-cycle trigger — for a lone node its own clock is the
	// horizon (every member has applied everything).
	for i := 0; i < count; i++ {
		n.Do(func(r *store.Replica) {
			tx := r.Begin()
			store.AWSetAt(tx, "items").Add(fmt.Sprintf("item-%d", i%64), "payload-payload-payload")
			store.CounterAt(tx, "n").Add(1)
			tx.Commit()
		})
		if (i+1)%stabilizeEvery == 0 {
			vc := n.Clock()
			n.CompactAll(vc, vc)
		}
	}
	snaps := n.Stats().Snapshots
	if err := n.Kill(); err != nil {
		return 0, 0, err
	}

	t0 := time.Now()
	rec, err := netrepl.NewNodeWithConfig(id, "127.0.0.1:0", cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	ms := float64(time.Since(t0).Microseconds()) / 1000
	var got int64
	rec.Do(func(r *store.Replica) {
		tx := r.Begin()
		got = store.CounterAt(tx, "n").Value()
		tx.Commit()
	})
	closeErr := rec.Close()
	if got != int64(count) {
		return 0, 0, fmt.Errorf("recovered counter %d, committed %d", got, count)
	}
	return ms, snaps, closeErr
}
