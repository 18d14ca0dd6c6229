package netrepl

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/store"
)

func durableCfg(dir string) Config {
	return Config{
		FlushInterval: 100 * time.Microsecond,
		BackoffMin:    time.Millisecond,
		BackoffMax:    10 * time.Millisecond,
		DataDir:       dir,
	}
}

// TestKillMidGroupCommitNoAckedLoss is the acceptance check for the
// durability contract: Kill (the kill -9 path — no flush, no drain)
// lands while concurrent committers are mid-stream, so the WAL's
// group-commit buffer is non-empty and the on-disk tail may end in a
// torn record. Every operation whose Commit returned before the kill
// began must be present after recovery, op by op. Operations racing the
// kill may go either way (their ack never escaped the dying process);
// unsynced suffix loss is exactly what Abandon permits.
func TestKillMidGroupCommitNoAckedLoss(t *testing.T) {
	dir := t.TempDir()
	n, err := NewNodeWithConfig("a", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}

	var (
		killed  atomic.Bool
		ackedMu sync.Mutex
		acked   []string
		wg      sync.WaitGroup
	)
	const committers = 4
	wg.Add(committers)
	for g := 0; g < committers; g++ {
		g := g
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if killed.Load() {
					return
				}
				elem := fmt.Sprintf("op-%d-%d", g, i)
				tx := n.Begin()
				store.AWSetAt(tx, "acked").Add(elem, "")
				tx.Commit()
				// Commit returned: the record is fsynced — unless the
				// kill already started, in which case the "ack" may be
				// the walFailed path and proves nothing. Only commits
				// strictly before the kill go into the must-survive set.
				if killed.Load() {
					return
				}
				ackedMu.Lock()
				acked = append(acked, elem)
				ackedMu.Unlock()
			}
		}()
	}

	// Let the committers build up a real history, then kill mid-stream.
	waitUntil(t, "some commits acked", func() bool {
		ackedMu.Lock()
		defer ackedMu.Unlock()
		return len(acked) > 200
	})
	killed.Store(true)
	if err := n.Kill(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	ackedMu.Lock()
	mustSurvive := append([]string(nil), acked...)
	ackedMu.Unlock()
	sort.Strings(mustSurvive)
	t.Logf("killed with %d acked ops", len(mustSurvive))

	// Simulate the torn tail a mid-write kill can leave: a record header
	// promising more bytes than follow. Recovery must truncate it away,
	// not panic.
	tearWALTail(t, dir)

	rec, err := NewNodeWithConfig("a", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	var missing []string
	tx := rec.Begin()
	set := store.AWSetAt(tx, "acked")
	for _, elem := range mustSurvive {
		if !set.Contains(elem) {
			missing = append(missing, elem)
		}
	}
	tx.Commit()
	if len(missing) > 0 {
		t.Fatalf("%d acked ops lost across kill+recover (first: %s)", len(missing), missing[0])
	}
	if st := rec.Stats(); st.WALAppends == 0 {
		t.Fatalf("recovered node reports no WAL activity: %+v", st)
	}
}

// TestSnapshotSyncsDeferredDurableCommits pins the snapshot-after-sync
// rule: a commit whose durability wait is deferred (appended to the log,
// not yet fsynced) is inside the snapshot image, so the snapshot must not
// reach the disk before the record does. Otherwise a crash keeps the
// commit in the snapshot but loses it from the log; the recovered origin
// cannot re-offer it, no peer ever received it (broadcast waits for the
// fsync), and every later commit from the origin stalls at every peer on
// the missing sequence number. The origin has no peers while it commits,
// so no sender's fsync makes the record durable behind the test's back.
func TestSnapshotSyncsDeferredDurableCommits(t *testing.T) {
	dir := t.TempDir()
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	var waits []func()
	tx := a.Begin()
	tx.DeferDurability(&waits)
	store.CounterAt(tx, "c").Add(1)
	tx.Commit()
	if len(waits) != 1 {
		t.Fatalf("durable commit deferred %d waits, want 1", len(waits))
	}
	if err := a.ForceSnapshot(); err != nil {
		t.Fatal(err)
	}
	if err := a.Kill(); err != nil { // the deferred wait never ran
		t.Fatal(err)
	}

	b, err := NewNodeWithConfig("b", "127.0.0.1:0", durableCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec, err := NewNodeWithConfig("a", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if v := counterValue(rec, "c"); v != 1 {
		t.Fatalf("recovered counter = %d, want the snapshot's 1", v)
	}
	rec.AddPeer("b", b.Addr())
	commitN(rec, "c", 1)
	waitUntil(t, "the peer converges on both of the origin's commits", func() bool {
		return counterValue(b, "c") == 2
	})
}

// TestRecoverBuffersRecordsMissingDeps covers a logged transaction whose
// dependency never reached the disk: the node received y and logged it,
// but crashed before x arrived. Recovery must keep y buffered rather than
// apply it or lose it, and apply both once x arrives live (x's origin
// never saw an ack for it, so it resends).
func TestRecoverBuffersRecordsMissingDeps(t *testing.T) {
	dir := t.TempDir()
	n, err := NewNodeWithConfig("n", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	xs := captureTxns("x", "cx", 1)
	ys := captureTxns("y", "cy", 1)
	ys[0].Deps.Set("x", xs[0].LastSeq)
	rawSend(t, n.Addr(), encodeBatch(t, ys[0]))
	waitUntil(t, "y logged and waiting on x", func() bool { return n.Pending() == 1 })
	if err := n.Kill(); err != nil {
		t.Fatal(err)
	}

	rec, err := NewNodeWithConfig("n", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if got := rec.Pending(); got != 1 {
		t.Fatalf("pending = %d after recovery, want 1 (y waits on x)", got)
	}
	if got := rec.Clock().Get("y"); got != 0 {
		t.Fatalf("recovery applied y ahead of its dependency: clock[y] = %d", got)
	}
	rawSend(t, rec.Addr(), encodeBatch(t, xs[0]))
	waitUntil(t, "both apply once x arrives", func() bool {
		return rec.Clock().Get("x") == xs[0].LastSeq && rec.Clock().Get("y") == ys[0].LastSeq && rec.Pending() == 0
	})
	if cx, cy := counterValue(rec, "cx"), counterValue(rec, "cy"); cx != 1 || cy != 1 {
		t.Fatalf("cx = %d, cy = %d after recovery, want 1 and 1", cx, cy)
	}
}

// A snapshot that exists but fails validation must fail recovery loudly:
// the log below it is already truncated, so replaying the log alone would
// bring the node back without transactions it acknowledged.
func TestRecoverRefusesCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.SnapshotEvery = 1
	n, err := NewNodeWithConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.wal.SetSegmentSize(1) // one sealed segment per record, so truncation has units
	for i := 0; i < 5; i++ {
		tx := n.Begin()
		store.AWSetAt(tx, "s").Add(fmt.Sprint(i), "")
		tx.Commit()
	}
	cut := n.Clock()
	n.CompactAll(cut, cut) // snapshot, then truncate the log below the cut
	if st := n.Stats(); st.Snapshots == 0 || st.WALSegments >= 5 {
		t.Fatalf("want a snapshot and a truncated log, got %d snapshots and %d segments", st.Snapshots, st.WALSegments)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, store.SnapshotFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := NewNodeWithConfig("a", "127.0.0.1:0", cfg)
	if err == nil {
		rec.Close()
		t.Fatal("recovery accepted a corrupt snapshot over a truncated log")
	}
}

// tearWALTail appends a partial record to the node's newest WAL segment.
func tearWALTail(t *testing.T, dataDir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dataDir, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments under %s (err %v)", dataDir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], 4096) // promises 4 KiB...
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn")); err != nil { // ...delivers 4 bytes
		t.Fatal(err)
	}
}

// TestOversizedTxnStallDetection is the regression test for the
// oversized-transaction causal gap: the sender drops a transaction too
// large for any frame (counted, announced once), and the receiver —
// which previously stalled silently forever — must now detect the stall,
// log it, and expose the origin in Metrics.StalledOrigins. Clearing the
// gap (here: raising maxFrame would be cheating, so the test only checks
// detection) is the documented state-transfer path. The sender's frame cap
// and the receiver's stall threshold are lowered through Config's test
// hooks; a batch holding the big transaction is split down to it alone.
func TestOversizedTxnStallDetection(t *testing.T) {
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", Config{
		FlushInterval: 100 * time.Microsecond,
		maxFrame:      2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewNodeWithConfig("b", "127.0.0.1:0", Config{
		FlushInterval: 100 * time.Microsecond,
		stallWarn:     30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())

	// One transaction that cannot fit a 2 KiB frame, then small ones
	// that depend on it through origin FIFO.
	big := make([]byte, 8192)
	for i := range big {
		big[i] = 'x'
	}
	tx := a.Begin()
	store.AWSetAt(tx, "s").Add("big", string(big))
	tx.Commit()
	for i := 0; i < 5; i++ {
		tx := a.Begin()
		store.CounterAt(tx, "after").Add(1)
		tx.Commit()
	}

	// The sender must drop the oversized transaction, once and visibly.
	waitUntil(t, "oversized txn dropped at sender", func() bool {
		return a.Stats().TxnsDropped >= 1
	})
	// The receiver must declare the origin stalled once stallWarn
	// elapses — the later transactions sit on a FIFO gap that will
	// never close.
	waitUntil(t, "receiver detects the stall", func() bool {
		return b.Stats().StalledOrigins == 1
	})
	// Nothing past the gap may have applied (that would break causal
	// FIFO), and the gap stays: this is detection, not repair.
	if v := counterValue(b, "after"); v != 0 {
		t.Fatalf("receiver applied %d post-gap txns across a causal gap", v)
	}
}

// TestRecoveredCommitsReachPeerThroughLog pins the offer of recovered
// records: a durable origin commits while its peer refuses every frame,
// so no peer holds any of its acknowledged commits when it is killed.
// Restarted from its data directory, the origin's outbound log starts
// with those records, so the peer converges on every one of them, ahead
// of the commits made after the restart.
func TestRecoveredCommitsReachPeerThroughLog(t *testing.T) {
	dir := t.TempDir()
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNodeWithConfig("b", "127.0.0.1:0", durableCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.BlockOrigin("a", true)
	a.AddPeer("b", b.Addr())
	commitN(a, "c", 50) // each Commit returned after its fsync: acknowledged
	if err := a.Kill(); err != nil {
		t.Fatal(err)
	}

	rec, err := NewNodeWithConfig("a", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.AddPeer("b", b.Addr())
	commitN(rec, "c", 10)
	b.BlockOrigin("a", false)
	waitUntil(t, "the peer converges on every acknowledged commit", func() bool {
		return counterValue(b, "c") == 60 && rec.Stats().QueueDepth == 0
	})
}

// TestRecoveredLogWaitsForEveryPeer adds a recovered node's peers one at
// a time: the first peer catches up on the recovered records before the
// second is added, and the second must still be offered them. The log
// keeps recovered records until the node's next commit for this reason;
// trimming them on the first peer's ack would leave the second stalled on
// a causal gap forever.
func TestRecoveredLogWaitsForEveryPeer(t *testing.T) {
	dir := t.TempDir()
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNodeWithConfig("b", "127.0.0.1:0", durableCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := NewNodeWithConfig("c", "127.0.0.1:0", durableCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	commitN(a, "c", 20) // no peers: nothing leaves a before the crash
	if err := a.Kill(); err != nil {
		t.Fatal(err)
	}

	rec, err := NewNodeWithConfig("a", "127.0.0.1:0", durableCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	rec.AddPeer("b", b.Addr())
	waitUntil(t, "the first peer catches up", func() bool {
		return counterValue(b, "c") == 20 && rec.Stats().QueueDepth == 0
	})
	rec.AddPeer("c", c.Addr())
	commitN(rec, "c", 1)
	waitUntil(t, "the second peer converges too", func() bool {
		return counterValue(c, "c") == 21 && counterValue(b, "c") == 21
	})
}
