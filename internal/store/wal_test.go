package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ipa/internal/clock"
	"ipa/internal/crdt"
)

// walFrame encodes txns as one v2 replication frame — the WAL's record
// payload format.
func walFrame(t *testing.T, txns ...WireTxn) []byte {
	t.Helper()
	enc := NewFrameEncoder(WireVersionV2)
	data, err := enc.Encode(txns)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// appendSynced appends one single-txn record and makes it durable.
func appendSynced(t *testing.T, w *WAL, txn WireTxn) {
	t.Helper()
	seq, err := w.Append(walFrame(t, txn), []WireTxn{txn})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitSynced(seq); err != nil {
		t.Fatal(err)
	}
}

// replayAll reopens the log in dir and returns every replayed txn.
func replayAll(t *testing.T, dir string) ([]WireTxn, *WAL) {
	t.Helper()
	var got []WireTxn
	w, err := OpenWAL(dir, func(_ []byte, txns []WireTxn) error {
		got = append(got, txns...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, w
}

func TestWALReplayRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []WireTxn
	for i := uint64(0); i < 20; i++ {
		txn := sampleTxn("a", i, i+1)
		want = append(want, txn)
		appendSynced(t, w, txn)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, w2 := replayAll(t, dir)
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d txns, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Origin != want[i].Origin || got[i].FirstSeq != want[i].FirstSeq || got[i].LastSeq != want[i].LastSeq {
			t.Fatalf("txn %d: got %v..%v want %v..%v", i, got[i].FirstSeq, got[i].LastSeq, want[i].FirstSeq, want[i].LastSeq)
		}
	}
	// Replay is append order — a reopened log must keep appending past it.
	appendSynced(t, w2, sampleTxn("a", 20, 21))
	got2, w3 := replayAll(t, dir)
	defer w3.Close()
	if len(got2) != 21 {
		t.Fatalf("after reopen+append: replayed %d txns, want 21", len(got2))
	}
}

func TestWALGroupCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Many goroutines append then wait; the group-commit leader should
	// fsync for whole windows of them, so syncs land well under appends.
	const n = 64
	var wg sync.WaitGroup
	wg.Add(n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			txn := sampleTxn("g", uint64(i), uint64(i)+1)
			seq, err := w.Append(walFrame(t, txn), []WireTxn{txn})
			if err == nil {
				err = w.WaitSynced(seq)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Appends != n {
		t.Fatalf("appends = %d, want %d", st.Appends, n)
	}
	if st.Syncs == 0 || st.Syncs > st.Appends {
		t.Fatalf("syncs = %d with %d appends — group commit not batching", st.Syncs, st.Appends)
	}
	t.Logf("group commit: %d appends in %d syncs", st.Appends, st.Syncs)
}

// tornTailCase mangles a synced single-segment log in some way a crash
// mid-write could; every variant must reopen to the intact prefix.
func TestWALTornTail(t *testing.T) {
	cases := []struct {
		name   string
		mangle func(t *testing.T, path string)
		keep   int // records expected to survive out of 5
	}{
		{"short-header", func(t *testing.T, path string) {
			chopTail(t, path, 3) // fewer bytes than a record header
		}, 4},
		{"short-payload", func(t *testing.T, path string) {
			chopTail(t, path, walRecordHeader+2) // header promises more than remains
		}, 4},
		{"bad-crc", func(t *testing.T, path string) {
			flipLastPayloadByte(t, path)
		}, 4},
		{"trailing-garbage", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			// A plausible-looking header whose payload never made it.
			var hdr [walRecordHeader]byte
			binary.BigEndian.PutUint32(hdr[:4], 1<<20)
			if _, err := f.Write(hdr[:]); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "wal")
			w, err := OpenWAL(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 5; i++ {
				appendSynced(t, w, sampleTxn("a", i, i+1))
			}
			path := walSegmentPath(dir, 0)
			w.Close()

			tc.mangle(t, path)
			got, w2 := replayAll(t, dir)
			if len(got) != tc.keep {
				t.Fatalf("replayed %d records, want %d", len(got), tc.keep)
			}
			// The log stays usable: append past the truncation point and
			// replay once more.
			appendSynced(t, w2, sampleTxn("a", uint64(tc.keep), uint64(tc.keep)+1))
			w2.Close()
			got2, w3 := replayAll(t, dir)
			w3.Close()
			if len(got2) != tc.keep+1 {
				t.Fatalf("after repair+append: replayed %d, want %d", len(got2), tc.keep+1)
			}
		})
	}
}

func chopTail(t *testing.T, path string, leave int) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut back to the last record boundary, then leave a partial suffix.
	if err := os.Truncate(path, info.Size()-recordSizeOnDisk(t, path)+int64(leave)); err != nil {
		t.Fatal(err)
	}
}

// recordSizeOnDisk returns the byte size of the final record of a log of
// identical-size records.
func recordSizeOnDisk(t *testing.T, path string) int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(data)
	return int64(walRecordHeader + int(n))
}

func flipLastPayloadByte(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A torn record in an earlier segment ends the whole log: later segments
// would replay records out of order, so they are discarded with it.
func TestWALTornMiddleSegmentDiscardsLaterOnes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.segSize = 1 // rotate after every record
	for i := uint64(0); i < 4; i++ {
		appendSynced(t, w, sampleTxn("a", i, i+1))
	}
	w.Close()
	flipLastPayloadByte(t, walSegmentPath(dir, 1))

	got, w2 := replayAll(t, dir)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1 (intact prefix before the torn segment)", len(got))
	}
	// Appends continue past the amputation and replay cleanly.
	appendSynced(t, w2, sampleTxn("a", 1, 2))
	w2.Close()
	got2, w3 := replayAll(t, dir)
	defer w3.Close()
	if len(got2) != 2 {
		t.Fatalf("after discard+append: replayed %d records, want 2", len(got2))
	}
}

// An intact record (its CRC matches) that this binary cannot decode — a
// retired op wire ID — was acknowledged when it was written. It is not a
// torn tail: opening the log must fail and leave every file as it was,
// rather than truncate the acked record and everything after it.
func TestWALRefusesUndecodableIntactRecord(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSynced(t, w, sampleTxn("a", 0, 1))
	seq, err := w.Append(retiredOpFrames()["op ID 3"], []WireTxn{sampleTxn("a", 1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitSynced(seq); err != nil {
		t.Fatal(err)
	}
	appendSynced(t, w, sampleTxn("a", 2, 3))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)

	replayed := 0
	_, err = OpenWAL(dir, func(_ []byte, txns []WireTxn) error {
		replayed += len(txns)
		return nil
	})
	if !errors.Is(err, crdt.ErrMalformedWire) {
		t.Fatalf("OpenWAL = %v after replaying %d records; want an error wrapping ErrMalformedWire", err, replayed)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused open changed the log: %d files before, %d after", len(before), len(after))
	}
}

// readDir returns every file in dir by name, with its bytes.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func TestWALTruncateBelow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.segSize = 1 // seal a segment per record
	for i := uint64(0); i < 6; i++ {
		appendSynced(t, w, sampleTxn("a", i, i+1))
	}
	if st := w.Stats(); st.Segments < 5 {
		t.Fatalf("segments = %d, want several sealed ones", st.Segments)
	}

	// Cut covers the first three records only.
	if err := w.TruncateBelow(clock.Of(map[clock.ReplicaID]uint64{"a": 3})); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Truncated == 0 {
		t.Fatal("no segments truncated below a covering cut")
	}
	// Everything above the cut must still be served.
	tail, err := w.RecordsAbove(clock.Of(map[clock.ReplicaID]uint64{"a": 3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 3 {
		t.Fatalf("RecordsAbove returned %d txns, want 3", len(tail))
	}
	for i, txn := range tail {
		if want := uint64(4 + i); txn.LastSeq != want {
			t.Fatalf("tail[%d].LastSeq = %d, want %d", i, txn.LastSeq, want)
		}
	}
}

// TestWALRotatesUnderDeferredWaits pins segment rotation and truncation
// when appends overlap flushes: Append rotates only while no flush is in
// flight and the buffer is empty, and a committer that defers its
// durability waits (Txn.DeferDurability, one fsync per batch) keeps the
// buffer non-empty between its batch flushes, while a second committer
// waiting per commit keeps flushes in flight. The log must still seal
// segments as it grows, and truncation must still delete them.
func TestWALRotatesUnderDeferredWaits(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetSegmentSize(512)

	r := NewReplica("a")
	enc := NewFrameEncoder(WireVersionV2)
	r.SetOnCommit(func(txn WireTxn) func() {
		// Runs under the replica lock, which serialises enc.
		frame, err := enc.Encode([]WireTxn{txn})
		if err != nil {
			panic(err)
		}
		seq, err := w.Append(frame, []WireTxn{txn})
		if err != nil {
			panic(err)
		}
		return func() {
			if err := w.WaitSynced(seq); err != nil {
				panic(err)
			}
		}
	})
	commit := func(key string, sink *[]func()) {
		tx := r.Begin()
		if sink != nil {
			tx.DeferDurability(sink)
		}
		CounterAt(tx, key).Add(1)
		tx.Commit()
	}

	const batches, batchSize, perCommit = 100, 8, 400
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the per-commit waiter: flushes overlap the batches
		defer wg.Done()
		for i := 0; i < perCommit; i++ {
			commit("solo", nil)
		}
	}()
	var waits []func()
	for b := 0; b < batches; b++ {
		for i := 0; i < batchSize; i++ {
			commit("batched", &waits)
		}
		if len(waits) != batchSize {
			t.Fatalf("batch %d deferred %d waits, want %d", b, len(waits), batchSize)
		}
		for _, wait := range waits { // the batch's acknowledgement point
			wait()
		}
		waits = waits[:0]
	}
	wg.Wait()

	st := w.Stats()
	if want := uint64(batches*batchSize + perCommit); st.Appends != want {
		t.Fatalf("appends = %d, want %d", st.Appends, want)
	}
	if st.Segments < 10 {
		t.Fatalf("segments = %d after %d bytes in 512-byte segments: rotation starved by overlapping appends", st.Segments, st.Bytes)
	}
	if err := w.TruncateBelow(r.Clock()); err != nil {
		t.Fatal(err)
	}
	after := w.Stats()
	if after.Truncated == 0 || after.Segments != 1 {
		t.Fatalf("truncation below the full cut left %d of %d segments (%d deleted), want only the active one",
			after.Segments, st.Segments, after.Truncated)
	}
	t.Logf("%d appends in %d syncs, %d segments sealed and truncated", st.Appends, st.Syncs, after.Truncated)
}

func TestWALRecordsAboveFiltersPerOrigin(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendSynced(t, w, sampleTxn("a", 0, 1))
	appendSynced(t, w, sampleTxn("b", 0, 1))
	appendSynced(t, w, sampleTxn("a", 1, 2))
	appendSynced(t, w, sampleTxn("b", 1, 2))

	tail, err := w.RecordsAbove(clock.Of(map[clock.ReplicaID]uint64{"a": 2, "b": 1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Origin != "b" || tail[0].LastSeq != 2 {
		t.Fatalf("tail = %+v, want only b's 1..2", tail)
	}
}

// Abandon is the kill -9 path: buffered-but-unsynced records vanish,
// synced ones survive — and nothing unsynced was ever acknowledged.
func TestWALAbandonDropsUnsyncedSuffix(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	w, err := OpenWAL(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSynced(t, w, sampleTxn("a", 0, 1))
	appendSynced(t, w, sampleTxn("a", 1, 2))
	// Appended, never synced: still sitting in the in-memory buffer.
	for i := uint64(2); i < 5; i++ {
		txn := sampleTxn("a", i, i+1)
		if _, err := w.Append(walFrame(t, txn), []WireTxn{txn}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Abandon(); err != nil {
		t.Fatal(err)
	}

	got, w2 := replayAll(t, dir)
	defer w2.Close()
	if len(got) != 2 {
		t.Fatalf("replayed %d records after abandon, want the 2 synced ones", len(got))
	}
	// The abandoned handle is dead.
	if _, err := w.Append([]byte("x"), nil); err == nil {
		t.Fatal("append on an abandoned WAL should fail")
	}
}
