package store

// The write-ahead op log. Records are the replication wire frames
// themselves (wire.go): a frame is already a deterministic, versioned,
// self-describing batch of transactions, so the log borrows the codec
// wholesale and adds only what a file needs that a socket does not — a
// length prefix and a CRC per record, segmentation, and fsync.
//
// Durability contract (enforced by the netrepl layer, see DESIGN.md):
//
//   - every transaction is appended *before* it is applied or
//     acknowledged, so the durable cut always covers the applied cut and
//     therefore the stability horizon;
//   - an append is not durable until WaitSynced returns for its sequence
//     number — appends buffer in memory and a group-commit leader flushes
//     and fsyncs for every waiter of the same window;
//   - segments may be deleted only below the pointwise minimum of the
//     stability horizon and the latest snapshot's vector (TruncateBelow
//     trusts its caller on this): below the horizon every replica has the
//     record, below the snapshot recovery does not need it.
//
// A crash can tear the tail of the active segment mid-record. Recovery
// treats the first torn record (short header, a length past the end of
// the file, bad CRC) as the end of the log: everything before it is
// replayed, the file is truncated there, and the torn bytes are ignored.
// Nothing past a torn record was ever acknowledged — WaitSynced had not
// returned for it — so dropping it loses nothing the node promised. A
// record whose CRC matches was written whole, so one that DecodeFrame
// rejects is not torn: it may have been acknowledged, and OpenWAL refuses
// the log (an error wrapping crdt.ErrMalformedWire) without changing any
// file.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"ipa/internal/clock"
)

const (
	// walRecordHeader is the per-record overhead: 4-byte big-endian
	// payload length + 4-byte IEEE CRC of the payload.
	walRecordHeader = 8
	// maxWALRecord bounds a record's claimed length during replay — a
	// corrupt header must not provoke a multi-gigabyte allocation. Kept
	// well above any frame the transport can produce.
	maxWALRecord = 256 << 20
	// defaultSegmentSize rotates segments at this many bytes so
	// truncation has units to delete.
	defaultSegmentSize = 8 << 20
)

// walSegment is one on-disk log file. Only the newest segment is open
// for writing; sealed segments keep just the bookkeeping truncation
// needs.
type walSegment struct {
	index int
	path  string
	size  int64
	// maxByOrigin is the highest transaction sequence this segment holds
	// per origin — the fact TruncateBelow consults. Rebuilt from the
	// record scan on open.
	maxByOrigin map[clock.ReplicaID]uint64
}

// WAL is a per-replica write-ahead log of replication frames. Append is
// cheap (an in-memory buffer under a mutex); WaitSynced provides group
// commit: the first waiter becomes the flush leader for everything
// appended so far, later waiters ride the same fsync.
type WAL struct {
	dir     string
	segSize int64

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when syncedSeq advances or err sets
	seg       *walSegment
	file      *os.File
	sealed    []*walSegment
	buf       []byte // appended records not yet handed to the file
	appendSeq uint64 // last sequence number assigned by Append
	syncedSeq uint64 // last sequence number known durable
	syncing   bool   // a flush leader is running
	err       error  // sticky I/O error; the WAL is dead once set

	appends   uint64
	syncs     uint64
	bytes     uint64
	truncated uint64
}

// WALStats is a point-in-time snapshot of the log's counters.
type WALStats struct {
	Appends   uint64 // records appended
	Syncs     uint64 // fsync batches (group commits)
	Bytes     uint64 // payload + header bytes appended
	Segments  int    // segments currently on disk
	Truncated uint64 // segments deleted by truncation
}

// OpenWAL opens (creating if absent) the log in dir and replays every
// intact record, oldest first, through replay before returning. A torn
// record ends the replay: the log is truncated at the last intact record
// and any later segments are discarded. An intact record that does not
// decode fails the open and leaves every file as it was. The returned WAL
// is open for appending.
func OpenWAL(dir string, replay func(frame []byte, txns []WireTxn) error) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{dir: dir, segSize: defaultSegmentSize}
	w.cond = sync.NewCond(&w.mu)

	indexes, err := walSegmentIndexes(dir)
	if err != nil {
		return nil, err
	}
	valid := true
	for _, idx := range indexes {
		seg := &walSegment{index: idx, path: walSegmentPath(dir, idx), maxByOrigin: map[clock.ReplicaID]uint64{}}
		if !valid {
			// A torn record in an earlier segment ends the log; later
			// segments hold records that would replay out of order, so
			// they go with it.
			log.Printf("wal: discarding segment %s beyond a torn record", seg.path)
			if err := os.Remove(seg.path); err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
			continue
		}
		ok, err := w.scanSegment(seg, replay)
		if err != nil {
			return nil, err
		}
		valid = ok
		w.sealed = append(w.sealed, seg)
	}

	// Appends go to a fresh segment past everything scanned; sealed
	// segments are never reopened for writing.
	next := 0
	if n := len(w.sealed); n > 0 {
		next = w.sealed[n-1].index + 1
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	return w, nil
}

func walSegmentPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", idx))
}

func walSegmentIndexes(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &idx); err == nil {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	return idxs, nil
}

// scanSegment replays one segment's records. It reports false when it hit
// a torn record (after truncating the file there); an I/O error or an
// undecodable intact record is returned as an error.
func (w *WAL) scanSegment(seg *walSegment, replay func([]byte, []WireTxn) error) (bool, error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	off := 0
	for {
		if off == len(data) {
			seg.size = int64(off)
			return true, nil
		}
		rest := data[off:]
		if len(rest) < walRecordHeader {
			break
		}
		n := binary.BigEndian.Uint32(rest)
		if n > maxWALRecord || int(n) > len(rest)-walRecordHeader {
			break
		}
		payload := rest[walRecordHeader : walRecordHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(rest[4:]) {
			break
		}
		txns, err := DecodeFrame(payload)
		if err != nil {
			return false, fmt.Errorf("wal: %s: record at byte %d: %w", seg.path, off, err)
		}
		if replay != nil {
			if err := replay(payload, txns); err != nil {
				return false, err
			}
		}
		for i := range txns {
			if txns[i].LastSeq > seg.maxByOrigin[txns[i].Origin] {
				seg.maxByOrigin[txns[i].Origin] = txns[i].LastSeq
			}
		}
		w.appends++
		w.bytes += uint64(walRecordHeader + int(n))
		off += walRecordHeader + int(n)
	}
	// Torn tail: keep the intact prefix, drop the rest.
	log.Printf("wal: truncating torn tail of %s at byte %d (of %d)", seg.path, off, len(data))
	if err := os.Truncate(seg.path, int64(off)); err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	seg.size = int64(off)
	return false, nil
}

func (w *WAL) openSegment(idx int) error {
	path := walSegmentPath(w.dir, idx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	w.seg = &walSegment{index: idx, path: path, maxByOrigin: map[clock.ReplicaID]uint64{}}
	w.file = f
	return nil
}

// Append buffers one frame as a log record and returns its log sequence
// number for WaitSynced. The frame must be a valid replication frame
// (DecodeFrame must accept it on replay); txns are its decoded
// transactions, used for truncation bookkeeping.
func (w *WAL) Append(frame []byte, txns []WireTxn) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	if w.seg.size >= w.segSize && !w.syncing && len(w.buf) == 0 {
		if err := w.rotateLocked(); err != nil {
			w.fail(err)
			return 0, err
		}
	}
	var hdr [walRecordHeader]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(frame)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(frame))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, frame...)
	w.seg.size += int64(walRecordHeader + len(frame))
	for i := range txns {
		if txns[i].LastSeq > w.seg.maxByOrigin[txns[i].Origin] {
			w.seg.maxByOrigin[txns[i].Origin] = txns[i].LastSeq
		}
	}
	w.appendSeq++
	w.appends++
	w.bytes += uint64(walRecordHeader + len(frame))
	return w.appendSeq, nil
}

// rotateLocked seals the active segment and opens the next. Called with
// mu held, no flush in flight, and the buffer empty, so the file holds
// everything the segment will ever hold.
func (w *WAL) rotateLocked() error {
	if err := w.file.Sync(); err != nil {
		return err
	}
	if err := w.file.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, w.seg)
	return w.openSegment(w.seg.index + 1)
}

// fail records a sticky I/O error and wakes every waiter; with mu held.
func (w *WAL) fail(err error) {
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
}

// WaitSynced blocks until the record Append returned seq for is durable
// (flushed and fsynced). The first caller to arrive for an unflushed
// window becomes the leader and syncs on behalf of every concurrent
// waiter — group commit.
func (w *WAL) WaitSynced(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if w.err != nil {
			return w.err
		}
		if w.syncedSeq >= seq {
			return nil
		}
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		target := w.appendSeq
		data := w.buf
		w.buf = nil
		file := w.file
		w.mu.Unlock()
		var err error
		if len(data) > 0 {
			_, err = file.Write(data)
		}
		if err == nil {
			err = file.Sync()
		}
		w.mu.Lock()
		w.syncing = false
		w.syncs++
		if err != nil {
			w.fail(err)
			return err
		}
		if target > w.syncedSeq {
			w.syncedSeq = target
		}
		w.cond.Broadcast()
	}
}

// Sync makes everything appended so far durable.
func (w *WAL) Sync() error {
	w.mu.Lock()
	seq := w.appendSeq
	w.mu.Unlock()
	return w.WaitSynced(seq)
}

// SetSegmentSize overrides the rotation threshold (default 8 MiB).
// Smaller segments give truncation finer units to delete — the knob for
// deployments (and benchmarks) where bounding replay matters more than
// file count. Safe while the log is in use; the next flush that crosses
// the new threshold rotates.
func (w *WAL) SetSegmentSize(n int64) {
	if n <= 0 {
		return
	}
	w.mu.Lock()
	w.segSize = n
	w.mu.Unlock()
}

// TruncateBelow deletes sealed segments every record of which lies at or
// below cut for its origin. The caller must guarantee cut is covered both
// by the stability horizon (every replica holds the records) and by a
// durable snapshot (recovery will not need them); see the package
// comment.
func (w *WAL) TruncateBelow(cut clock.Vector) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	kept := make([]*walSegment, 0, len(w.sealed))
	var firstErr error
	for _, seg := range w.sealed {
		deletable := firstErr == nil
		for origin, max := range seg.maxByOrigin {
			if max > cut.Get(origin) {
				deletable = false
				break
			}
		}
		if !deletable {
			kept = append(kept, seg)
			continue
		}
		if err := os.Remove(seg.path); err != nil {
			kept = append(kept, seg)
			firstErr = fmt.Errorf("wal: %w", err)
			continue
		}
		w.truncated++
	}
	w.sealed = kept
	return firstErr
}

// RecordsAbove returns the decoded transactions of every logged record
// not covered by cut — the tail a node serves to a bootstrapping peer.
// All origins are included: records whose origin has left the mesh
// survive only in the logs of the nodes that received them. Anything
// truncated was below the stability horizon, hence inside every live
// member's state (and any donor snapshot). It flushes first so the scan
// sees all appends.
func (w *WAL) RecordsAbove(cut clock.Vector) ([]WireTxn, error) {
	if err := w.Sync(); err != nil {
		return nil, err
	}
	w.mu.Lock()
	segs := make([]*walSegment, 0, len(w.sealed)+1)
	segs = append(segs, w.sealed...)
	segs = append(segs, w.seg)
	w.mu.Unlock()
	var out []WireTxn
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		off := 0
		for off+walRecordHeader <= len(data) {
			n := int(binary.BigEndian.Uint32(data[off:]))
			if n > len(data)-off-walRecordHeader {
				break
			}
			payload := data[off+walRecordHeader : off+walRecordHeader+n]
			txns, err := DecodeFrame(payload)
			if err != nil {
				break
			}
			for i := range txns {
				if txns[i].LastSeq > cut.Get(txns[i].Origin) {
					out = append(out, txns[i])
				}
			}
			off += walRecordHeader + n
		}
	}
	return out, nil
}

// Stats returns the log's counters.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WALStats{
		Appends:   w.appends,
		Syncs:     w.syncs,
		Bytes:     w.bytes,
		Segments:  len(w.sealed) + 1,
		Truncated: w.truncated,
	}
}

// Abandon closes the log WITHOUT flushing the append buffer — the
// kill -9 path. Records appended but never synced are lost, which is
// exactly the guarantee: nothing was acknowledged (to a client or a
// peer) before its WaitSynced returned, so dropping the unsynced tail
// loses no acked operation.
func (w *WAL) Abandon() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file == nil {
		return nil
	}
	err := w.file.Close()
	w.file = nil
	w.buf = nil
	w.fail(fmt.Errorf("wal: abandoned"))
	return err
}

// Close flushes, fsyncs, and closes the log.
func (w *WAL) Close() error {
	syncErr := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.file == nil {
		return syncErr
	}
	err := w.file.Close()
	w.file = nil
	w.fail(fmt.Errorf("wal: closed"))
	if syncErr != nil {
		return syncErr
	}
	return err
}
