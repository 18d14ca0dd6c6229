package store

// Snapshots: a point-in-time image of one replica's full state — every
// object's materialised CRDT state (crdt/state.go codecs) plus the
// replica's version vector. A snapshot plus the WAL suffix above it
// reproduces the replica exactly, which is what makes WAL truncation
// sound: segments below min(stability horizon, snapshot vector) are
// covered twice over.
//
// The capture holds the replica lock (and reads the delivered cut under
// the clock lock), so the image is a consistent cut: it contains exactly
// the transactions counted by its vector. Files are
// written to a temp name, fsynced, and renamed — a crash mid-write leaves
// the previous snapshot intact. A committed snapshot that fails
// validation is an error, never "no snapshot": the log may already be
// truncated below it.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"

	"ipa/internal/clock"
	"ipa/internal/crdt"
)

const (
	snapshotMagic   = "IPAS"
	snapshotVersion = 1
	// SnapshotFile is the snapshot's name inside a replica's data
	// directory.
	SnapshotFile = "snapshot.bin"
)

// Snapshot is a decoded replica image.
type Snapshot struct {
	Replica clock.ReplicaID
	VC      clock.Vector
	Objects map[string]crdt.CRDT
}

// CaptureSnapshot encodes a consistent image of the replica. It excludes
// every in-flight transaction by holding the replica lock for the
// duration, so it pauses the replica — callers amortise it (periodic
// snapshots, not per-commit).
func (r *Replica) CaptureSnapshot() ([]byte, clock.Vector, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clockMu.Lock()
	vc := r.vc.Clone()
	r.clockMu.Unlock()

	keys := make([]string, 0, len(r.objects))
	for k := range r.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	body := crdt.AppendVectorWire(nil, vc)
	body = crdt.AppendWireString(body, string(r.id))
	body = binary.AppendUvarint(body, uint64(len(keys)))
	for _, k := range keys {
		obj := r.objects[k]
		body = crdt.AppendWireString(body, k)
		var err error
		if body, err = crdt.AppendCRDTState(body, obj); err != nil {
			return nil, nil, fmt.Errorf("snapshot: %s: %w", k, err)
		}
	}

	out := make([]byte, 0, len(body)+9)
	out = append(out, snapshotMagic...)
	out = append(out, snapshotVersion)
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	out = append(out, body...)
	return out, vc, nil
}

// DecodeSnapshot parses a snapshot image. Corruption of any kind is an
// error.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < 9 || string(data[:4]) != snapshotMagic {
		return nil, fmt.Errorf("snapshot: bad magic")
	}
	if data[4] != snapshotVersion {
		return nil, fmt.Errorf("snapshot: unknown version %d", data[4])
	}
	body := data[9:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[5:9]) {
		return nil, fmt.Errorf("snapshot: checksum mismatch")
	}
	rd := crdt.NewWireReader(body)
	vc, err := crdt.DecodeVectorWire(&rd)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	id, err := rd.ReadString()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	n, err := rd.ReadCount()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s := &Snapshot{Replica: clock.ReplicaID(id), VC: vc, Objects: make(map[string]crdt.CRDT, n)}
	if s.VC == nil {
		s.VC = clock.New()
	}
	for i := 0; i < n; i++ {
		k, err := rd.ReadString()
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		obj, err := crdt.DecodeCRDTState(&rd)
		if err != nil {
			return nil, fmt.Errorf("snapshot: object %s: %w", k, err)
		}
		s.Objects[k] = obj
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("snapshot: %d trailing bytes", rd.Len())
	}
	return s, nil
}

// RestoreSnapshot installs a decoded image into a fresh replica: objects,
// version vector, and the local event-tag counter. It must run before the
// replica serves any traffic.
func (r *Replica) RestoreSnapshot(s *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, obj := range s.Objects {
		r.objects[k] = obj
	}
	r.clockMu.Lock()
	r.vc.Merge(s.VC)
	r.clockMu.Unlock()
	if seq := s.VC.Get(r.id); seq > r.seq {
		r.seq = seq
	}
}

// WriteSnapshotFile atomically replaces the snapshot in dir.
func WriteSnapshotFile(dir string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	tmp := filepath.Join(dir, SnapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, SnapshotFile)); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// ReadSnapshotFile loads and decodes the snapshot in dir. It returns nil
// and no error when none exists, and an error when the file cannot be
// read or fails validation: recovery must not fall back to the log,
// which TruncateBelow may already have cut below the snapshot.
func ReadSnapshotFile(dir string) (*Snapshot, error) {
	path := filepath.Join(dir, SnapshotFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	s, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
