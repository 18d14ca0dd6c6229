package store

import (
	"encoding/binary"
	"fmt"
	"sync"

	"ipa/internal/clock"
	"ipa/internal/crdt"
)

// WireTxn is the serialisable form of a committed transaction — the
// replication unit exchanged between replicas and handed to
// Replica.Deliver. Inside the simulator it is passed by value; a
// networked transport (package netrepl) ships WireTxn batches as frames
// (FrameEncoder, DecodeFrame).
type WireTxn struct {
	Origin   clock.ReplicaID
	Deps     clock.Vector
	FirstSeq uint64
	LastSeq  uint64
	Updates  []Update

	// walSeq is transport bookkeeping, never encoded: the WAL sequence
	// number the origin's durable commit hook assigned, which the peer
	// senders wait on before putting the transaction on a socket
	// (broadcast-after-fsync; see SetWALSeq).
	walSeq uint64
}

// SetWALSeq stamps the transaction with its WAL append sequence; WALSeq
// reads it back. The field rides along in memory only (the codec never
// encodes it) so a sender goroutine can gate the socket write on
// WaitSynced without a side table.
func (w *WireTxn) SetWALSeq(seq uint64) { w.walSeq = seq }

// WALSeq returns the stamp set by SetWALSeq (zero when never stamped).
func (w *WireTxn) WALSeq() uint64 { return w.walSeq }

// Batch frame format. A frame carries any number of transactions under a
// versioned header:
//
//	offset 0..3  magic "IPAB"
//	offset 4     version byte (WireVersionV2)
//	offset 5..   body
//
// The body is a compact binary encoding (varints, length-prefixed
// strings, crdt wire-ID op payloads):
//
//	uvarint txn count
//	per txn:
//	  origin    string
//	  deps      uvarint count, then (replica string, seq uvarint) pairs
//	            in sorted replica order, the vector's own (deterministic
//	            bytes; crdt.AppendVectorEntries)
//	  firstSeq  uvarint
//	  lastSeq   uvarint
//	  updates   uvarint count, then (key string, op) pairs
//
// Strings are uvarint length + raw bytes; ops are one wire-ID byte + the
// type's MarshalWire payload (see internal/crdt/wire.go).
//
// Version 2 is the only format. DecodeFrame rejects every other version
// byte — including the retired gob formats v0 (a bare gob WireTxn) and v1
// (a gob batch) — as malformed input. An incompatible future format takes
// a new version byte and a new DecodeFrame case.
const (
	batchMagic = "IPAB"
	// WireVersionV2 is the version byte of the binary frame.
	WireVersionV2 = 2
)

// DecodeFrame deserialises one batch frame. Anything but the magic, the
// version byte WireVersionV2 and a well-formed body is an error wrapping
// crdt.ErrMalformedWire. It never panics on any input.
func DecodeFrame(data []byte) ([]WireTxn, error) {
	if len(data) < len(batchMagic)+1 || string(data[:len(batchMagic)]) != batchMagic {
		return nil, fmt.Errorf("%w: no batch frame header", crdt.ErrMalformedWire)
	}
	if v := data[len(batchMagic)]; v != WireVersionV2 {
		return nil, fmt.Errorf("%w: unsupported batch frame version %d", crdt.ErrMalformedWire, v)
	}
	return decodeBatchV2(data[len(batchMagic)+1:])
}

// FrameEncoder builds batch frames into a reusable buffer, so a steady
// replication stream encodes with zero per-frame allocations. Not safe
// for concurrent use; netrepl gives each peer sender its own.
type FrameEncoder struct {
	buf []byte
}

// NewFrameEncoder returns an encoder producing WireVersionV2 frames.
// version must be 0 (the default) or WireVersionV2: any other value
// panics, a programming error like encoding an op type the crdt wire
// codec does not know.
func NewFrameEncoder(version int) *FrameEncoder {
	if version != 0 && version != WireVersionV2 {
		panic(fmt.Sprintf("store: no encoder for frame version %d (only %d)", version, WireVersionV2))
	}
	return &FrameEncoder{}
}

// Encode serialises txns as one batch frame. The returned slice aliases
// the encoder's internal buffer and is valid only until the next Encode
// call — callers must finish writing it to the socket (or copy it) first.
func (e *FrameEncoder) Encode(txns []WireTxn) ([]byte, error) {
	b := append(e.buf[:0], batchMagic...)
	b = append(b, WireVersionV2)
	b = binary.AppendUvarint(b, uint64(len(txns)))
	var err error
	for i := range txns {
		if b, err = e.appendTxn(b, &txns[i]); err != nil {
			return nil, err
		}
	}
	e.buf = b
	return b, nil
}

func (e *FrameEncoder) appendTxn(b []byte, w *WireTxn) ([]byte, error) {
	b = crdt.AppendWireString(b, string(w.Origin))
	b = crdt.AppendVectorEntries(b, w.Deps)
	b = binary.AppendUvarint(b, w.FirstSeq)
	b = binary.AppendUvarint(b, w.LastSeq)
	b = binary.AppendUvarint(b, uint64(len(w.Updates)))
	var err error
	for i := range w.Updates {
		b = crdt.AppendWireString(b, w.Updates[i].Key)
		if b, err = crdt.AppendOpWire(b, w.Updates[i].Op); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// EncodeBatchV2 serialises txns as one v2 frame into a fresh buffer — the
// convenience form for tests and one-shot callers; hot paths hold a
// FrameEncoder.
func EncodeBatchV2(txns []WireTxn) ([]byte, error) {
	out, err := NewFrameEncoder(WireVersionV2).Encode(txns)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), out...), nil
}

// internPool recycles string-interning tables across frame decodes.
// Replication streams repeat replica IDs, keys, and elements on every
// transaction; a warm table decodes those fields without copying. The
// table is capacity-capped inside the reader, so pooled maps stay small
// no matter how hostile or high-cardinality the traffic.
var internPool = sync.Pool{
	New: func() any { return make(map[string]string, 64) },
}

// decodeBatchV2 deserialises the body of a v2 frame (header already
// consumed). All counts are validated against the remaining bytes before
// allocating, and every error wraps crdt.ErrMalformedWire — a hostile or
// truncated frame fails loudly, never panics, never over-allocates.
func decodeBatchV2(body []byte) ([]WireTxn, error) {
	intern := internPool.Get().(map[string]string)
	defer internPool.Put(intern)
	r := crdt.NewWireReader(body)
	r.SetIntern(intern)
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	txns := make([]WireTxn, n)
	for i := range txns {
		if err := decodeTxnV2(&r, &txns[i]); err != nil {
			return nil, err
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", crdt.ErrMalformedWire, r.Len())
	}
	return txns, nil
}

func decodeTxnV2(r *crdt.WireReader, w *WireTxn) error {
	origin, err := r.ReadString()
	if err != nil {
		return err
	}
	w.Origin = clock.ReplicaID(origin)
	if w.Deps, err = r.ReadVectorEntries(); err != nil {
		return err
	}
	if w.FirstSeq, err = r.ReadUvarint(); err != nil {
		return err
	}
	if w.LastSeq, err = r.ReadUvarint(); err != nil {
		return err
	}
	nu, err := r.ReadCount()
	if err != nil {
		return err
	}
	if nu > 0 {
		w.Updates = make([]Update, nu)
		for i := range w.Updates {
			if w.Updates[i].Key, err = r.ReadString(); err != nil {
				return err
			}
			if w.Updates[i].Op, err = crdt.DecodeOpWire(r); err != nil {
				return err
			}
		}
	}
	return nil
}
