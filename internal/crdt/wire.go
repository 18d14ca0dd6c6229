package crdt

// The replication wire codec: every registered operation (and predicate)
// type serialises itself with a hand-written MarshalWire/UnmarshalWire
// pair, dispatched through a stable one-byte wire ID. It is the only op
// encoding on the replication path (store/netrepl batch frames, the WAL):
// the codec appends into a caller-owned buffer and decodes with a cursor
// over the received frame, allocating only the strings, slices, and maps
// the decoded op itself owns, with no reflection and no per-frame type
// definitions.
//
// Wire IDs are part of the persistent protocol (frames on the wire and
// records in every write-ahead log): they may never be renumbered or
// reused, only appended. TestWireIDPinning pins the full ID↔type table so
// an accidental re-registration breaks a test, not a recovering log.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"ipa/internal/clock"
)

// Stable operation wire IDs. Append-only; never renumber. A retired ID
// decodes as ErrMalformedWire and is never assigned again:
//
//	3   remove-wins add with enumerated observation lists (now 12)
//	11  multi-value register write (the register was deleted)
const (
	wireIDAWAdd         byte = 1
	wireIDAWRemove      byte = 2
	wireIDRWRemove      byte = 4
	wireIDRWRemoveWhere byte = 5
	wireIDCounter       byte = 6
	wireIDBCConsume     byte = 7
	wireIDBCGrant       byte = 8
	wireIDBCTransfer    byte = 9
	wireIDLWWSet        byte = 10
	wireIDRWAdd         byte = 12
)

// Stable predicate wire IDs (predicates travel inside wildcard removes).
// Only the package's own predicate types travel; an application
// expresses its wipes with them. Append-only; a retired ID decodes as
// ErrMalformedWire and is never assigned again:
//
//	4   any other predicate type as a gob payload (a peer could make the
//	    receiver decode an arbitrary registered type)
const (
	wirePredNil         byte = 0
	wirePredMatch       byte = 1
	wirePredMatchAll    byte = 2
	wirePredMatchFields byte = 3
)

// ErrMalformedWire tags every decode failure of the binary codec: a
// truncated buffer, an unknown wire ID, or a length field that exceeds
// the data that carries it. Decoding never panics on any input.
var ErrMalformedWire = errors.New("crdt: malformed wire data")

func wireErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMalformedWire, fmt.Sprintf(format, args...))
}

// --- Reader -------------------------------------------------------------

// WireReader is a cursor over one received frame. The zero value reads
// nothing; construct with NewWireReader. Decoded strings are copied out
// of the buffer, so the frame may be reused (pooled) once decoding ends.
type WireReader struct {
	data   []byte
	off    int
	intern map[string]string
}

// Interning bounds: only short strings are worth a table slot (replica
// IDs, keys, set elements — the values that repeat across every txn of a
// stream), and the table stops growing at a fixed cap so high-cardinality
// payloads cannot bloat a pooled map.
const (
	internMaxLen     = 64
	internMaxEntries = 4096
)

// NewWireReader returns a reader over data.
func NewWireReader(data []byte) WireReader { return WireReader{data: data} }

// SetIntern installs a string-interning table: decoded strings up to
// internMaxLen bytes are deduplicated through it instead of copied per
// occurrence. Replication streams repeat the same replica IDs, keys, and
// elements on every transaction, so a receive path that keeps a pooled
// table across frames decodes those fields allocation-free.
func (r *WireReader) SetIntern(m map[string]string) { r.intern = m }

// Len reports the unread byte count.
func (r *WireReader) Len() int { return len(r.data) - r.off }

// ReadByte consumes one byte.
func (r *WireReader) ReadByte() (byte, error) {
	if r.off >= len(r.data) {
		return 0, wireErrf("truncated at byte %d", r.off)
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

// ReadUvarint consumes one unsigned varint.
func (r *WireReader) ReadUvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, wireErrf("bad uvarint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// ReadVarint consumes one signed (zig-zag) varint.
func (r *WireReader) ReadVarint() (int64, error) {
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		return 0, wireErrf("bad varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// ReadCount consumes a count field. Every counted item occupies at least
// one byte, so a count exceeding the unread bytes is malformed — the
// guard that keeps a hostile frame from provoking an absurd allocation.
func (r *WireReader) ReadCount() (int, error) {
	v, err := r.ReadUvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.Len()) {
		return 0, wireErrf("count %d exceeds %d remaining bytes", v, r.Len())
	}
	return int(v), nil
}

// ReadString consumes one length-prefixed string (copied out of the
// frame — or deduplicated through the intern table when one is installed
// — so the frame buffer may be pooled).
func (r *WireReader) ReadString() (string, error) {
	n, err := r.ReadCount()
	if err != nil {
		return "", err
	}
	raw := r.data[r.off : r.off+n]
	r.off += n
	if r.intern != nil && n <= internMaxLen {
		// The compiler elides the []byte→string copy in map lookups, so a
		// hit costs one hash and zero allocations.
		if s, ok := r.intern[string(raw)]; ok {
			return s, nil
		}
		s := string(raw)
		if len(r.intern) < internMaxEntries {
			r.intern[s] = s
		}
		return s, nil
	}
	return string(raw), nil
}

// ReadEventID consumes one event identifier.
func (r *WireReader) ReadEventID() (clock.EventID, error) {
	rep, err := r.ReadString()
	if err != nil {
		return clock.EventID{}, err
	}
	seq, err := r.ReadUvarint()
	if err != nil {
		return clock.EventID{}, err
	}
	return clock.EventID{Replica: clock.ReplicaID(rep), Seq: seq}, nil
}

func (r *WireReader) readEventIDs() ([]clock.EventID, error) {
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]clock.EventID, n)
	for i := range out {
		if out[i], err = r.ReadEventID(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// --- Append helpers -----------------------------------------------------

// AppendWireString appends a length-prefixed string.
func AppendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendEventID appends one event identifier.
func AppendEventID(b []byte, e clock.EventID) []byte {
	b = AppendWireString(b, string(e.Replica))
	return binary.AppendUvarint(b, e.Seq)
}

func appendEventIDs(b []byte, es []clock.EventID) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = AppendEventID(b, e)
	}
	return b
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func (r *WireReader) readBool() (bool, error) {
	b, err := r.ReadByte()
	if err != nil {
		return false, err
	}
	return b != 0, nil
}

// --- Predicates ---------------------------------------------------------

// AppendPredicateWire appends one predicate (nil allowed). A predicate
// type outside this package's set is an error, like an unknown op.
func AppendPredicateWire(b []byte, p Predicate) ([]byte, error) {
	switch q := p.(type) {
	case nil:
		return append(b, wirePredNil), nil
	case Match:
		b = append(b, wirePredMatch)
		b = binary.AppendUvarint(b, uint64(q.Index))
		return AppendWireString(b, q.Value), nil
	case MatchAll:
		return append(b, wirePredMatchAll), nil
	case MatchFields:
		b = append(b, wirePredMatchFields)
		b = binary.AppendUvarint(b, uint64(q.Arity))
		b = binary.AppendUvarint(b, uint64(len(q.Fields)))
		for _, f := range q.Fields {
			b = AppendWireString(b, f)
		}
		return b, nil
	default:
		return nil, fmt.Errorf("crdt: predicate %T has no wire codec", p)
	}
}

// DecodePredicateWire consumes one predicate.
func DecodePredicateWire(r *WireReader) (Predicate, error) {
	id, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch id {
	case wirePredNil:
		return nil, nil
	case wirePredMatch:
		idx, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		v, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		return Match{Index: int(idx), Value: v}, nil
	case wirePredMatchAll:
		return MatchAll{}, nil
	case wirePredMatchFields:
		arity, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		n, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		m := MatchFields{Arity: int(arity)}
		if n > 0 {
			m.Fields = make([]string, n)
			for i := range m.Fields {
				if m.Fields[i], err = r.ReadString(); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	default:
		return nil, wireErrf("unknown predicate wire ID %d", id)
	}
}

// --- Operation dispatch -------------------------------------------------

// AppendOpWire appends one operation as wire ID + payload. Dispatch is a
// compile-time type switch — no reflection on the hot path. An op type
// outside the registered set is a programming error reported as an error
// (the transport fails the batch loudly rather than shipping a frame no
// receiver can decode).
func AppendOpWire(b []byte, op Op) ([]byte, error) {
	switch o := op.(type) {
	case AWAddOp:
		return o.MarshalWire(append(b, wireIDAWAdd)), nil
	case AWRemoveOp:
		return o.MarshalWire(append(b, wireIDAWRemove))
	case RWAddOp:
		return o.MarshalWire(append(b, wireIDRWAdd)), nil
	case RWRemoveOp:
		return o.MarshalWire(append(b, wireIDRWRemove)), nil
	case RWRemoveWhereOp:
		return o.MarshalWire(append(b, wireIDRWRemoveWhere))
	case CounterOp:
		return o.MarshalWire(append(b, wireIDCounter)), nil
	case BCConsumeOp:
		return o.MarshalWire(append(b, wireIDBCConsume)), nil
	case BCGrantOp:
		return o.MarshalWire(append(b, wireIDBCGrant)), nil
	case BCTransferOp:
		return o.MarshalWire(append(b, wireIDBCTransfer)), nil
	case LWWSetOp:
		return o.MarshalWire(append(b, wireIDLWWSet)), nil
	default:
		return nil, fmt.Errorf("crdt: op %T has no wire codec", op)
	}
}

// opDecoder materialises one op from its wire payload (ID already read).
type opDecoder func(r *WireReader) (Op, error)

// wireDecoders is the ID-indexed decode table, filled by init below. The
// registry checks at init time that every registered op type encodes —
// see register — so the table and the registry cannot drift.
var wireDecoders [256]opDecoder

// wireOpTypeNames names each assigned ID for the pinning test.
var wireOpTypeNames = map[byte]string{}

func registerWireOp(id byte, name string, dec opDecoder) {
	if wireDecoders[id] != nil {
		panic(fmt.Sprintf("crdt: wire ID %d registered twice (%s and %s)", id, wireOpTypeNames[id], name))
	}
	wireDecoders[id] = dec
	wireOpTypeNames[id] = name
}

// The table is filled by a package-level var initializer, not func init:
// the spec runs all variable initializers before any init function, so the
// registry's init (registry.go sorts before wire.go) can rely on the table
// when it validates codecs via checkWireCodec.
var _ = func() bool {
	registerWireOp(wireIDAWAdd, "crdt.AWAddOp", decodeAWAdd)
	registerWireOp(wireIDAWRemove, "crdt.AWRemoveOp", decodeAWRemove)
	registerWireOp(wireIDRWRemove, "crdt.RWRemoveOp", decodeRWRemove)
	registerWireOp(wireIDRWRemoveWhere, "crdt.RWRemoveWhereOp", decodeRWRemoveWhere)
	registerWireOp(wireIDCounter, "crdt.CounterOp", decodeCounter)
	registerWireOp(wireIDBCConsume, "crdt.BCConsumeOp", decodeBCConsume)
	registerWireOp(wireIDBCGrant, "crdt.BCGrantOp", decodeBCGrant)
	registerWireOp(wireIDBCTransfer, "crdt.BCTransferOp", decodeBCTransfer)
	registerWireOp(wireIDLWWSet, "crdt.LWWSetOp", decodeLWWSet)
	registerWireOp(wireIDRWAdd, "crdt.RWAddOp", decodeRWAdd)
	return true
}()

// DecodeOpWire consumes one operation (wire ID + payload).
func DecodeOpWire(r *WireReader) (Op, error) {
	id, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	dec := wireDecoders[id]
	if dec == nil {
		return nil, wireErrf("unknown op wire ID %d", id)
	}
	return dec(r)
}

// WireIDTable returns the assigned ID→type-name mapping, sorted by ID —
// the surface the pinning test locks down.
func WireIDTable() []string {
	ids := make([]int, 0, len(wireOpTypeNames))
	for id := range wireOpTypeNames {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, fmt.Sprintf("%d=%s", id, wireOpTypeNames[byte(id)]))
	}
	return out
}

// checkWireCodec panics unless op has both an encoder and a decoder —
// called by the registry for every op it registers, so adding an op type
// without extending the wire codec fails at init (every test run), not
// on a live mesh.
func checkWireCodec(op Op) {
	b, err := AppendOpWire(nil, op)
	if err != nil {
		panic(fmt.Sprintf("crdt: registered op has no wire encoder: %v", err))
	}
	r := NewWireReader(b)
	if _, err := DecodeOpWire(&r); err != nil {
		panic(fmt.Sprintf("crdt: registered op %T does not round-trip its zero value: %v", op, err))
	}
}

// --- Per-op codecs ------------------------------------------------------

// MarshalWire appends the op payload (without the wire ID).
func (o AWAddOp) MarshalWire(b []byte) []byte {
	b = AppendEventID(b, o.Tag)
	b = AppendWireString(b, o.Elem)
	b = AppendWireString(b, o.Pay)
	return appendBool(b, o.Touch)
}

func decodeAWAdd(r *WireReader) (Op, error) {
	var o AWAddOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	if o.Elem, err = r.ReadString(); err != nil {
		return nil, err
	}
	if o.Pay, err = r.ReadString(); err != nil {
		return nil, err
	}
	if o.Touch, err = r.readBool(); err != nil {
		return nil, err
	}
	return o, nil
}

// MarshalWire appends the op payload. The observed map is written in
// sorted element order so encoding is deterministic (byte-identical
// re-encoding is a property the differential tests rely on).
func (o AWRemoveOp) MarshalWire(b []byte) ([]byte, error) {
	b = AppendEventID(b, o.Tag)
	b = AppendWireString(b, o.Elem)
	b, err := AppendPredicateWire(b, o.Pred)
	if err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(o.Observed)))
	switch len(o.Observed) {
	case 0:
	case 1:
		for elem, tags := range o.Observed {
			b = AppendWireString(b, elem)
			b = appendEventIDs(b, tags)
		}
	default:
		elems := make([]string, 0, len(o.Observed))
		for elem := range o.Observed {
			elems = append(elems, elem)
		}
		sort.Strings(elems)
		for _, elem := range elems {
			b = AppendWireString(b, elem)
			b = appendEventIDs(b, o.Observed[elem])
		}
	}
	return b, nil
}

func decodeAWRemove(r *WireReader) (Op, error) {
	var o AWRemoveOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	if o.Elem, err = r.ReadString(); err != nil {
		return nil, err
	}
	if o.Pred, err = DecodePredicateWire(r); err != nil {
		return nil, err
	}
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		o.Observed = make(map[string][]clock.EventID, n)
		for i := 0; i < n; i++ {
			elem, err := r.ReadString()
			if err != nil {
				return nil, err
			}
			tags, err := r.readEventIDs()
			if err != nil {
				return nil, err
			}
			o.Observed[elem] = tags
		}
	}
	return o, nil
}

// MarshalWire appends the op payload. Deps is not encoded: the enclosing
// transaction carries it.
func (o RWAddOp) MarshalWire(b []byte) []byte {
	b = AppendEventID(b, o.Tag)
	b = AppendWireString(b, o.Elem)
	b = AppendWireString(b, o.Pay)
	return appendBool(b, o.Touch)
}

func decodeRWAdd(r *WireReader) (Op, error) {
	var o RWAddOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	if o.Elem, err = r.ReadString(); err != nil {
		return nil, err
	}
	if o.Pay, err = r.ReadString(); err != nil {
		return nil, err
	}
	if o.Touch, err = r.readBool(); err != nil {
		return nil, err
	}
	return o, nil
}

// MarshalWire appends the op payload.
func (o RWRemoveOp) MarshalWire(b []byte) []byte {
	b = AppendEventID(b, o.Tag)
	return AppendWireString(b, o.Elem)
}

func decodeRWRemove(r *WireReader) (Op, error) {
	var o RWRemoveOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	if o.Elem, err = r.ReadString(); err != nil {
		return nil, err
	}
	return o, nil
}

// MarshalWire appends the op payload.
func (o RWRemoveWhereOp) MarshalWire(b []byte) ([]byte, error) {
	b = AppendEventID(b, o.Tag)
	return AppendPredicateWire(b, o.Pred)
}

func decodeRWRemoveWhere(r *WireReader) (Op, error) {
	var o RWRemoveWhereOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	if o.Pred, err = DecodePredicateWire(r); err != nil {
		return nil, err
	}
	return o, nil
}

// MarshalWire appends the op payload.
func (o CounterOp) MarshalWire(b []byte) []byte {
	b = AppendEventID(b, o.Tag)
	return binary.AppendVarint(b, o.Delta)
}

func decodeCounter(r *WireReader) (Op, error) {
	var o CounterOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	if o.Delta, err = r.ReadVarint(); err != nil {
		return nil, err
	}
	return o, nil
}

// MarshalWire appends the op payload.
func (o BCConsumeOp) MarshalWire(b []byte) []byte {
	b = AppendEventID(b, o.Tag)
	b = AppendWireString(b, string(o.Replica))
	return binary.AppendVarint(b, o.N)
}

func decodeBCConsume(r *WireReader) (Op, error) {
	var o BCConsumeOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	rep, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	o.Replica = clock.ReplicaID(rep)
	if o.N, err = r.ReadVarint(); err != nil {
		return nil, err
	}
	return o, nil
}

// MarshalWire appends the op payload.
func (o BCGrantOp) MarshalWire(b []byte) []byte {
	b = AppendEventID(b, o.Tag)
	b = AppendWireString(b, string(o.Replica))
	return binary.AppendVarint(b, o.N)
}

func decodeBCGrant(r *WireReader) (Op, error) {
	var o BCGrantOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	rep, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	o.Replica = clock.ReplicaID(rep)
	if o.N, err = r.ReadVarint(); err != nil {
		return nil, err
	}
	return o, nil
}

// MarshalWire appends the op payload.
func (o BCTransferOp) MarshalWire(b []byte) []byte {
	b = AppendEventID(b, o.Tag)
	b = AppendWireString(b, string(o.From))
	b = AppendWireString(b, string(o.To))
	return binary.AppendVarint(b, o.N)
}

func decodeBCTransfer(r *WireReader) (Op, error) {
	var o BCTransferOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	from, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	to, err := r.ReadString()
	if err != nil {
		return nil, err
	}
	o.From, o.To = clock.ReplicaID(from), clock.ReplicaID(to)
	if o.N, err = r.ReadVarint(); err != nil {
		return nil, err
	}
	return o, nil
}

// MarshalWire appends the op payload.
func (o LWWSetOp) MarshalWire(b []byte) []byte {
	b = AppendEventID(b, o.Tag)
	b = binary.AppendUvarint(b, o.TS)
	return AppendWireString(b, o.Value)
}

func decodeLWWSet(r *WireReader) (Op, error) {
	var o LWWSetOp
	var err error
	if o.Tag, err = r.ReadEventID(); err != nil {
		return nil, err
	}
	if o.TS, err = r.ReadUvarint(); err != nil {
		return nil, err
	}
	if o.Value, err = r.ReadString(); err != nil {
		return nil, err
	}
	return o, nil
}
