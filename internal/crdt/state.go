package crdt

// State codecs: every CRDT serialises its full materialised state with a
// hand-written codec, dispatched through a one-byte state kind — the
// snapshot counterpart of the per-operation wire codec in wire.go. The
// store's snapshot files and the join/state-transfer protocol are built
// from these records, so the same rules apply: kinds are append-only and
// never renumbered, encoding is deterministic (sorted map order), and
// decoding never panics on any input (ErrMalformedWire on all failures).
//
// Indexes and local statistics are deliberately not encoded: RWSet's
// pattern indexes are rebuilt as decoding inserts its records, and
// CompSet.CompensationsApplied is a per-process counter. Everything else
// — including remove-wins discard fences, whose nil-vs-set distinction
// changes compaction behaviour — round-trips exactly.

import (
	"encoding/binary"
	"sort"

	"ipa/internal/clock"
)

// Stable state kinds. Append-only; never renumber. A retired kind
// decodes as ErrMalformedWire and is never assigned again:
//
//	2  remove-wins set with per-add observation sets (later 8)
//	5  last-writer-wins register (deleted)
//	6  multi-value register (deleted)
//	8  remove-wins set whose wildcard records carried a predicate-kind
//	   byte (now 9)
const (
	stateKindAWSet   byte = 1
	stateKindPN      byte = 3
	stateKindBounded byte = 4
	stateKindCompSet byte = 7
	stateKindRWSet   byte = 9
)

// --- Vector / event-set helpers ------------------------------------------

// AppendVectorWire appends a version vector in sorted replica order (the
// vector's own order). A nil vector is encoded distinctly from an empty
// one: remove-wins discard fences use nil for "not yet fenced", and
// compaction behaves differently across that boundary.
func AppendVectorWire(b []byte, v clock.Vector) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	return AppendVectorEntries(b, v)
}

// AppendVectorEntries appends v's entry count and then each (replica,
// seq) pair — the body AppendVectorWire writes after its presence byte,
// and the dependency vector of a replication frame.
func AppendVectorEntries(b []byte, v clock.Vector) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, e := range v {
		b = AppendWireString(b, string(e.Replica))
		b = binary.AppendUvarint(b, e.Seq)
	}
	return b
}

// DecodeVectorWire consumes one version vector (possibly nil).
func DecodeVectorWire(r *WireReader) (clock.Vector, error) {
	present, err := r.readBool()
	if err != nil {
		return nil, err
	}
	if !present {
		return nil, nil
	}
	v, err := r.ReadVectorEntries()
	if v == nil && err == nil {
		v = clock.New()
	}
	return v, err
}

// ReadVectorEntries consumes what AppendVectorEntries wrote: nil for a
// count of zero, else one slice sized from the count. Entries out of
// order are sorted and a repeated replica keeps its last value, so any
// input decodes to a canonical vector.
func (r *WireReader) ReadVectorEntries() (clock.Vector, error) {
	n, err := r.ReadCount()
	if err != nil || n == 0 {
		return nil, err
	}
	v := make(clock.Vector, 0, n)
	for i := 0; i < n; i++ {
		rep, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		seq, err := r.ReadUvarint()
		if err != nil {
			return nil, err
		}
		v = append(v, clock.Entry{Replica: clock.ReplicaID(rep), Seq: seq})
	}
	return clock.Normalize(v), nil
}

func appendEventSet(b []byte, s eventSet) []byte {
	es := s.list()
	sort.Slice(es, func(i, j int) bool { return es[i].Less(es[j]) })
	return appendEventIDs(b, es)
}

// readEventSet consumes an event set, keeping the newest event of each
// origin as the set does.
func (r *WireReader) readEventSet() (eventSet, error) {
	es, err := r.readEventIDs()
	if err != nil {
		return nil, err
	}
	var s eventSet
	for _, e := range es {
		s = s.supersede(e)
	}
	return s, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedReplicas(m map[clock.ReplicaID]int64) []clock.ReplicaID {
	keys := make([]clock.ReplicaID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// --- Dispatch -------------------------------------------------------------

// AppendCRDTState appends one CRDT's full state as kind + payload.
func AppendCRDTState(b []byte, c CRDT) ([]byte, error) {
	switch o := c.(type) {
	case *AWSet:
		return o.appendState(append(b, stateKindAWSet)), nil
	case *RWSet:
		return o.appendState(append(b, stateKindRWSet)), nil
	case *PNCounter:
		return o.appendState(append(b, stateKindPN)), nil
	case *BoundedCounter:
		return o.appendState(append(b, stateKindBounded)), nil
	case *CompSet:
		return o.appendState(append(b, stateKindCompSet)), nil
	default:
		return nil, wireErrf("CRDT %T has no state codec", c)
	}
}

// DecodeCRDTState consumes one CRDT state (kind + payload) and
// materialises a fresh object holding it.
func DecodeCRDTState(r *WireReader) (CRDT, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case stateKindAWSet:
		return decodeAWSetState(r)
	case stateKindRWSet:
		return decodeRWSetState(r)
	case stateKindPN:
		return decodePNState(r)
	case stateKindBounded:
		return decodeBoundedState(r)
	case stateKindCompSet:
		return decodeCompSetState(r)
	default:
		return nil, wireErrf("unknown state kind %d", kind)
	}
}

// --- AWSet ----------------------------------------------------------------

func (s *AWSet) appendState(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.elems)))
	for _, elem := range sortedKeys(s.elems) {
		e := s.elems[elem]
		b = AppendWireString(b, elem)
		b = appendEventSet(b, e.tags)
		b = AppendWireString(b, e.payload)
	}
	b = binary.AppendUvarint(b, uint64(len(s.graveyard)))
	for _, elem := range sortedKeys(s.graveyard) {
		g := s.graveyard[elem]
		b = AppendWireString(b, elem)
		b = AppendWireString(b, g.payload)
		b = AppendEventID(b, g.removed)
	}
	return b
}

func decodeAWSetState(r *WireReader) (*AWSet, error) {
	s := NewAWSet()
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		elem, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		tags, err := r.readEventSet()
		if err != nil {
			return nil, err
		}
		pay, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		s.elems[elem] = awElem{tags: tags, payload: pay}
	}
	if n, err = r.ReadCount(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		elem, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		pay, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		removed, err := r.ReadEventID()
		if err != nil {
			return nil, err
		}
		s.graveyard[elem] = graveEntry{payload: pay, removed: removed}
	}
	return s, nil
}

// --- RWSet ----------------------------------------------------------------

func (s *RWSet) appendState(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.adds)))
	for _, elem := range sortedKeys(s.adds) {
		recs := sortedByTag(s.adds[elem])
		b = AppendWireString(b, elem)
		b = AppendWireString(b, s.payload[elem])
		b = binary.AppendUvarint(b, uint64(len(recs)))
		for _, a := range recs {
			b = AppendEventID(b, a.tag)
			b = AppendVectorWire(b, a.cut)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(s.removes)))
	for _, elem := range sortedKeys(s.removes) {
		tombs := sortedByTag(s.removes[elem])
		b = AppendWireString(b, elem)
		b = binary.AppendUvarint(b, uint64(len(tombs)))
		for _, t := range tombs {
			b = AppendEventID(b, t.tag)
			b = AppendVectorWire(b, t.fence)
		}
	}
	wilds := make([]*wildRemove, 0, len(s.wild))
	for _, w := range s.wild {
		wilds = append(wilds, w)
	}
	b = binary.AppendUvarint(b, uint64(len(wilds)))
	for _, w := range sortedByTag(wilds) {
		b = AppendEventID(b, w.tag)
		b = appendPattern(b, w.pred)
		b = AppendVectorWire(b, w.fence)
	}
	return b
}

// sortedByTag returns a copy of list in event order.
func sortedByTag[T tagged](list []T) []T {
	out := append([]T(nil), list...)
	sort.Slice(out, func(i, j int) bool { return out[i].id().Less(out[j].id()) })
	return out
}

// decodeRWSetState inserts every record through the path Apply takes,
// which rebuilds the pattern index and collapses any records of one
// origin the encoder did not.
func decodeRWSetState(r *WireReader) (*RWSet, error) {
	s := NewRWSet()
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		elem, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		pay, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		m, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		for j := 0; j < m; j++ {
			e, err := r.ReadEventID()
			if err != nil {
				return nil, err
			}
			cut, err := DecodeVectorWire(r)
			if err != nil {
				return nil, err
			}
			s.insertAdd(elem, rwAdd{tag: e, cut: cut})
		}
		s.payload[elem] = pay
	}
	if n, err = r.ReadCount(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		elem, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		m, err := r.ReadCount()
		if err != nil {
			return nil, err
		}
		for j := 0; j < m; j++ {
			e, err := r.ReadEventID()
			if err != nil {
				return nil, err
			}
			fence, err := DecodeVectorWire(r)
			if err != nil {
				return nil, err
			}
			s.insertRemove(elem, rwTomb{tag: e, fence: fence})
		}
	}
	if n, err = r.ReadCount(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		e, err := r.ReadEventID()
		if err != nil {
			return nil, err
		}
		pred, err := r.readPattern()
		if err != nil {
			return nil, err
		}
		fence, err := DecodeVectorWire(r)
		if err != nil {
			return nil, err
		}
		s.insertWild(&wildRemove{tag: e, pred: pred, fence: fence})
	}
	return s, nil
}

// --- Counters ---------------------------------------------------------------

func (c *PNCounter) appendState(b []byte) []byte {
	b = binary.AppendVarint(b, c.value)
	b = binary.AppendVarint(b, c.incs)
	return binary.AppendVarint(b, c.decs)
}

func decodePNState(r *WireReader) (*PNCounter, error) {
	c := NewPNCounter()
	var err error
	if c.value, err = r.ReadVarint(); err != nil {
		return nil, err
	}
	if c.incs, err = r.ReadVarint(); err != nil {
		return nil, err
	}
	if c.decs, err = r.ReadVarint(); err != nil {
		return nil, err
	}
	return c, nil
}

func appendReplicaAmounts(b []byte, m map[clock.ReplicaID]int64) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	for _, rep := range sortedReplicas(m) {
		b = AppendWireString(b, string(rep))
		b = binary.AppendVarint(b, m[rep])
	}
	return b
}

func (r *WireReader) readReplicaAmounts() (map[clock.ReplicaID]int64, error) {
	n, err := r.ReadCount()
	if err != nil {
		return nil, err
	}
	m := make(map[clock.ReplicaID]int64, n)
	for i := 0; i < n; i++ {
		rep, err := r.ReadString()
		if err != nil {
			return nil, err
		}
		v, err := r.ReadVarint()
		if err != nil {
			return nil, err
		}
		m[clock.ReplicaID(rep)] = v
	}
	return m, nil
}

func (c *BoundedCounter) appendState(b []byte) []byte {
	b = appendReplicaAmounts(b, c.rights)
	return appendReplicaAmounts(b, c.consumed)
}

func decodeBoundedState(r *WireReader) (*BoundedCounter, error) {
	rights, err := r.readReplicaAmounts()
	if err != nil {
		return nil, err
	}
	consumed, err := r.readReplicaAmounts()
	if err != nil {
		return nil, err
	}
	return &BoundedCounter{rights: rights, consumed: consumed}, nil
}

// --- CompSet ----------------------------------------------------------------

func (c *CompSet) appendState(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(c.maxSize))
	return c.set.appendState(b)
}

func decodeCompSetState(r *WireReader) (*CompSet, error) {
	maxSize, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	set, err := decodeAWSetState(r)
	if err != nil {
		return nil, err
	}
	return &CompSet{set: set, maxSize: int(maxSize)}, nil
}
