package crdt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"ipa/internal/clock"
)

func eid(rep string, seq uint64) clock.EventID {
	return clock.EventID{Replica: clock.ReplicaID(rep), Seq: seq}
}

// TestWireIDPinning pins the assigned wire-ID↔type table byte for byte.
// Wire IDs are the persistent replication protocol: if this test fails
// you renumbered or reused an ID, which silently corrupts every frame and
// write-ahead log written before the change. New op types must APPEND a
// new ID; existing rows never change, and retired IDs are never reused.
func TestWireIDPinning(t *testing.T) {
	want := []string{
		"1=crdt.AWAddOp",
		"4=crdt.RWRemoveOp",
		"6=crdt.CounterOp",
		"7=crdt.BCConsumeOp",
		"8=crdt.BCGrantOp",
		"9=crdt.BCTransferOp",
		"12=crdt.RWAddOp",
		"13=crdt.AWRemoveOp",
		"14=crdt.RWRemoveWhereOp",
	}
	got := WireIDTable()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire ID table changed — IDs are append-only, never renumber.\n got: %v\nwant: %v", got, want)
	}
	// Retired: 2 (add-wins remove with an element and a predicate), 3
	// (remove-wins add with observation lists), 5 (remove-where with a
	// predicate-kind byte), 10 (the last-writer-wins register's write) and
	// 11 (the multi-value register's write). Each is fed with the payload
	// it used to carry and must not decode.
	rwAdd := AppendWireString(AppendWireString(AppendEventID([]byte{3}, eid("r1", 2)), "e"), "p")
	rwAdd = appendEventIDs(appendEventIDs(append(rwAdd, 0), nil), []clock.EventID{eid("r2", 1)})
	lwwSet := AppendWireString(binary.AppendUvarint(AppendEventID([]byte{10}, eid("r1", 2)), 7), "v")
	mvSet := appendEventIDs(AppendWireString(AppendEventID([]byte{11}, eid("r1", 2)), "v"), []clock.EventID{eid("r1", 1)})
	awRemove := append(AppendWireString(AppendEventID([]byte{2}, eid("r1", 3)), "e"), 0, 1) // nil predicate, one element
	awRemove = appendEventIDs(AppendWireString(awRemove, "e"), []clock.EventID{eid("r1", 2)})
	removeWhere := append(AppendEventID([]byte{5}, eid("r1", 4)), 3, 2, 2) // MatchFields, arity 2, two fields
	removeWhere = AppendWireString(AppendWireString(removeWhere, ""), "t1")
	retired := map[byte][]byte{2: awRemove, 3: rwAdd, 5: removeWhere, 10: lwwSet, 11: mvSet}
	for id, frame := range retired {
		r := NewWireReader(frame)
		if op, err := DecodeOpWire(&r); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("retired wire ID %d decoded as %#v (err %v); want ErrMalformedWire", id, op, err)
		}
	}
}

// wireSampleOps exercises every registered op type with every field
// populated, plus zero-ish variants (empty strings, nil slices/maps) that
// must round-trip to DeepEqual-identical values.
func wireSampleOps() []Op {
	return []Op{
		AWAddOp{Elem: "e1", Tag: eid("r1", 7), Pay: "payload", Touch: true},
		AWAddOp{Tag: eid("", 0)},
		AWRemoveOp{Tag: eid("r2", 9), Observed: map[string][]clock.EventID{
			"e1": {eid("r1", 7), eid("r3", 2)},
		}},
		AWRemoveOp{Tag: eid("r1", 1), Observed: map[string][]clock.EventID{
			"a": {eid("r1", 1)},
			"b": {eid("r2", 2)},
			"c": nil,
		}},
		AWRemoveOp{Tag: eid("r1", 2)},
		RWAddOp{Elem: "u" + TupleSep + "v", Pay: "p", Touch: true, Tag: eid("r9", 12)},
		RWAddOp{Tag: eid("r1", 1)},
		RWRemoveOp{Elem: "gone", Tag: eid("r4", 44)},
		RWRemoveWhereOp{Pred: MatchPattern("k"), Tag: eid("r5", 55)},
		RWRemoveWhereOp{Pred: MatchPattern("p", "", "t"), Tag: eid("r5", 56)},
		RWRemoveWhereOp{Pred: MatchPattern("", ""), Tag: eid("r5", 57)},
		RWRemoveWhereOp{Pred: MatchPattern(make([]string, 64)...), Tag: eid("r5", 58)},
		CounterOp{Delta: -1234567, Tag: eid("r6", 66)},
		CounterOp{Delta: 1, Tag: eid("r6", 67)},
		BCConsumeOp{Replica: "siteA", N: 3, Tag: eid("r7", 77)},
		BCGrantOp{Replica: "siteB", N: 1 << 40, Tag: eid("r7", 78)},
		BCTransferOp{From: "siteA", To: "siteB", N: -9, Tag: eid("r7", 79)},
	}
}

func TestOpWireRoundTrip(t *testing.T) {
	for _, op := range wireSampleOps() {
		b, err := AppendOpWire(nil, op)
		if err != nil {
			t.Fatalf("encode %#v: %v", op, err)
		}
		r := NewWireReader(b)
		got, err := DecodeOpWire(&r)
		if err != nil {
			t.Fatalf("decode %#v: %v", op, err)
		}
		if r.Len() != 0 {
			t.Fatalf("decode %#v left %d trailing bytes", op, r.Len())
		}
		if !reflect.DeepEqual(got, op) {
			t.Fatalf("round trip mismatch:\n got %#v\nwant %#v", got, op)
		}
	}
}

// TestOpWireDeterministic pins that encoding is a pure function of the op
// value — map-carrying ops must serialise in sorted order so differential
// tests can compare frames byte for byte.
func TestOpWireDeterministic(t *testing.T) {
	op := AWRemoveOp{Tag: eid("r1", 1), Observed: map[string][]clock.EventID{
		"zebra": {eid("r3", 3)}, "alpha": {eid("r1", 1)}, "mid": {eid("r2", 2)},
	}}
	first, err := AppendOpWire(nil, op)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		again, err := AppendOpWire(nil, op)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("encoding not deterministic on attempt %d", i)
		}
	}
}

// TestOpWireTruncation feeds every strict prefix of every sample op to the
// decoder: each must return an error wrapping ErrMalformedWire — never a
// success, never a panic.
func TestOpWireTruncation(t *testing.T) {
	for _, op := range wireSampleOps() {
		b, err := AppendOpWire(nil, op)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			r := NewWireReader(b[:cut])
			if _, err := DecodeOpWire(&r); err == nil {
				t.Fatalf("decode of %d/%d-byte prefix of %#v succeeded", cut, len(b), op)
			} else if !errors.Is(err, ErrMalformedWire) {
				t.Fatalf("prefix error not ErrMalformedWire: %v", err)
			}
		}
	}
}

func TestOpWireUnknownID(t *testing.T) {
	for _, frame := range [][]byte{{0}, {200}, {255, 1, 2, 3}} {
		r := NewWireReader(frame)
		if _, err := DecodeOpWire(&r); !errors.Is(err, ErrMalformedWire) {
			t.Fatalf("frame %v: want ErrMalformedWire, got %v", frame, err)
		}
	}
}

// TestOpWireHostileCounts pins the count-vs-remaining guard: a frame
// claiming a giant collection must error before allocating for it.
func TestOpWireHostileCounts(t *testing.T) {
	// AWRemoveOp with a claimed 2^42 observed elements and no data behind
	// it.
	b := []byte{wireIDAWRemove}
	b = AppendEventID(b, eid("r1", 1))
	b = append(b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // uvarint 2^42
	r := NewWireReader(b)
	if _, err := DecodeOpWire(&r); !errors.Is(err, ErrMalformedWire) {
		t.Fatalf("want ErrMalformedWire for hostile count, got %v", err)
	}
}

// TestAWRemoveCarriesOnlyObserved pins the add-wins remove's payload: a
// receiver cancels exactly the observed tags, so an exact remove and a
// wildcard remove both encode as the tag and the observed map, nothing
// else, and round-trip to an equal op.
func TestAWRemoveCarriesOnlyObserved(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	s.Apply(s.PrepareAdd(JoinTuple("p1", "t1"), "", g.tag("a")))
	s.Apply(s.PrepareAdd(JoinTuple("p2", "t1"), "", g.tag("b")))
	s.Apply(s.PrepareAdd(JoinTuple("p1", "t2"), "", g.tag("a")))
	ops := map[string]AWRemoveOp{
		"exact":    s.PrepareRemove(JoinTuple("p1", "t1"), g.tag("c")),
		"wildcard": s.PrepareRemoveWhere(MatchPattern("", "t1"), g.tag("c")),
	}
	for name, op := range ops {
		b, err := AppendOpWire(nil, op)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := NewWireReader(b)
		if got, err := DecodeOpWire(&r); err != nil || !reflect.DeepEqual(got, op) {
			t.Fatalf("%s: round trip = %#v (err %v), want %#v", name, got, err, op)
		}
		want := 1 + len(AppendEventID(nil, op.Tag)) + len(binary.AppendUvarint(nil, uint64(len(op.Observed))))
		for elem, tags := range op.Observed {
			want += len(AppendWireString(nil, elem)) + len(appendEventIDs(nil, tags))
		}
		if len(b) != want {
			t.Errorf("%s remove encodes to %d bytes; its wire ID, tag and observed map take %d", name, len(b), want)
		}
	}
}

// snapshotWithPattern encodes a remove-wins set of one add and one
// wildcard tombstone, the last record of its state, and splices pat in
// for the tombstone's pattern.
func snapshotWithPattern(t *testing.T, pat MatchFields) []byte {
	t.Helper()
	s := NewRWSet()
	s.Apply(RWAddOp{Elem: "x", Tag: eid("a", 1)})
	s.Apply(RWRemoveWhereOp{Pred: MatchPattern("x"), Tag: eid("b", 1)})
	state, err := AppendCRDTState(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	tail := append(appendPattern(nil, MatchPattern("x")), 0) // the pattern, then a nil fence
	if !bytes.HasSuffix(state, tail) {
		t.Fatalf("snapshot %q does not end in its wildcard's pattern and fence", state)
	}
	return append(appendPattern(state[:len(state)-len(tail):len(state)-len(tail)], pat), 0)
}

// TestRWRemoveWhereRejectsUnindexablePatterns pins that a wildcard remove
// whose pattern the tombstone index cannot hold is malformed input, as an
// op and inside a snapshot, and that building or applying one in-process
// panics: a set that accepted one could neither match nor encode it.
func TestRWRemoveWhereRejectsUnindexablePatterns(t *testing.T) {
	for name, pat := range map[string]MatchFields{
		"arity 0":             MatchPattern(),
		"arity 65":            MatchPattern(make([]string, 65)...),
		"TupleSep in a value": MatchPattern("p"+TupleSep+"q", ""),
	} {
		op := appendPattern(AppendEventID([]byte{wireIDRWRemoveWhere}, eid("r5", 56)), pat)
		r := NewWireReader(op)
		if got, err := DecodeOpWire(&r); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("%s: remove-where decoded as %#v (err %v); want ErrMalformedWire", name, got, err)
		}

		r = NewWireReader(snapshotWithPattern(t, pat))
		if c, err := DecodeCRDTState(&r); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("%s: snapshot decoded as %#v (err %v); want ErrMalformedWire", name, c, err)
		}

		for what, call := range map[string]func(){
			"PrepareRemoveWhere": func() { NewRWSet().PrepareRemoveWhere(pat, eid("b", 2)) },
			"Apply":              func() { NewRWSet().Apply(RWRemoveWhereOp{Pred: pat, Tag: eid("b", 2)}) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s accepted the pattern; want a panic", name, what)
					}
				}()
				call()
			}()
		}
	}
}
