package crdt

import (
	"bytes"
	"encoding/gob"
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
		"2=crdt.AWRemoveOp",
		"4=crdt.RWRemoveOp",
		"5=crdt.RWRemoveWhereOp",
		"6=crdt.CounterOp",
		"7=crdt.BCConsumeOp",
		"8=crdt.BCGrantOp",
		"9=crdt.BCTransferOp",
		"10=crdt.LWWSetOp",
		"12=crdt.RWAddOp",
	}
	got := WireIDTable()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wire ID table changed — IDs are append-only, never renumber.\n got: %v\nwant: %v", got, want)
	}
	// Retired: 3 (remove-wins add with observation lists) and 11 (the
	// multi-value register's write). Each is fed with the payload it used
	// to carry and must not decode.
	rwAdd := AppendWireString(AppendWireString(AppendEventID([]byte{3}, eid("r1", 2)), "e"), "p")
	rwAdd = appendEventIDs(appendEventIDs(append(rwAdd, 0), nil), []clock.EventID{eid("r2", 1)})
	mvSet := appendEventIDs(AppendWireString(AppendEventID([]byte{11}, eid("r1", 2)), "v"), []clock.EventID{eid("r1", 1)})
	retired := map[byte][]byte{3: rwAdd, 11: mvSet}
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
		AWRemoveOp{Elem: "e1", Tag: eid("r2", 9), Observed: map[string][]clock.EventID{
			"e1": {eid("r1", 7), eid("r3", 2)},
		}},
		AWRemoveOp{Pred: Match{Index: 2, Value: "bob"}, Tag: eid("r1", 1), Observed: map[string][]clock.EventID{
			"a": {eid("r1", 1)},
			"b": {eid("r2", 2)},
			"c": nil,
		}},
		AWRemoveOp{Pred: MatchAll{}, Tag: eid("r1", 2)},
		AWRemoveOp{Pred: MatchFields{Arity: 3, Fields: []string{"x", "", "z"}}, Tag: eid("r1", 3)},
		RWAddOp{Elem: "u" + TupleSep + "v", Pay: "p", Touch: true, Tag: eid("r9", 12)},
		RWAddOp{Tag: eid("r1", 1)},
		RWRemoveOp{Elem: "gone", Tag: eid("r4", 44)},
		RWRemoveWhereOp{Pred: Match{Index: 0, Value: "k"}, Tag: eid("r5", 55)},
		RWRemoveWhereOp{Tag: eid("r5", 56)}, // nil predicate
		CounterOp{Delta: -1234567, Tag: eid("r6", 66)},
		CounterOp{Delta: 1, Tag: eid("r6", 67)},
		BCConsumeOp{Replica: "siteA", N: 3, Tag: eid("r7", 77)},
		BCGrantOp{Replica: "siteB", N: 1 << 40, Tag: eid("r7", 78)},
		BCTransferOp{From: "siteA", To: "siteB", N: -9, Tag: eid("r7", 79)},
		LWWSetOp{Value: "v", TS: 1 << 50, Tag: eid("r8", 88)},
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
	op := AWRemoveOp{Pred: MatchAll{}, Tag: eid("r1", 1), Observed: map[string][]clock.EventID{
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
	b = AppendWireString(b, "e")
	b = append(b, wirePredNil)
	b = append(b, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01) // uvarint 2^42
	r := NewWireReader(b)
	if _, err := DecodeOpWire(&r); !errors.Is(err, ErrMalformedWire) {
		t.Fatalf("want ErrMalformedWire for hostile count, got %v", err)
	}
}

func TestPredicateWireRoundTrip(t *testing.T) {
	preds := []Predicate{
		nil,
		Match{Index: 0, Value: ""},
		Match{Index: 3, Value: "x" + TupleSep + "y"},
		MatchAll{},
		MatchFields{Arity: 2, Fields: []string{"a", "b"}},
		MatchFields{Arity: 2},
	}
	for _, p := range preds {
		b, err := AppendPredicateWire(nil, p)
		if err != nil {
			t.Fatalf("encode %#v: %v", p, err)
		}
		r := NewWireReader(b)
		got, err := DecodePredicateWire(&r)
		if err != nil {
			t.Fatalf("decode %#v: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("predicate round trip:\n got %#v\nwant %#v", got, p)
		}
	}
}

// testPred is an application-style custom predicate: a type this
// package's wire table has never heard of.
type testPred struct{ A, B string }

func (p testPred) Matches(elem string) bool { return elem == p.A || elem == p.B }

// TestPredicateWireRejectsCustomTypes pins that only the package's own
// predicate types travel: encoding any other type errors (so the sender
// fails its batch instead of shipping it), and predicate ID 4 — the
// retired gob escape hatch that let a peer make the receiver decode an
// arbitrary registered type — is malformed input, fed here byte for byte
// as the old encoder wrote it.
func TestPredicateWireRejectsCustomTypes(t *testing.T) {
	ops := []Op{
		AWRemoveOp{Elem: "e", Tag: clock.EventID{Replica: "r", Seq: 1}, Pred: testPred{A: "x", B: "y"}},
		RWRemoveWhereOp{Pred: testPred{A: "p", B: "q"}, Tag: clock.EventID{Replica: "r", Seq: 2}},
	}
	for _, op := range ops {
		if b, err := AppendOpWire(nil, op); err == nil {
			t.Errorf("%T with a custom predicate encoded to %d bytes; want an error", op, len(b))
		}
	}

	gob.Register(testPred{})
	var payload bytes.Buffer
	var pred Predicate = testPred{A: "p", B: "q"}
	if err := gob.NewEncoder(&payload).Encode(&pred); err != nil {
		t.Fatal(err)
	}
	retired := AppendWireString([]byte{4}, payload.String())
	r := NewWireReader(retired)
	if p, err := DecodePredicateWire(&r); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("retired predicate ID 4 decoded as %#v (err %v); want ErrMalformedWire", p, err)
	}
	op := append(AppendEventID([]byte{wireIDRWRemoveWhere}, eid("r", 2)), retired...)
	r = NewWireReader(op)
	if got, err := DecodeOpWire(&r); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("remove-where carrying predicate ID 4 decoded as %#v (err %v); want ErrMalformedWire", got, err)
	}
}
