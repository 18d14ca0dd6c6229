package store

import (
	"bytes"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/wan"
)

func sampleTxn(origin clock.ReplicaID, first, last uint64) WireTxn {
	return WireTxn{
		Origin:   origin,
		Deps:     clock.Vector{origin: first},
		FirstSeq: first,
		LastSeq:  last,
		Updates: []Update{
			{Key: "s", Op: crdt.AWAddOp{Elem: "x", Tag: clock.EventID{Replica: origin, Seq: last}}},
		},
	}
}

// retiredFrames builds one frame of each retired gob format, byte for
// byte as pre-v2 senders wrote them: v0 is a bare gob-encoded WireTxn,
// v1 is "IPAB\x01" followed by a gob-encoded batch. Nothing in the
// package encodes either any more; they exist to prove DecodeFrame
// rejects them.
func retiredFrames(t testing.TB) (v0, v1 []byte) {
	t.Helper()
	gob.Register(crdt.AWAddOp{}) // the op type inside sampleTxn's interface
	txns := []WireTxn{sampleTxn("a", 0, 1), sampleTxn("a", 1, 2)}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(txns[0]); err != nil {
		t.Fatal(err)
	}
	v0 = append([]byte(nil), buf.Bytes()...)
	type gobBatch struct{ Txns []WireTxn }
	buf.Reset()
	buf.WriteString("IPAB\x01")
	if err := gob.NewEncoder(&buf).Encode(gobBatch{Txns: txns}); err != nil {
		t.Fatal(err)
	}
	return v0, buf.Bytes()
}

// retiredOpFrames builds v2 frames whose one update carries a retired op
// or predicate wire ID, with the payload senders wrote before it was
// retired: op 3 is the remove-wins add with its observation lists (one
// exact remove, one wildcard), op 11 the multi-value register write with
// its observed list, predicate 4 a gob-encoded custom predicate.
func retiredOpFrames() map[string][]byte {
	frame := func(id byte, payload func([]byte) []byte) []byte {
		b := append([]byte("IPAB\x02"), 1) // one txn
		b = crdt.AppendWireString(b, "a")
		b = append(b, 0, 0, 1, 1) // no deps, seq (0, 1], one update
		b = crdt.AppendWireString(b, "k")
		return payload(append(b, id))
	}
	tag := clock.EventID{Replica: "a", Seq: 1}
	return map[string][]byte{
		"op ID 3": frame(3, func(b []byte) []byte {
			b = crdt.AppendEventID(b, tag)
			b = crdt.AppendWireString(b, "e")
			b = crdt.AppendWireString(b, "p")
			b = append(b, 0, 1) // touch false, one observed remove
			b = crdt.AppendEventID(b, clock.EventID{Replica: "b", Seq: 4})
			b = append(b, 1) // one observed wildcard
			return crdt.AppendEventID(b, clock.EventID{Replica: "c", Seq: 2})
		}),
		"op ID 11": frame(11, func(b []byte) []byte {
			b = crdt.AppendEventID(b, tag)
			b = crdt.AppendWireString(b, "v")
			b = append(b, 1) // one observed write
			return crdt.AppendEventID(b, clock.EventID{Replica: "b", Seq: 1})
		}),
		// A remove-where (op ID 5, still live) whose predicate is the
		// retired ID 4: a length-prefixed gob payload of any registered
		// type. The decoder refuses the ID before reading the payload.
		"predicate ID 4": frame(5, func(b []byte) []byte {
			b = crdt.AppendEventID(b, tag)
			return crdt.AppendWireString(append(b, 4), "\x0e\xff\x81\x03\x01\x01\x08testPred")
		}),
	}
}

// TestDecodeFrameRejectsRetiredFormats pins that the gob formats v0 and
// v1, and v2 frames carrying a retired op or predicate wire ID, are rejected as
// malformed input, not decoded.
func TestDecodeFrameRejectsRetiredFormats(t *testing.T) {
	v0, v1 := retiredFrames(t)
	frames := retiredOpFrames()
	frames["v0"], frames["v1"] = v0, v1
	for name, frame := range frames {
		txns, err := DecodeFrame(frame)
		if !errors.Is(err, crdt.ErrMalformedWire) {
			t.Errorf("%s frame: DecodeFrame = %d txns, err %v; want an error wrapping ErrMalformedWire", name, len(txns), err)
		}
	}
}

func TestDecodeFrameRejectsGarbageAndBadVersion(t *testing.T) {
	bad, err := EncodeBatchV2([]WireTxn{sampleTxn("a", 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	bad[4] = 99 // unsupported version byte
	for name, frame := range map[string][]byte{
		"garbage":      []byte("garbage-not-a-frame"),
		"empty":        nil,
		"magic only":   []byte("IPAB"),
		"bad version":  bad,
		"v1 junk body": append([]byte("IPAB\x01"), "junk"...),
		"v2 junk body": append([]byte("IPAB\x02"), "junk"...),
		"version zero": []byte("IPAB\x00"),
		"wrong magic":  []byte("IPAX\x02\x00"),
	} {
		if _, err := DecodeFrame(frame); !errors.Is(err, crdt.ErrMalformedWire) {
			t.Errorf("%s: err = %v, want an error wrapping ErrMalformedWire", name, err)
		}
	}
}

// richTxns builds a batch exercising every registered op type, every
// predicate, multi-replica dep vectors, and empty edge cases — the corpus
// the v2 codec must carry with full fidelity.
func richTxns() []WireTxn {
	e := func(rep string, seq uint64) clock.EventID {
		return clock.EventID{Replica: clock.ReplicaID(rep), Seq: seq}
	}
	return []WireTxn{
		{
			Origin:   "a",
			Deps:     clock.Vector{"a": 4, "b": 9, "c": 2},
			FirstSeq: 5, LastSeq: 7,
			Updates: []Update{
				{Key: "aw", Op: crdt.AWAddOp{Elem: "x", Tag: e("a", 5), Pay: "p", Touch: true}},
				{Key: "aw", Op: crdt.AWRemoveOp{Elem: "x", Tag: e("a", 6), Observed: map[string][]clock.EventID{"x": {e("a", 5)}}}},
				{Key: "aw", Op: crdt.AWRemoveOp{Pred: crdt.Match{Index: 1, Value: "v"}, Tag: e("a", 7)}},
			},
		},
		{
			Origin:   "b",
			FirstSeq: 0, LastSeq: 1, // no deps: the first txn of a fresh origin
			Updates: []Update{
				{Key: "rw", Op: crdt.RWAddOp{Elem: "y", Pay: "q", Tag: e("b", 1)}},
				{Key: "rw", Op: crdt.RWAddOp{Elem: "y", Touch: true, Tag: e("b", 1)}},
				{Key: "rw", Op: crdt.RWRemoveOp{Elem: "y", Tag: e("b", 1)}},
				{Key: "rw", Op: crdt.RWRemoveWhereOp{Pred: crdt.MatchAll{}, Tag: e("b", 1)}},
				{Key: "rw", Op: crdt.RWRemoveWhereOp{Pred: crdt.MatchFields{Arity: 2, Fields: []string{"f", "g"}}, Tag: e("b", 1)}},
			},
		},
		{
			Origin: "c", Deps: clock.Vector{"a": 7},
			FirstSeq: 2, LastSeq: 2,
			Updates: []Update{
				{Key: "pn", Op: crdt.CounterOp{Delta: -42, Tag: e("c", 2)}},
				{Key: "bc", Op: crdt.BCConsumeOp{Replica: "c", N: 3, Tag: e("c", 2)}},
				{Key: "bc", Op: crdt.BCGrantOp{Replica: "a", N: 10, Tag: e("c", 2)}},
				{Key: "bc", Op: crdt.BCTransferOp{From: "c", To: "a", N: 1, Tag: e("c", 2)}},
				{Key: "lww", Op: crdt.LWWSetOp{Value: "v", TS: 99, Tag: e("c", 2)}},
			},
		},
		{Origin: "d", FirstSeq: 0, LastSeq: 0}, // empty txn record
	}
}

// TestBatchRoundTrip round-trips a small batch through the FrameEncoder,
// the path senders use to build batch frames.
func TestBatchRoundTrip(t *testing.T) {
	txns := []WireTxn{sampleTxn("a", 0, 1), sampleTxn("a", 1, 2), sampleTxn("b", 0, 1)}
	data, err := NewFrameEncoder(0).Encode(txns)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("decoded %d txns, want 3", len(back))
	}
	for i := range txns {
		if back[i].Origin != txns[i].Origin || back[i].LastSeq != txns[i].LastSeq {
			t.Fatalf("txn %d: got %+v want %+v", i, back[i], txns[i])
		}
		if len(back[i].Updates) != 1 {
			t.Fatalf("txn %d: lost updates", i)
		}
	}
}

func TestBatchEmpty(t *testing.T) {
	data, err := NewFrameEncoder(0).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("decoded %d txns from empty batch", len(back))
	}
}

func TestBatchV2RoundTrip(t *testing.T) {
	txns := richTxns()
	data, err := EncodeBatchV2(txns)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, txns) {
		t.Fatalf("v2 round trip mismatch:\n got %+v\nwant %+v", back, txns)
	}
	// Encoding is deterministic, so decode→re-encode is byte-identical —
	// the property the fuzz target leans on.
	again, err := EncodeBatchV2(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("v2 re-encode of decoded batch differs from original bytes")
	}
}

func TestBatchV2Empty(t *testing.T) {
	data, err := EncodeBatchV2(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("decoded %d txns from empty v2 batch", len(back))
	}
}

// TestFrameEncoderReuse pins the buffer-reuse contract: back-to-back
// encodes return correct frames, and the steady state allocates nothing.
func TestFrameEncoderReuse(t *testing.T) {
	enc := NewFrameEncoder(0)
	txns := richTxns()
	want, err := EncodeBatchV2(txns)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := enc.Encode(txns)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encode %d: frame differs from one-shot encoding", i)
		}
	}
	// Steady-state allocations. The sample batch includes an AWRemoveOp
	// with a single observed element (no sort scratch) and multi-entry
	// dep vectors (insertion sort in place) — zero allocs required.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := enc.Encode(txns); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FrameEncoder.Encode allocates %.1f objects per frame, want 0", allocs)
	}
}

// TestFrameEncoderGobVersion pins the encoder's contract now that the
// gob frame (version 1) is retired: 0 and WireVersionV2 build v2 frames,
// and version 1 — like any other value — is a programming error and
// panics.
func TestFrameEncoderGobVersion(t *testing.T) {
	for _, v := range []int{0, WireVersionV2} {
		data, err := NewFrameEncoder(v).Encode([]WireTxn{sampleTxn("a", 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		if data[4] != WireVersionV2 {
			t.Fatalf("NewFrameEncoder(%d): version byte = %d, want %d", v, data[4], WireVersionV2)
		}
	}
	for _, v := range []int{1, 3, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFrameEncoder(%d) did not panic", v)
				}
			}()
			NewFrameEncoder(v)
		}()
	}
}

// TestDecodeFrameV2Malformed feeds truncations and corruptions of a valid
// v2 frame to the decoder: every one must error, never panic.
func TestDecodeFrameV2Malformed(t *testing.T) {
	data, err := EncodeBatchV2(richTxns())
	if err != nil {
		t.Fatal(err)
	}
	for cut := 5; cut < len(data); cut++ {
		if _, err := DecodeFrame(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(data))
		}
	}
	// Trailing garbage after a well-formed batch is malformed too.
	if _, err := DecodeFrame(append(append([]byte(nil), data...), 0xFF)); err == nil {
		t.Fatal("trailing bytes after batch must not decode")
	}
	// A hostile txn count with no data behind it must not allocate/decode.
	hostile := append([]byte("IPAB\x02"), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, err := DecodeFrame(hostile); err == nil {
		t.Fatal("hostile count must not decode")
	}
}

func TestDeliverDropsDuplicates(t *testing.T) {
	c := NewCluster(wan.NewSim(1), wan.NewLatency(0), []clock.ReplicaID{"r"})
	r := c.Replica("r")
	w := sampleTxn("remote", 0, 1)
	r.Deliver(w)
	r.Deliver(w) // duplicate after apply: dropped at the door
	if r.TxnsDelivered != 1 {
		t.Fatalf("TxnsDelivered = %d, want 1", r.TxnsDelivered)
	}
	if r.TxnsDuplicate != 1 {
		t.Fatalf("TxnsDuplicate = %d, want 1", r.TxnsDuplicate)
	}
	if r.Buffered() != 0 {
		t.Fatalf("buffered = %d, want 0", r.Buffered())
	}
	// A paused replica still drops duplicates at the door: only new
	// transactions buffer, and unpausing applies each exactly once.
	r.SetPaused(true)
	next := sampleTxn("remote", 1, 2)
	r.Deliver(w)
	r.Deliver(next)
	r.Deliver(next)
	if r.Buffered() != 1 || r.TxnsDuplicate != 3 {
		t.Fatalf("paused: buffered = %d, TxnsDuplicate = %d, want 1 and 3", r.Buffered(), r.TxnsDuplicate)
	}
	r.SetPaused(false)
	if r.TxnsDelivered != 2 || r.Buffered() != 0 {
		t.Fatalf("unpaused: TxnsDelivered = %d, buffered = %d, want 2 and 0", r.TxnsDelivered, r.Buffered())
	}
}

func TestDrainDiscardsStaleDuplicateInQueue(t *testing.T) {
	c := NewCluster(wan.NewSim(1), wan.NewLatency(0), []clock.ReplicaID{"r"})
	r := c.Replica("r")
	first := sampleTxn("remote", 0, 1)
	second := sampleTxn("remote", 1, 2)
	// Two copies of `second` arrive before `first` (reordered batches from
	// a retrying sender). The buffer already holds a transaction with the
	// same FirstSeq, so the second copy is dropped at the door; once
	// `first` lands, the buffered copy applies and nothing stays stuck.
	r.Deliver(second)
	r.Deliver(second)
	if r.Buffered() != 1 {
		t.Fatalf("buffered = %d, want 1", r.Buffered())
	}
	r.Deliver(first)
	if r.TxnsDelivered != 2 {
		t.Fatalf("TxnsDelivered = %d, want 2", r.TxnsDelivered)
	}
	if r.TxnsDuplicate != 1 {
		t.Fatalf("TxnsDuplicate = %d, want 1", r.TxnsDuplicate)
	}
	if r.Buffered() != 0 {
		t.Fatalf("buffered = %d, want 0", r.Buffered())
	}
}
