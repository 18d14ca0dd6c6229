package store

import (
	"bytes"
	"testing"
)

// FuzzWireRoundTrip hammers the frame decoder with arbitrary bytes. The
// invariants:
//
//   - DecodeFrame never panics, whatever the input (v2 binary, truncated,
//     malformed, hostile counts);
//   - every input that is not a v2 frame errors — in particular every
//     frame of the retired gob formats v0 and v1, seeded below, and the
//     seeded v2 frames carrying the retired op wire IDs 3 and 11 and
//     the retired predicate wire ID 4;
//   - any input that decodes successfully re-encodes to a decodable
//     frame carrying the same transactions (encode→decode identity,
//     checked bytewise through the deterministic encoder).
//
// The seed corpus covers v2 and the two retired formats plus edge
// frames, so the fuzzer starts from deep inside the format rather than
// fumbling at the magic bytes.
func FuzzWireRoundTrip(f *testing.F) {
	rich := richTxns()
	if v2, err := EncodeBatchV2(rich); err == nil {
		f.Add(v2)
	}
	v0, v1 := retiredFrames(f)
	f.Add(v1)
	f.Add(v0)
	for _, frame := range retiredOpFrames() {
		f.Add(frame)
	}
	if empty, err := EncodeBatchV2(nil); err == nil {
		f.Add(empty)
	}
	f.Add([]byte("IPAB\x02"))
	f.Add([]byte("IPAB\x02\x01"))
	f.Add([]byte("IPAB\x01junk"))
	f.Add([]byte{0xFF, 0x00, 0x49})
	// Torn log tails: the WAL uses frames as record payloads, and a crash
	// mid-write hands replay a prefix of a valid frame (the CRC check
	// catches most, but DecodeFrame is the last line and must reject every
	// truncation cleanly — no panic, no short read past the buffer).
	if v2, err := EncodeBatchV2(rich); err == nil {
		for _, cut := range []int{1, len(v2) / 4, len(v2) / 2, len(v2) - 7, len(v2) - 1} {
			if cut > 0 && cut < len(v2) {
				f.Add(v2[:cut])
			}
		}
		// A torn tail can also splice two writes: an intact frame with the
		// head of the next one appended.
		f.Add(append(append([]byte(nil), v2...), v2[:len(v2)/3]...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		txns, err := DecodeFrame(data)
		if err != nil {
			return // malformed input must error, and it did — done
		}
		if !bytes.HasPrefix(data, []byte("IPAB\x02")) {
			t.Fatalf("decoded %d txns from a frame without the v2 header", len(txns))
		}
		// Whatever decoded must survive a v2 round trip unchanged.
		v2, err := EncodeBatchV2(txns)
		if err != nil {
			// Only reachable if a decoded op lost its codec — impossible
			// for frames built from registered types.
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		back, err := DecodeFrame(v2)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		again, err := EncodeBatchV2(back)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(v2, again) {
			t.Fatal("v2 encode→decode→encode not a fixed point")
		}
	})
}
