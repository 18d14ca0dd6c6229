package store

import (
	"testing"

	"ipa/internal/clock"
	"ipa/internal/crdt"
)

// benchTxns models a steady replication batch: the sender-side batcher
// typically coalesces a few dozen small txns (adds, counter bumps, the
// occasional remove) per frame.
func benchTxns(n int) []WireTxn {
	txns := make([]WireTxn, n)
	for i := range txns {
		seq := uint64(i + 1)
		tag := clock.EventID{Replica: "r1", Seq: seq}
		txns[i] = WireTxn{
			Origin:   "r1",
			Deps:     clock.Of(map[clock.ReplicaID]uint64{"r1": seq - 1, "r2": 17, "r3": 9}),
			FirstSeq: seq, LastSeq: seq,
			Updates: []Update{
				{Key: "t/enrolled", Op: crdt.AWAddOp{Elem: "p\x1fq", Tag: tag, Pay: "payload"}},
				{Key: "t/budget", Op: crdt.CounterOp{Delta: -1, Tag: tag}},
				{Key: "t/removed", Op: crdt.AWRemoveOp{Tag: tag, Observed: map[string][]clock.EventID{"z": {{Replica: "r2", Seq: 4}}}}},
			},
		}
	}
	return txns
}

func BenchmarkEncodeBatch(b *testing.B) {
	txns := benchTxns(32)
	enc := NewFrameEncoder(WireVersionV2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(txns); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBatch(b *testing.B) {
	frame, err := EncodeBatchV2(benchTxns(32))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}
