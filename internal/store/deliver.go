package store

import (
	"slices"

	"ipa/internal/clock"
)

// Deliver hands the replica one remote transaction. It is the only way a
// remote transaction reaches the replica: the simulator's message events,
// netrepl's connection handlers, WAL replay at recovery and a joining
// site's tail fetch all call it, from any number of goroutines at once.
//
// Under deliverMu, Deliver
//
//   - drops and counts (TxnsDuplicate) a duplicate: a transaction the
//     delivered cut already covers, or one whose FirstSeq is already
//     buffered — at-least-once transports resend batches;
//   - buffers the transaction by origin and FirstSeq;
//   - applies every buffered transaction that is next in its origin's
//     sequence order (per-origin FIFO) and whose dependencies the
//     delivered cut covers, scanning origins in sorted order so the
//     simulator stays deterministic, until nothing more is deliverable.
//
// The buffer is unbounded: a FIFO gap or a missing dependency holds
// everything behind it. A transport that must bound its memory reads
// Backlog (see netrepl's receive-side bound). While the replica is paused
// Deliver only buffers.
func (r *Replica) Deliver(w WireTxn) {
	r.deliverMu.Lock()
	defer r.deliverMu.Unlock()
	q := r.byOrigin[w.Origin]
	r.clockMu.Lock()
	_, dup := q[w.FirstSeq]
	dup = dup || w.LastSeq <= r.vc.Get(w.Origin)
	if dup {
		r.TxnsDuplicate++
	}
	r.clockMu.Unlock()
	if dup {
		return
	}
	if q == nil {
		q = map[uint64]WireTxn{}
		r.byOrigin[w.Origin] = q
		i, _ := slices.BinarySearch(r.origins, w.Origin)
		r.origins = slices.Insert(r.origins, i, w.Origin)
	}
	q[w.FirstSeq] = w
	r.buffered++
	if r.buffered > r.QueuedMax {
		r.QueuedMax = r.buffered
	}
	r.applyReady()
}

// applyReady applies every deliverable buffered transaction; deliverMu
// held. An origin's map stays allocated once created: the simulator
// delivers a message at a time, and re-creating the map for each would
// dominate.
func (r *Replica) applyReady() {
	for progress := !r.paused; progress && r.buffered > 0; {
		progress = false
		for _, origin := range r.origins {
			q := r.byOrigin[origin]
			for len(q) > 0 {
				r.clockMu.Lock()
				w, ok := q[r.vc.Get(origin)]
				ok = ok && w.Deps.LEq(r.vc)
				r.clockMu.Unlock()
				if !ok {
					break
				}
				delete(q, w.FirstSeq)
				r.buffered--
				r.applyRemote(w)
				progress = true
			}
		}
	}
}

// SetPaused freezes (or thaws) the delivery buffer — the crash/recovery
// fault hook. While paused, remote transactions still arrive but only
// buffer, exactly as if the replica's application process had stalled;
// local commits are unaffected (they do not pass through the buffer).
// Unpausing drains the buffer in causal order.
func (r *Replica) SetPaused(paused bool) {
	r.deliverMu.Lock()
	defer r.deliverMu.Unlock()
	r.paused = paused
	r.applyReady()
}

// Buffered reports how many remote transactions the delivery buffer holds
// (received, not yet applied).
func (r *Replica) Buffered() int {
	r.deliverMu.Lock()
	defer r.deliverMu.Unlock()
	return r.buffered
}

// Backlog reports how many of origin's transactions the buffer holds, and
// whether the next one in origin's order is among them. When it is, the
// origin waits on another origin's transaction (or on a pause); when it
// is not, it waits on a gap in its own sequence.
func (r *Replica) Backlog(origin clock.ReplicaID) (buffered int, headBuffered bool) {
	r.deliverMu.Lock()
	defer r.deliverMu.Unlock()
	q := r.byOrigin[origin]
	r.clockMu.Lock()
	_, headBuffered = q[r.vc.Get(origin)]
	r.clockMu.Unlock()
	return len(q), headBuffered
}

// BufferHeads returns, for every origin with buffered transactions, the
// lowest buffered one (by FirstSeq), in origin order.
func (r *Replica) BufferHeads() []WireTxn {
	r.deliverMu.Lock()
	defer r.deliverMu.Unlock()
	var heads []WireTxn
	for _, origin := range r.origins {
		var head WireTxn
		found := false
		for first, w := range r.byOrigin[origin] {
			if !found || first < head.FirstSeq {
				head, found = w, true
			}
		}
		if found {
			heads = append(heads, head)
		}
	}
	return heads
}
