package store

import (
	"fmt"
	"slices"
	"sync/atomic"

	"ipa/internal/clock"
	"ipa/internal/crdt"
)

// Txn is a highly available transaction: updates apply immediately at the
// origin replica (read-your-writes) and are buffered for atomic causal
// replication on Commit. Transactions never abort — updates are CRDT
// operations, so concurrent transactions merge instead of conflicting.
//
// Concurrency: a transaction takes its replica's lock on its first object
// access or first NewTag and holds it until Commit, so transactions on one
// replica run one after another and never release a lock early.
//
// Visibility contract: a transaction's reads are one snapshot, and every
// reader — at the origin or at a remote replica, whose apply path holds
// the same lock for a whole effect group — observes a transaction's
// effects all together or not at all. Because no other update
// transaction runs while it holds the lock, a transaction's event tags
// are one contiguous block of the origin's sequence space.
type Txn struct {
	r        *Replica
	firstSeq uint64
	lastSeq  uint64 // set at commit for update transactions
	updates  []Update
	done     bool
	locked   bool // the replica lock is held; firstSeq is set
	finish   []func()
	waits    *[]func()    // DeferDurability's sink; nil: Commit waits itself
	deps     clock.Vector // the delivered cut, copied on first need (see cut)
}

// Replica returns the origin replica.
func (t *Txn) Replica() *Replica { return t.r }

// lock takes the replica lock if the transaction does not hold it yet,
// and records where its block of event tags starts.
func (t *Txn) lock() {
	if t.locked {
		return
	}
	t.r.mu.Lock()
	t.locked = true
	t.firstSeq = t.r.seq
}

// object returns the CRDT at key under the replica lock, creating it with
// mk when absent (and mk non-nil).
func (t *Txn) object(key string, mk func() crdt.CRDT) (crdt.CRDT, bool) {
	t.lock()
	obj, ok := t.r.objects[key]
	if !ok && mk != nil {
		obj = mk()
		t.r.objects[key] = obj
		ok = true
	}
	return obj, ok
}

// release drops the replica lock if the transaction holds it.
func (t *Txn) release() {
	if t.locked {
		t.r.mu.Unlock()
		t.locked = false
	}
}

// NewTag allocates a globally unique event ID for an operation of this
// transaction.
func (t *Txn) NewTag() clock.EventID {
	if t.done {
		panic("store: transaction already committed")
	}
	t.lock()
	t.r.seq++
	return clock.EventID{Replica: t.r.id, Seq: t.r.seq}
}

// Apply records a prepared CRDT operation against key: it executes on the
// local object immediately and replicates with the transaction. The object
// must already exist at this replica (the typed *At helpers create it);
// mk, when non-nil, creates it on first use.
func (t *Txn) Apply(key string, op crdt.Op, mk func() crdt.CRDT) {
	if t.done {
		panic("store: transaction already committed")
	}
	obj, ok := t.object(key, mk)
	if !ok {
		panic(fmt.Sprintf("store: update to unknown object %q", key))
	}
	if a, ok := op.(crdt.RWAddOp); ok {
		// A remove-wins add observed the replica's delivered cut, read now
		// that the replica lock is held: every remote tombstone on the set
		// is inside it, and the add's own earlier events are covered by
		// per-origin order (crdt.RWAddOp.Deps). Only the local apply carries
		// it; receivers stamp the transaction's deps.
		a.Deps = t.cut()
		obj.Apply(a)
	} else {
		obj.Apply(op)
	}
	t.updates = append(t.updates, Update{Key: key, Op: op})
}

// Grow makes room for n more updates, so a caller that knows how many it
// will apply (the engine, from its plan) allocates the slice once.
func (t *Txn) Grow(n int) { t.updates = slices.Grow(t.updates, n) }

// OnFinish registers fn to run when the transaction commits, after its
// effects have applied locally, been handed to replication, and the
// replica lock has released. Hooks run in reverse registration order.
func (t *Txn) OnFinish(fn func()) {
	if t.done {
		panic("store: transaction already committed")
	}
	t.finish = append(t.finish, fn)
}

// DeferDurability makes Commit append the transaction's durability wait
// (a durable transport's fsync) to *sink instead of running it, so a
// caller that acknowledges many transactions at once — a connection
// flushing a pipelined batch of replies — pays one group commit for all
// of them. The caller must run every function in *sink before it tells
// anyone the transaction succeeded. Transactions with nothing to wait
// for (the simulator, a memory-only transport, read-only work) append
// nothing.
func (t *Txn) DeferDurability(sink *[]func()) {
	if t.done {
		panic("store: transaction already committed")
	}
	t.waits = sink
}

// cut returns the replica's delivered cut, copied once per transaction:
// no remote group applies and no commit advances the cut while the
// transaction holds the replica lock, so its remove-wins adds and its
// commit share one vector. Replica lock held.
func (t *Txn) cut() clock.Vector {
	if t.deps == nil {
		t.deps = t.r.Clock()
	}
	return t.deps
}

func (t *Txn) runFinish() {
	for i := len(t.finish) - 1; i >= 0; i-- {
		t.finish[i]()
	}
}

// Commit finalises the transaction, releases the replica lock, and
// replicates its updates atomically to the other replicas.
// An empty (read-only) transaction sends nothing. On a durable transport
// Commit returns only once the transaction's log record is fsynced,
// unless DeferDurability handed that wait to the caller.
func (t *Txn) Commit() {
	if t.done {
		panic("store: transaction already committed")
	}
	t.done = true
	defer t.runFinish()
	atomic.AddUint64(&t.r.TxnsExecuted, 1)
	if len(t.updates) == 0 {
		if t.locked && t.r.seq > t.firstSeq {
			// Tags were consumed without updates (e.g. a compensation read
			// that found nothing to repair). The sequence hole must still
			// replicate or every later transaction from this origin would
			// stall remote FIFO delivery forever — commit an empty effect
			// group to account for it.
			t.commitUpdates()
			return
		}
		t.release()
		return
	}
	// Updates imply the replica lock (Apply takes it before appending).
	if t.r.seq == t.firstSeq {
		// Updates whose ops carried no tags (a caller bypassing the
		// Prepare helpers): give the transaction one clock slot so the
		// wire protocol can sequence it.
		t.r.seq++
	}
	t.commitUpdates()
}

// commitUpdates runs the update-transaction commit path under the
// replica lock: advance the local cut, hand the wire form to the commit
// hook, release.
func (t *Txn) commitUpdates() {
	last := t.r.seq
	t.lastSeq = last
	// The replicated dependency vector must cover everything this
	// transaction could have read, including remote transactions the
	// apply path installed after Begin but before the transaction took
	// the replica lock: it is the delivered cut at commit, before our own
	// entry advances — the "origin's cut at commit" the causal-delivery
	// protocol assumes. Every writer of the cut only raises it, so this
	// one copy covers whatever a snapshot at Begin would have. A
	// remove-wins add may have taken it already: every writer of the cut
	// holds the replica lock, so it has not moved since.
	deps := t.cut()
	t.r.clockMu.Lock()
	t.r.vc.Set(t.r.id, last)
	t.r.clockMu.Unlock()
	// The commit hook (Replica.SetOnCommit) runs under the replica lock
	// so what it hands on is in sequence order; it returns without
	// waiting on a peer. A durable transport returns a wait (fsync)
	// function, which runs only after release so the disk never stalls
	// the replica: here, or at the caller's acknowledgement point when
	// DeferDurability gave a sink. Every receiver of the wire form shares
	// deps: none writes a WireTxn's Deps (Deliver compares it, remove-wins
	// sets keep it as an add's read-only cut, the codecs read it).
	var wait func()
	if t.r.onCommit != nil {
		wait = t.r.onCommit(WireTxn{
			Origin:   t.r.id,
			Deps:     deps,
			FirstSeq: t.firstSeq,
			LastSeq:  last,
			Updates:  t.updates,
		})
	}
	t.release()
	switch {
	case wait == nil:
	case t.waits != nil:
		*t.waits = append(*t.waits, wait)
	default:
		wait()
	}
}

// Updates returns the number of updates buffered so far.
func (t *Txn) Updates() int { return len(t.updates) }

// KeysTouched returns the number of distinct keys updated so far.
func (t *Txn) KeysTouched() int {
	seen := map[string]bool{}
	for _, u := range t.updates {
		seen[u.Key] = true
	}
	return len(seen)
}

// --- Typed object references -----------------------------------------
//
// The helpers below bind a transaction to a CRDT instance of a given type
// and wrap the prepare/apply cycle, so application code reads naturally:
//
//	enrolled := store.AWSetAt(tx, "enrolled")
//	enrolled.Add("p1|t1", "")
//
// Binding takes the replica lock through the transaction (held to
// commit), so reads through a ref observe a state no concurrent writer is
// mid-way through mutating.

// AWSetRef is a transaction-scoped view of an add-wins set.
type AWSetRef struct {
	tx  *Txn
	key string
	set *crdt.AWSet
}

// AWSetAt binds the add-wins set stored at key.
func AWSetAt(tx *Txn, key string) AWSetRef {
	obj, _ := tx.object(key, crdt.Ctor(crdt.KindAWSet))
	set, ok := obj.(*crdt.AWSet)
	if !ok {
		panic(fmt.Sprintf("store: %s holds %s, not aw-set", key, obj.Type()))
	}
	return AWSetRef{tx: tx, key: key, set: set}
}

// Add inserts elem with a payload.
func (r AWSetRef) Add(elem, payload string) {
	op := r.set.PrepareAdd(elem, payload, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Touch re-asserts membership preserving the payload (paper §4.2.1).
func (r AWSetRef) Touch(elem string) {
	op := r.set.PrepareTouch(elem, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Remove deletes elem (observed adds only: add-wins).
func (r AWSetRef) Remove(elem string) {
	op := r.set.PrepareRemove(elem, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// RemoveWhere deletes every element matching pred.
func (r AWSetRef) RemoveWhere(pred crdt.MatchFields) {
	op := r.set.PrepareRemoveWhere(pred, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Contains reports membership in the transaction's view.
func (r AWSetRef) Contains(elem string) bool { return r.set.Contains(elem) }

// Elems lists the members.
func (r AWSetRef) Elems() []string { return r.set.Elems() }

// ElemsWhere lists the members matching pred.
func (r AWSetRef) ElemsWhere(pred crdt.MatchFields) []string { return r.set.ElemsWhere(pred) }

// Size returns the member count.
func (r AWSetRef) Size() int { return r.set.Size() }

// Payload returns elem's payload.
func (r AWSetRef) Payload(elem string) (string, bool) { return r.set.Payload(elem) }

// RWSetRef is a transaction-scoped view of a remove-wins set.
type RWSetRef struct {
	tx  *Txn
	key string
	set *crdt.RWSet
}

// RWSetAt binds the remove-wins set stored at key.
func RWSetAt(tx *Txn, key string) RWSetRef {
	obj, _ := tx.object(key, crdt.Ctor(crdt.KindRWSet))
	set, ok := obj.(*crdt.RWSet)
	if !ok {
		panic(fmt.Sprintf("store: %s holds %s, not rw-set", key, obj.Type()))
	}
	return RWSetRef{tx: tx, key: key, set: set}
}

// Add inserts elem with a payload.
func (r RWSetRef) Add(elem, payload string) {
	op := r.set.PrepareAdd(elem, payload, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Touch re-asserts membership preserving the payload.
func (r RWSetRef) Touch(elem string) {
	op := r.set.PrepareTouch(elem, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Remove deletes elem (remove-wins: also defeats concurrent adds).
func (r RWSetRef) Remove(elem string) {
	op := r.set.PrepareRemove(elem, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// RemoveWhere deletes every matching element, defeating concurrent adds
// (the paper's enrolled(*, t) = false wildcard).
func (r RWSetRef) RemoveWhere(pred crdt.MatchFields) {
	op := r.set.PrepareRemoveWhere(pred, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Contains reports membership.
func (r RWSetRef) Contains(elem string) bool { return r.set.Contains(elem) }

// Elems lists the members.
func (r RWSetRef) Elems() []string { return r.set.Elems() }

// ElemsWhere lists the members matching pred.
func (r RWSetRef) ElemsWhere(pred crdt.MatchFields) []string { return r.set.ElemsWhere(pred) }

// Size returns the member count.
func (r RWSetRef) Size() int { return r.set.Size() }

// CounterRef is a transaction-scoped view of a PN-counter.
type CounterRef struct {
	tx  *Txn
	key string
	c   *crdt.PNCounter
}

// CounterAt binds the counter stored at key.
func CounterAt(tx *Txn, key string) CounterRef {
	obj, _ := tx.object(key, crdt.Ctor(crdt.KindPNCounter))
	c, ok := obj.(*crdt.PNCounter)
	if !ok {
		panic(fmt.Sprintf("store: %s holds %s, not pn-counter", key, obj.Type()))
	}
	return CounterRef{tx: tx, key: key, c: c}
}

// Add adjusts the counter by delta.
func (r CounterRef) Add(delta int64) {
	op := r.c.PrepareAdd(delta, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Value returns the current count.
func (r CounterRef) Value() int64 { return r.c.Value() }

// BoundedRef is a transaction-scoped view of a bounded (escrow) counter.
type BoundedRef struct {
	tx  *Txn
	key string
	c   *crdt.BoundedCounter
}

// BoundedAt binds the bounded counter stored at key, creating it empty
// (no rights anywhere) when absent.
func BoundedAt(tx *Txn, key string) BoundedRef {
	obj, _ := tx.object(key, crdt.Ctor(crdt.KindBoundedCounter))
	c, ok := obj.(*crdt.BoundedCounter)
	if !ok {
		panic(fmt.Sprintf("store: %s holds %s, not bounded-counter", key, obj.Type()))
	}
	return BoundedRef{tx: tx, key: key, c: c}
}

// Grant adds n fresh rights at the transaction's origin replica (an
// increment of the value).
func (r BoundedRef) Grant(n int64) {
	op := r.c.PrepareGrant(r.tx.r.id, n, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Consume spends n locally held rights (a decrement of the value). It
// returns false — and records nothing — when the origin holds fewer than
// n rights: with every replica respecting this escrow guard the global
// value can never drop below zero, partitions included.
func (r BoundedRef) Consume(n int64) bool {
	if r.c.Local(r.tx.r.id) < n {
		return false
	}
	op, _ := r.c.PrepareConsume(r.tx.r.id, n, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
	return true
}

// ForceConsume decrements by n regardless of locally held rights — the
// optimistic overdraft path: the caller has checked the globally visible
// value instead, accepting that a concurrent ForceConsume at a
// partitioned replica can take the merged value below the bound, to be
// repaired by a compensation at read time.
func (r BoundedRef) ForceConsume(n int64) {
	op := crdt.BCConsumeOp{Replica: r.tx.r.id, N: n, Tag: r.tx.NewTag()}
	r.tx.Apply(r.key, op, nil)
}

// Value returns the globally visible value (total rights minus total
// consumed).
func (r BoundedRef) Value() int64 { return r.c.Value() }

// Local returns the rights locally available to the origin replica.
func (r BoundedRef) Local() int64 { return r.c.Local(r.tx.r.id) }

// CompSetRef is a transaction-scoped view of a Compensation Set. The set
// must have been seeded at every replica (see SeedCompSet) so each copy
// knows the bound.
type CompSetRef struct {
	tx  *Txn
	key string
	set *crdt.CompSet
}

// ObjectSpace is the minimal object-creation surface seeding helpers
// need; *Replica satisfies it, as does any runtime backend replica.
type ObjectSpace interface {
	Object(key string, mk func() crdt.CRDT) crdt.CRDT
}

// SeedCompSet creates the compensation set with the given bound at one
// replica; call it for every replica during setup so the constraint is
// known cluster-wide before any update replicates. (Compensation sets are
// the one CRDT the constructor registry cannot build from a remote op:
// the bound is object state.)
func SeedCompSet(r ObjectSpace, key string, maxSize int) {
	r.Object(key, func() crdt.CRDT { return crdt.NewCompSet(maxSize) })
}

// CompSetAt binds the compensation set stored at key.
func CompSetAt(tx *Txn, key string) CompSetRef {
	obj, ok := tx.object(key, nil)
	if !ok {
		panic(fmt.Sprintf("store: comp-set %s not seeded at %s", key, tx.r.id))
	}
	set, ok := obj.(*crdt.CompSet)
	if !ok {
		panic(fmt.Sprintf("store: %s holds %s, not comp-set", key, obj.Type()))
	}
	return CompSetRef{tx: tx, key: key, set: set}
}

// Add inserts elem.
func (r CompSetRef) Add(elem, payload string) {
	op := r.set.PrepareAdd(elem, payload, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Remove deletes elem.
func (r CompSetRef) Remove(elem string) {
	op := r.set.PrepareRemove(elem, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Read returns the constraint-respecting view; if the observed state
// violates the bound, the compensating removals execute and commit with
// this transaction (paper §4.2.2).
func (r CompSetRef) Read() []string {
	elems, comps := r.set.Read(r.tx.NewTag)
	// Read only prepares the compensating removals; applying them through
	// the transaction executes them locally and replicates them.
	for _, op := range comps {
		r.tx.Apply(r.key, op, nil)
	}
	return elems
}

// SizeObserved returns the raw (possibly violating) size.
func (r CompSetRef) SizeObserved() int { return r.set.Size() }

// Violating reports whether the raw state violates the bound.
func (r CompSetRef) Violating() bool { return r.set.Violating() }

// Compensated returns how many elements this replica's compensations
// removed so far.
func (r CompSetRef) Compensated() int64 { return r.set.CompensationsApplied }
