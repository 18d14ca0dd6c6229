package store

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ipa/internal/clock"
	"ipa/internal/crdt"
)

// Txn is a highly available transaction: updates apply immediately at the
// origin replica (read-your-writes) and are buffered for atomic causal
// replication on Commit. Transactions never abort — updates are CRDT
// operations, so concurrent transactions merge instead of conflicting.
//
// Concurrency: a transaction two-phase-locks the shards of every key it
// touches — the first access to a key acquires its shard lock, and all
// held locks release together at Commit — so transactions on one replica
// serialise exactly where their keysets collide. Acquisition follows the
// package's sorted-order discipline: a transaction that needs a
// lower-indexed shard than one it holds first tries a non-blocking
// TryLock and, if contended, releases only the held shards ranked above
// the needed one before reacquiring ascending.
//
// Visibility contract: remote replicas always observe whole effect
// groups (the apply path locks every shard of a group before its first
// update), and single-key reads are always consistent. At the origin, a
// concurrent multi-key reader can observe a partial group only inside a
// writer's contended out-of-order reacquisition window above — rare (it
// needs a TryLock failure) and bounded to the released shards; readers
// that bind all their keys before a writer's first update are ordered
// entirely before or after it.
//
// The first NewTag opens the replica's tag window (commitMu), held to
// Commit, which keeps the transaction's event tags one contiguous block
// of the origin's sequence space; read-only transactions never take it.
type Txn struct {
	r        *Replica
	deps     clock.Vector
	firstSeq uint64
	lastSeq  uint64 // set at commit for update transactions
	updates  []Update
	done     bool
	tagging  bool  // commitMu held (tag window open)
	held     []int // ascending shard indexes whose locks this txn holds
	finish   []func()
	waits    *[]func() // DeferDurability's sink; nil: Commit waits itself
}

// Replica returns the origin replica.
func (t *Txn) Replica() *Replica { return t.r }

// ensureTagWindow opens the replica's tag window. commitMu ranks before
// every shard lock, so the transaction's shards are released first and
// reacquired (in order) once the window is open; writes cannot have
// happened yet on the first tag, so nothing half-applied becomes visible.
func (t *Txn) ensureTagWindow() {
	if t.tagging {
		return
	}
	for i := len(t.held) - 1; i >= 0; i-- {
		t.r.shards[t.held[i]].mu.Unlock()
	}
	t.r.commitMu.Lock()
	t.tagging = true
	t.firstSeq = t.r.seq
	for _, h := range t.held {
		t.r.shards[h].mu.Lock()
	}
}

// acquire takes the shard lock for key if the transaction does not hold
// it yet, following the sorted-order discipline.
func (t *Txn) acquire(key string) *shard {
	idx := shardIndex(key)
	sh := &t.r.shards[idx]
	n := len(t.held)
	pos := sort.SearchInts(t.held, idx)
	if pos < n && t.held[pos] == idx {
		return sh // already held
	}
	switch {
	case n == 0 || idx > t.held[n-1]:
		sh.mu.Lock()
		t.held = append(t.held, idx)
	case sh.mu.TryLock():
		// Out of order but uncontended: taking it without blocking cannot
		// deadlock.
		t.held = append(t.held, 0)
		copy(t.held[pos+1:], t.held[pos:])
		t.held[pos] = idx
	default:
		// Contended out-of-order acquisition: release only the held
		// shards ranked above idx (keeping everything below preserves
		// the ascending blocking order), then acquire idx and reacquire
		// the released suffix in order. Effects already applied to the
		// released shards are briefly visible to concurrent local
		// transactions — the one torn-visibility window of the design;
		// see the type comment.
		for i := n - 1; i >= pos; i-- {
			t.r.shards[t.held[i]].mu.Unlock()
		}
		t.held = append(t.held, 0)
		copy(t.held[pos+1:], t.held[pos:])
		t.held[pos] = idx
		for _, h := range t.held[pos:] {
			t.r.shards[h].mu.Lock()
		}
	}
	return sh
}

// object returns the CRDT at key under the transaction's shard lock,
// creating it with mk when absent (and mk non-nil).
func (t *Txn) object(key string, mk func() crdt.CRDT) (crdt.CRDT, bool) {
	sh := t.acquire(key)
	obj, ok := sh.objects[key]
	if !ok && mk != nil {
		obj = mk()
		sh.objects[key] = obj
		ok = true
	}
	return obj, ok
}

// release drops every lock the transaction holds (shards, then the tag
// window).
func (t *Txn) release() {
	for i := len(t.held) - 1; i >= 0; i-- {
		t.r.shards[t.held[i]].mu.Unlock()
	}
	t.held = nil
	if t.tagging {
		t.r.commitMu.Unlock()
		t.tagging = false
	}
}

// NewTag allocates a globally unique event ID for an operation of this
// transaction. The first tag opens the replica's tag window.
func (t *Txn) NewTag() clock.EventID {
	if t.done {
		panic("store: transaction already committed")
	}
	t.ensureTagWindow()
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
	t.ensureTagWindow()
	obj, ok := t.object(key, mk)
	if !ok {
		panic(fmt.Sprintf("store: update to unknown object %q", key))
	}
	if a, ok := op.(crdt.RWAddOp); ok {
		// A remove-wins add observed the replica's delivered cut, read now
		// that the set's shard is held: every remote tombstone on the set
		// is inside it, and the add's own earlier events are covered by
		// per-origin order (crdt.RWAddOp.Deps). Only the local apply carries
		// it; receivers stamp the transaction's deps.
		a.Deps = t.r.Clock()
		obj.Apply(a)
	} else {
		obj.Apply(op)
	}
	t.updates = append(t.updates, Update{Key: key, Op: op})
}

// OnFinish registers fn to run when the transaction commits, after its
// effects have applied locally, been handed to replication, and every
// shard lock has released. Hooks run in reverse registration order.
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

func (t *Txn) runFinish() {
	for i := len(t.finish) - 1; i >= 0; i-- {
		t.finish[i]()
	}
}

// Commit finalises the transaction, releases its shard locks (and tag
// window), and replicates its updates atomically to the other replicas.
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
		if t.tagging && t.r.seq > t.firstSeq {
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
	// Updates imply an open tag window (Apply opens it before appending).
	if t.r.seq == t.firstSeq {
		// Updates whose ops carried no tags (a caller bypassing the
		// Prepare helpers): give the transaction one clock slot so the
		// wire protocol can sequence it.
		t.r.seq++
	}
	t.commitUpdates()
}

// commitUpdates runs the update-transaction commit path under the held
// tag window: advance the local cut, fan out the wire message, release.
func (t *Txn) commitUpdates() {
	c := t.r.cluster
	atomic.AddUint64(&c.TxnsCommitted, 1)
	last := t.r.seq
	t.lastSeq = last
	t.r.clockMu.Lock()
	// The replicated dependency vector must cover everything this
	// transaction could have read — including remote transactions the
	// apply path installed after Begin took its snapshot (the replica is
	// concurrent; reads see the live objects). Folding in the delivered
	// cut at commit, before our own entry advances, restores the
	// "origin's cut at commit" semantics the causal-delivery protocol
	// assumes; on the single-threaded simulator it is a no-op.
	t.deps.Merge(t.r.vc)
	t.r.vc.Set(t.r.id, last)
	t.r.clockMu.Unlock()
	w := WireTxn{
		Origin:   t.r.id,
		Deps:     t.deps,
		FirstSeq: t.firstSeq,
		LastSeq:  last,
		Updates:  t.updates,
	}
	for _, id := range c.order {
		if id != t.r.id {
			c.send(t.r.id, id, w)
		}
	}
	// The onCommit hook (an external transport's broadcast) runs under the
	// tag window so per-origin enqueue order matches sequence order. A full
	// transport queue blocks here — backpressure holds the window and the
	// shard locks, by design (see DESIGN.md on queue sizing). A durable
	// transport returns a wait (fsync) function, which runs only after
	// release so the disk never stalls the tag window: here, or at the
	// caller's acknowledgement point when DeferDurability gave a sink.
	var wait func()
	if c.onCommit != nil {
		w.Deps = w.Deps.Clone()
		wait = c.onCommit(w)
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
// Binding acquires the key's shard lock through the transaction (held to
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
func (r AWSetRef) RemoveWhere(pred crdt.Predicate) {
	op := r.set.PrepareRemoveWhere(pred, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Contains reports membership in the transaction's view.
func (r AWSetRef) Contains(elem string) bool { return r.set.Contains(elem) }

// Elems lists the members.
func (r AWSetRef) Elems() []string { return r.set.Elems() }

// ElemsWhere lists the members matching pred.
func (r AWSetRef) ElemsWhere(pred crdt.Predicate) []string { return r.set.ElemsWhere(pred) }

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
func (r RWSetRef) RemoveWhere(pred crdt.Predicate) {
	op := r.set.PrepareRemoveWhere(pred, r.tx.NewTag())
	r.tx.Apply(r.key, op, nil)
}

// Contains reports membership.
func (r RWSetRef) Contains(elem string) bool { return r.set.Contains(elem) }

// Elems lists the members.
func (r RWSetRef) Elems() []string { return r.set.Elems() }

// ElemsWhere lists the members matching pred.
func (r RWSetRef) ElemsWhere(pred crdt.Predicate) []string { return r.set.ElemsWhere(pred) }

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

// RegisterRef is a transaction-scoped view of an LWW register.
type RegisterRef struct {
	tx  *Txn
	key string
	reg *crdt.LWWRegister
}

// RegisterAt binds the LWW register stored at key.
func RegisterAt(tx *Txn, key string) RegisterRef {
	obj, _ := tx.object(key, crdt.Ctor(crdt.KindLWWRegister))
	reg, ok := obj.(*crdt.LWWRegister)
	if !ok {
		panic(fmt.Sprintf("store: %s holds %s, not lww-register", key, obj.Type()))
	}
	return RegisterRef{tx: tx, key: key, reg: reg}
}

// Set writes value; the logical timestamp is the op's sequence number, so
// later local writes always supersede earlier ones.
func (r RegisterRef) Set(value string) {
	tag := r.tx.NewTag()
	op := r.reg.PrepareSet(value, tag.Seq, tag)
	r.tx.Apply(r.key, op, nil)
}

// Value returns the register content.
func (r RegisterRef) Value() (string, bool) { return r.reg.Value() }

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
	// Open the tag window up front: Read allocates tags mid-iteration
	// over the set's state, and the window's shard release/reacquire must
	// not happen under its feet.
	r.tx.ensureTagWindow()
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
