// Package store implements the replicated database the IPA runtime needs
// (the paper uses SwiftCloud [48]): a key-value store geo-replicated
// across data centers, with
//
//   - causal consistency — transactions commit locally and replicate
//     asynchronously, delivered remotely only after their causal
//     dependencies;
//   - highly available transactions — a transaction's updates apply
//     atomically at every replica;
//   - per-object type-specific conflict resolution — values are the
//     operation-based CRDTs of package crdt;
//   - stability tracking — a causal cut delivered at every replica, used
//     to garbage-collect CRDT metadata (tombstones, touch graveyards).
//
// A Replica is one site's copy and knows nothing of how its commits
// travel: each committed update transaction goes to the replica's commit
// hook (Replica.SetOnCommit), and remote transactions come back in
// through one causal delivery buffer, Replica.Deliver, which applies them
// one at a time in causal order (see Deliver). Two owners install the
// hook:
//
//   - Cluster, the wan.Sim discrete-event simulation: the hook sends to
//     every other member as simulator events, so execution is
//     single-threaded and deterministic;
//   - a real transport (package netrepl) appends to its outbound log.
//     One replica then serves many client goroutines while remote
//     transactions arrive on many connections at once. One lock per
//     replica serialises them: a transaction holds it from its first
//     object access to Commit, and a remote effect group holds it while
//     it applies.
//
// Replica locking discipline (the order below is the global acquisition
// order; taking locks in this order only is what makes the core
// deadlock-free — see DESIGN.md for the full argument):
//
//		deliverMu  ≺  mu  ≺  clockMu
//
//	  - deliverMu guards the causal delivery buffer and is held while the
//	    buffer applies a remote effect group, so remote transactions apply
//	    one at a time.
//	  - mu guards the object space and the event-tag counter. A local
//	    transaction takes it on its first object access or first tag and
//	    holds it to Commit, so its reads are one snapshot, its effects
//	    become visible together, and its event tags form a contiguous
//	    block of the origin's sequence space in commit order. Contiguity
//	    is load-bearing: remote FIFO delivery and the stability horizon
//	    both interpret a vector entry n as "all events ≤ n", which
//	    interleaved tag blocks would break. A transaction holding mu never
//	    takes deliverMu.
//	  - clockMu guards the delivered cut (vc) and is never held while
//	    waiting for any other lock.
//	  - The commit hook runs under mu. A transport's hook takes its own
//	    lock (netrepl's outbound log: mu ≺ log mutex), whose holders never
//	    wait for a replica lock or a peer.
package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/wan"
)

// Cluster is a set of replicas of one logical database, replicating to
// each other as events of one discrete-event simulation.
type Cluster struct {
	sim      *wan.Sim
	latency  *wan.Latency
	replicas map[clock.ReplicaID]*Replica
	order    []clock.ReplicaID

	// partitioned links: messages are buffered and flushed on heal.
	partitioned map[[2]clock.ReplicaID]bool
	blocked     map[[2]clock.ReplicaID][]WireTxn

	// onCommit, when set, observes the wire form of every committed
	// update transaction (see SetOnCommit).
	onCommit func(WireTxn)

	// Stats. Updated atomically; read them from a quiescent cluster or
	// via atomic loads.
	MessagesSent  uint64
	TxnsCommitted uint64
	StabilityRuns uint64
}

// NewCluster creates one replica per id, connected by the latency model:
// each replica's commit hook sends the transaction to every other member
// in member order.
func NewCluster(sim *wan.Sim, latency *wan.Latency, ids []clock.ReplicaID) *Cluster {
	c := &Cluster{
		sim:         sim,
		latency:     latency,
		replicas:    make(map[clock.ReplicaID]*Replica, len(ids)),
		order:       append([]clock.ReplicaID(nil), ids...),
		partitioned: map[[2]clock.ReplicaID]bool{},
		blocked:     map[[2]clock.ReplicaID][]WireTxn{},
	}
	for _, id := range ids {
		r := NewReplica(id)
		r.SetOnCommit(c.replicate)
		c.replicas[id] = r
	}
	return c
}

// replicate is every member's commit hook: it sends w to the other
// members, then hands it to the observer. The sim never waits on a disk,
// so it returns no wait.
func (c *Cluster) replicate(w WireTxn) func() {
	atomic.AddUint64(&c.TxnsCommitted, 1)
	for _, id := range c.order {
		if id != w.Origin {
			c.send(w.Origin, id, w)
		}
	}
	if c.onCommit != nil {
		c.onCommit(w)
	}
	return nil
}

// SetOnCommit installs an observer of every committed update
// transaction's wire form (nil removes it). It runs under the origin
// replica's lock, after the sends to the other members.
func (c *Cluster) SetOnCommit(fn func(WireTxn)) { c.onCommit = fn }

// Sim returns the simulation driving this cluster.
func (c *Cluster) Sim() *wan.Sim { return c.sim }

// Replica returns the replica with the given id.
func (c *Cluster) Replica(id clock.ReplicaID) *Replica {
	r, ok := c.replicas[id]
	if !ok {
		panic(fmt.Sprintf("store: unknown replica %q", id))
	}
	return r
}

// Replicas returns the replica ids in creation order.
func (c *Cluster) Replicas() []clock.ReplicaID { return c.order }

// SetPartitioned blocks (or unblocks) the link between two replicas in
// both directions. Messages sent while partitioned are buffered and
// flushed when the partition heals — replication resumes, no update is
// lost (the availability model of weak consistency).
func (c *Cluster) SetPartitioned(a, b clock.ReplicaID, partitioned bool) {
	c.partitioned[[2]clock.ReplicaID{a, b}] = partitioned
	c.partitioned[[2]clock.ReplicaID{b, a}] = partitioned
	if !partitioned {
		for _, key := range [][2]clock.ReplicaID{{a, b}, {b, a}} {
			msgs := c.blocked[key]
			delete(c.blocked, key)
			for _, m := range msgs {
				c.send(key[0], key[1], m)
			}
		}
	}
}

// SetPaused freezes (or thaws) a replica's delivery buffer — the
// crash/recovery fault hook (see Replica.SetPaused).
func (c *Cluster) SetPaused(id clock.ReplicaID, paused bool) {
	c.Replica(id).SetPaused(paused)
}

func (c *Cluster) send(from, to clock.ReplicaID, w WireTxn) {
	if c.partitioned[[2]clock.ReplicaID{from, to}] {
		c.blocked[[2]clock.ReplicaID{from, to}] = append(c.blocked[[2]clock.ReplicaID{from, to}], w)
		return
	}
	atomic.AddUint64(&c.MessagesSent, 1)
	d := c.latency.OneWay(string(from), string(to), c.sim.Rand())
	dst := c.replicas[to]
	c.sim.After(d, func() { dst.Deliver(w) })
}

// Stabilize runs the stability round (clock.Horizon) over every
// replica's delivered cut and lets every CRDT compact metadata below the
// horizon. Call it periodically from the harness, or once after a run.
//
// Compaction also gets the frontier — each origin's
// current commit count, which upper-bounds every event concurrent with a
// newly stable one. Remove-wins tombstones need it to decide when they
// can finally be discarded (crdt.FrontierCompacter): stability of the
// tombstone alone does not rule out a concurrent add still in flight.
func (c *Cluster) Stabilize() clock.Vector {
	atomic.AddUint64(&c.StabilityRuns, 1)
	cuts := make([]clock.Vector, len(c.order))
	for i, id := range c.order {
		cuts[i] = c.replicas[id].Clock()
	}
	h, frontier := clock.Horizon(c.order, cuts)
	for _, id := range c.order {
		c.replicas[id].CompactAll(h, frontier)
	}
	return h
}

// Update is one CRDT operation against a key.
type Update struct {
	Key string
	Op  crdt.Op
}

// Replica is one data center's copy of the database. Inside the
// simulation a replica executes serially (the sim is single-threaded);
// under a real transport the same replica serves concurrent local
// transactions and concurrent Deliver callers, synchronised by the
// locking discipline described in the package comment.
type Replica struct {
	id clock.ReplicaID

	// onCommit receives the wire form of every committed update
	// transaction (see SetOnCommit); nil sends nowhere.
	onCommit func(WireTxn) func()

	// mu is the replica lock (see the package comment). It guards
	// objects and seq, the event-tag counter.
	mu      sync.Mutex
	objects map[string]crdt.CRDT
	seq     uint64

	// clockMu guards vc.
	clockMu sync.Mutex
	vc      clock.Vector // delivered cut; vc[id] == local commit sequence

	// deliverMu guards the causal delivery buffer (see Deliver): the
	// buffered transactions by origin and FirstSeq, every origin ever
	// buffered in sorted order (the deterministic drain order), their
	// total count, and the pause flag.
	deliverMu sync.Mutex
	byOrigin  map[clock.ReplicaID]map[uint64]WireTxn
	origins   []clock.ReplicaID
	buffered  int
	paused    bool

	// invalid marks a replica instance that no longer represents its
	// site: the process crashed and a *different* Replica now carries
	// the identity (recovery builds a fresh instance from WAL +
	// snapshot), or the site was decommissioned. Sessions pinned to an
	// invalidated instance must not silently read its frozen,
	// possibly pre-snapshot state — Session.Begin fails with ErrStale.
	invalid atomic.Bool

	// Stats. TxnsExecuted is updated atomically (a transaction that
	// touched nothing commits outside every lock); TxnsDelivered and TxnsDuplicate are
	// guarded by clockMu, QueuedMax (the buffer's high-water mark) by
	// deliverMu. Read them from a quiescent replica.
	TxnsExecuted  uint64
	TxnsDelivered uint64
	TxnsDuplicate uint64
	QueuedMax     int
}

// NewReplica creates an empty replica whose commits go nowhere until
// SetOnCommit installs a hook.
func NewReplica(id clock.ReplicaID) *Replica {
	return &Replica{
		id:       id,
		objects:  map[string]crdt.CRDT{},
		vc:       clock.New(),
		byOrigin: map[clock.ReplicaID]map[uint64]WireTxn{},
	}
}

// SetOnCommit installs the replica's commit hook, which receives the wire
// form of every committed update transaction. The hook runs under the
// replica lock, so the order it sees matches sequence order; it must
// hand the transaction on and return, never wait on a peer. It may
// return a wait function (nil for none) — a durable transport's fsync —
// which runs after the transaction has released the lock, blocking
// Commit but nothing else; a transaction given a sink by
// Txn.DeferDurability appends the wait there instead. Install it before
// the replica commits.
func (r *Replica) SetOnCommit(fn func(WireTxn) func()) { r.onCommit = fn }

// Invalidate marks this replica instance as no longer representing its
// site (crash or decommission). Idempotent; never unset — a recovered
// site is a new Replica instance.
func (r *Replica) Invalidate() { r.invalid.Store(true) }

// Invalidated reports whether Invalidate was called.
func (r *Replica) Invalidated() bool { return r.invalid.Load() }

// EnsureSeq raises the replica's local event-tag counter to at least
// seq. Recovery calls it after replaying the write-ahead log: the log
// can hold own-origin commits past the snapshot's cut, and reusing
// their sequence numbers for new commits would make two different
// transactions share identity across the mesh.
func (r *Replica) EnsureSeq(seq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.seq {
		r.seq = seq
	}
}

// ID returns the replica identifier.
func (r *Replica) ID() clock.ReplicaID { return r.id }

// Clock returns a copy of the replica's delivered causal cut.
func (r *Replica) Clock() clock.Vector {
	r.clockMu.Lock()
	defer r.clockMu.Unlock()
	return r.vc.Clone()
}

// Covers reports whether the replica has delivered the given causal cut.
func (r *Replica) Covers(v clock.Vector) bool {
	r.clockMu.Lock()
	defer r.clockMu.Unlock()
	return v.LEq(r.vc)
}

// Object returns the CRDT stored at key, creating it with mk when absent.
// The lookup holds the replica lock; reads of the returned object do
// not — read through a transaction when the replica is live, and use
// Object directly only for seeding before traffic starts.
func (r *Replica) Object(key string, mk func() crdt.CRDT) crdt.CRDT {
	r.mu.Lock()
	defer r.mu.Unlock()
	obj, ok := r.objects[key]
	if !ok {
		obj = mk()
		r.objects[key] = obj
	}
	return obj
}

// Lookup returns the CRDT stored at key if it exists. The same read
// caveat as Object applies.
func (r *Replica) Lookup(key string) (crdt.CRDT, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	obj, ok := r.objects[key]
	return obj, ok
}

// Begin starts a highly available transaction at this replica. Concurrent
// transactions on one replica are allowed: each holds the replica lock
// from its first object access or tag to Commit, so they run one after
// another. Always commit exactly once. Begin copies no clock: an update
// transaction takes its dependency vector at commit (commitUpdates), and
// a read-only or refused one never needs one.
func (r *Replica) Begin() *Txn {
	return &Txn{r: r}
}

// applyRemote applies one effect group atomically with respect to local
// transactions. Its only caller is applyReady, under deliverMu, so groups
// apply one at a time. The replica lock is held from before the first
// update until — crucially — after the delivered cut advances. A local
// transaction that reads any of the group's effects can therefore only do
// so after the clock includes the group, so the delivered cut it merges
// at commit covers everything it read (the local commit path holds the
// lock across its own clock write for the same reason).
func (r *Replica) applyRemote(w WireTxn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, u := range w.Updates {
		obj, ok := r.objects[u.Key]
		if !ok {
			// Object type is implied by the op; instantiate lazily through
			// the shared constructor registry.
			obj = crdt.NewForOp(u.Op)
			r.objects[u.Key] = obj
		}
		op := u.Op
		if a, ok := op.(crdt.RWAddOp); ok {
			// A remove-wins add observed the transaction's dependency cut
			// (crdt.RWAddOp.Deps): the origin's cut when the add applied
			// there, since no remote group applies while a transaction
			// holds the replica lock (DESIGN.md, "Bounded set metadata").
			a.Deps = w.Deps
			op = a
		}
		obj.Apply(op)
	}
	r.clockMu.Lock()
	r.vc.Set(w.Origin, w.LastSeq)
	r.TxnsDelivered++
	r.clockMu.Unlock()
}

// DeliveryStats returns a synchronized snapshot of the delivery counters
// (TxnsDelivered, TxnsDuplicate) — the race-free way to read them while
// transports deliver.
func (r *Replica) DeliveryStats() (delivered, duplicate uint64) {
	r.clockMu.Lock()
	defer r.clockMu.Unlock()
	return r.TxnsDelivered, r.TxnsDuplicate
}

// CompactAll lets every CRDT at this replica discard metadata made
// redundant by the stability horizon; frontier carries the per-origin
// commit counts of the stability round (see Cluster.Stabilize). It holds
// the replica lock, so compaction is safe concurrent with live
// transactions and deliveries. Exposed so replication backends without a
// shared Cluster — one replica per node, as in netrepl — can run the same
// compaction from a gathered global view.
func (r *Replica) CompactAll(horizon, frontier clock.Vector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, obj := range r.objects {
		if fc, ok := obj.(crdt.FrontierCompacter); ok {
			fc.CompactWithFrontier(horizon, frontier)
		} else {
			obj.Compact(horizon)
		}
	}
}
