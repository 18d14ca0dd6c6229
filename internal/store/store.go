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
// Two execution regimes share the same replica core:
//
//   - inside a wan.Sim discrete-event simulation (Cluster), execution is
//     single-threaded and deterministic — replication messages are
//     simulator events;
//   - under a real transport (package netrepl), one replica serves many
//     client goroutines while remote transactions arrive on many
//     connections at once. The replica is sharded for this: object state
//     is split into key-hashed shards with per-shard locks, local
//     transactions take fine-grained two-phase shard locks, and a remote
//     transaction's effect group locks only the shards it touches.
//
// Both regimes deliver remote transactions through one causal delivery
// buffer, Replica.Deliver, which applies them one at a time in causal
// order (see Deliver).
//
// Replica locking discipline (the order below is the global acquisition
// order; taking locks in this order only is what makes the core
// deadlock-free — see DESIGN.md for the full argument):
//
//		commitMu, deliverMu  ≺  shard[0] … shard[numShards-1] (ascending)  ≺  clockMu
//
//	  - commitMu (per replica) is the tag window: it serialises local
//	    update transactions from their first NewTag to commit, so every
//	    transaction's event tags form a contiguous block of the origin's
//	    sequence space in commit order. Contiguity is load-bearing: remote
//	    FIFO delivery and the stability horizon both interpret a vector
//	    entry n as "all events ≤ n", which interleaved tag blocks would
//	    break. Read-only transactions never touch commitMu.
//	  - deliverMu (per replica) guards the causal delivery buffer and is
//	    held while the buffer applies a remote effect group, so remote
//	    transactions apply one at a time. No path holds commitMu and
//	    deliverMu together.
//	  - shard locks are taken in ascending index order. A transaction that
//	    needs a lower-indexed shard than one it holds first tries a
//	    non-blocking TryLock (safe in any order); otherwise it releases only
//	    the shards ranked above the needed one, then takes the needed shard
//	    and reacquires the released ones in order.
//	  - clockMu guards the delivered cut (vc) and is never held while
//	    waiting for any other lock.
package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/wan"
)

// Cluster is a set of replicas of one logical database.
type Cluster struct {
	sim      *wan.Sim
	latency  *wan.Latency
	replicas map[clock.ReplicaID]*Replica
	order    []clock.ReplicaID
	stab     *clock.Stability

	// partitioned links: messages are buffered and flushed on heal.
	partitioned map[[2]clock.ReplicaID]bool
	blocked     map[[2]clock.ReplicaID][]WireTxn

	// onCommit, when set, receives the wire form of every committed
	// update transaction (see SetOnCommit). It may return a wait
	// function, which the commit path invokes after releasing the tag
	// window and shard locks — the hook durable transports use to hold
	// Commit until the transaction is fsynced without stalling other
	// committers (see SetOnCommitSync).
	onCommit func(WireTxn) func()

	// Stats. Updated atomically: on a socket-backed cluster commits run
	// on arbitrary client goroutines. Read them only from a quiescent
	// cluster or via atomic loads.
	MessagesSent  uint64
	TxnsCommitted uint64
	StabilityRuns uint64
}

// NewCluster creates one replica per id, connected by the latency model.
func NewCluster(sim *wan.Sim, latency *wan.Latency, ids []clock.ReplicaID) *Cluster {
	c := &Cluster{
		sim:         sim,
		latency:     latency,
		replicas:    make(map[clock.ReplicaID]*Replica, len(ids)),
		order:       append([]clock.ReplicaID(nil), ids...),
		stab:        clock.NewStability(ids),
		partitioned: map[[2]clock.ReplicaID]bool{},
		blocked:     map[[2]clock.ReplicaID][]WireTxn{},
	}
	for _, id := range ids {
		r := &Replica{
			id:       id,
			cluster:  c,
			vc:       clock.New(),
			byOrigin: map[clock.ReplicaID]map[uint64]WireTxn{},
		}
		for i := range r.shards {
			r.shards[i].objects = map[string]crdt.CRDT{}
		}
		c.replicas[id] = r
	}
	return c
}

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

// Stabilize computes the stability horizon (the causal cut every replica
// has delivered) and lets every CRDT compact metadata below it. Call it
// periodically from the harness, or once after a run.
//
// Alongside the horizon it hands compaction the frontier — each origin's
// current commit count, which upper-bounds every event concurrent with a
// newly stable one. Remove-wins tombstones need it to decide when they
// can finally be discarded (crdt.FrontierCompacter): stability of the
// tombstone alone does not rule out a concurrent add still in flight.
func (c *Cluster) Stabilize() clock.Vector {
	atomic.AddUint64(&c.StabilityRuns, 1)
	frontier := clock.New()
	for _, id := range c.order {
		vc := c.replicas[id].Clock()
		c.stab.Ack(id, vc)
		frontier.Set(id, vc.Get(id))
	}
	h := c.stab.Horizon()
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

// numShards is the number of key-hashed shards each replica's object
// space is split into. A power of two; 32 comfortably exceeds the core
// counts this runs on, so independent transactions rarely collide.
const numShards = 32

// shard is one lock-striped slice of a replica's object space.
type shard struct {
	mu      sync.Mutex
	objects map[string]crdt.CRDT
}

// Replica is one data center's copy of the database. Inside the
// simulation a replica executes serially (the sim is single-threaded);
// under a real transport the same replica serves concurrent local
// transactions and concurrent Deliver callers, synchronised by the
// sharded locking discipline described in the package comment.
type Replica struct {
	id      clock.ReplicaID
	cluster *Cluster
	shards  [numShards]shard

	// commitMu is the tag window (see the package comment). seq, the
	// event-tag counter, is guarded by it.
	commitMu sync.Mutex
	seq      uint64

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

	// Stats. TxnsExecuted is updated atomically (read-only transactions
	// commit outside every lock); TxnsDelivered and TxnsDuplicate are
	// guarded by clockMu, QueuedMax (the buffer's high-water mark) by
	// deliverMu. Read them from a quiescent replica.
	TxnsExecuted  uint64
	TxnsDelivered uint64
	TxnsDuplicate uint64
	QueuedMax     int
}

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
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
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

// shardIndex maps a key to its shard (FNV-1a).
func shardIndex(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % numShards)
}

// Object returns the CRDT stored at key, creating it with mk when absent.
// The lookup is shard-locked; reads of the returned object are not — read
// through a transaction when the replica is live, and use Object directly
// only for seeding before traffic starts.
func (r *Replica) Object(key string, mk func() crdt.CRDT) crdt.CRDT {
	sh := &r.shards[shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj, ok := sh.objects[key]
	if !ok {
		obj = mk()
		sh.objects[key] = obj
	}
	return obj
}

// Lookup returns the CRDT stored at key if it exists. The same read
// caveat as Object applies.
func (r *Replica) Lookup(key string) (crdt.CRDT, bool) {
	sh := &r.shards[shardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	obj, ok := sh.objects[key]
	return obj, ok
}

// Begin starts a highly available transaction at this replica. Concurrent
// transactions on one replica are allowed: object access takes per-shard
// locks (held to commit — two-phase locking), and update transactions
// additionally serialise their tagging window on the replica's commit
// lock. Always commit exactly once.
func (r *Replica) Begin() *Txn {
	r.clockMu.Lock()
	deps := r.vc.Clone()
	r.clockMu.Unlock()
	return &Txn{r: r, deps: deps}
}

// applyRemote applies one effect group atomically with respect to local
// transactions. Its only caller is applyReady, under deliverMu, so groups
// apply one at a time. Every shard the group touches is locked (in
// ascending order) before the first update applies, and —
// crucially — the delivered cut advances while those locks are still
// held. A local transaction that reads any of the group's effects can
// therefore only do so after the clock includes the group, so the
// delivered cut it merges at commit covers everything it read (the local
// commit path holds its shard locks across its own clock write for the
// same reason).
func (r *Replica) applyRemote(w WireTxn) {
	var idxBuf [8]int
	idxs := idxBuf[:0]
	for _, u := range w.Updates {
		idx := shardIndex(u.Key)
		seen := false
		for _, j := range idxs {
			if j == idx {
				seen = true
				break
			}
		}
		if !seen {
			idxs = append(idxs, idx)
		}
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		r.shards[i].mu.Lock()
	}
	for _, u := range w.Updates {
		sh := &r.shards[shardIndex(u.Key)]
		obj, ok := sh.objects[u.Key]
		if !ok {
			// Object type is implied by the op; instantiate lazily through
			// the shared constructor registry.
			obj = crdt.NewForOp(u.Op)
			sh.objects[u.Key] = obj
		}
		op := u.Op
		if a, ok := op.(crdt.RWAddOp); ok {
			// A remove-wins add observed the transaction's dependency cut
			// (crdt.RWAddOp.Deps). It covers the origin's cut when the add
			// applied there; the events it adds touch no set the
			// transaction held, so the verdicts agree (DESIGN.md, "Bounded
			// set metadata").
			a.Deps = w.Deps
			op = a
		}
		obj.Apply(op)
	}
	r.clockMu.Lock()
	r.vc.Set(w.Origin, w.LastSeq)
	r.TxnsDelivered++
	r.clockMu.Unlock()
	for i := len(idxs) - 1; i >= 0; i-- {
		r.shards[idxs[i]].mu.Unlock()
	}
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
// commit counts of the stability round (see Cluster.Stabilize). Each
// shard compacts under its own lock, so compaction is safe concurrent
// with live transactions and deliveries. Exposed so replication backends
// without a shared Cluster — one store per node, as in netrepl — can run
// the same compaction from a gathered global view.
func (r *Replica) CompactAll(horizon, frontier clock.Vector) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for _, obj := range sh.objects {
			if fc, ok := obj.(crdt.FrontierCompacter); ok {
				fc.CompactWithFrontier(horizon, frontier)
			} else {
				obj.Compact(horizon)
			}
		}
		sh.mu.Unlock()
	}
}
