// Package runtime defines the backend-agnostic surface the applications,
// the chaos harness, and the benchmarks program against, decoupling them
// from the replication substrate. Two backends implement it:
//
//   - SimCluster wraps the deterministic wan.Sim-backed store.Cluster —
//     virtual time, single-threaded, bit-identical replay;
//   - NetCluster wraps a mesh of netrepl.Nodes — real TCP sockets, real
//     goroutines, wall-clock time, convergence-wait instead of an
//     instantaneous event-loop drain.
//
// The split mirrors how Indigo/Antidote separate application logic from
// the replication substrate: application code sees replicas that hand out
// highly available transactions, and nothing else. Everything above this
// package — internal/apps, internal/harness, internal/bench, the CLIs —
// runs unchanged on either backend.
package runtime

import (
	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/store"
)

// Backend names.
const (
	// BackendSim is the deterministic discrete-event simulation.
	BackendSim = "sim"
	// BackendNet is the real-socket netrepl transport.
	BackendNet = "netrepl"
)

// Backends lists the available backend names.
func Backends() []string { return []string{BackendSim, BackendNet} }

// Replica is one site of the replicated database. *store.Replica is the
// sim-backed implementation; *netrepl.Node the socket-backed one.
//
// Begin starts a highly available transaction. Replicas are safe for
// concurrent use: many goroutines may hold open transactions on one
// replica at once, each two-phase-locking the key shards it touches,
// while remote effect groups arrive through the replica's causal delivery
// buffer (store.Replica.Deliver), which applies them one at a time, each
// atomically. Always commit every transaction exactly once.
// Multi-key reads that need one consistent view must happen inside a
// single transaction, binding every key before reading any (see
// store.Txn's visibility contract — a writer's contended out-of-order
// shard reacquisition is the one narrow, origin-local exception to group
// atomicity). Object, Lookup, and Clock are individually safe at any
// time but give no cross-call atomicity.
//
// Commit hands the transaction to replication while still holding its
// shard locks, and a full outbound queue blocks the committer
// (backpressure, by design — see the netrepl queue-sizing discipline in
// DESIGN.md). Drivers that commit concurrently on several replicas of one
// net-backed cluster must keep their outstanding load below the transport
// queue capacity so backpressure cycles cannot form; every driver in this
// repository sizes QueueCap above the whole workload.
type Replica interface {
	// ID returns the replica identifier.
	ID() clock.ReplicaID
	// Begin starts a highly available transaction at this replica.
	Begin() *store.Txn
	// Object returns the CRDT stored at key, creating it with mk when
	// absent (seeding outside a transaction).
	Object(key string, mk func() crdt.CRDT) crdt.CRDT
	// Lookup returns the CRDT stored at key if it exists.
	Lookup(key string) (crdt.CRDT, bool)
	// Clock returns a copy of the replica's delivered causal cut.
	Clock() clock.Vector
}

// Cluster is a set of replicas of one logical database.
type Cluster interface {
	// Backend names the substrate: BackendSim or BackendNet.
	Backend() string
	// Replicas returns the replica ids in creation order.
	Replicas() []clock.ReplicaID
	// Replica returns the replica with the given id.
	Replica(id clock.ReplicaID) Replica
	// Stabilize computes the stability horizon (the causal cut every
	// replica has delivered) and lets every CRDT compact metadata below
	// it, exactly as store.Cluster.Stabilize does on the simulator.
	Stabilize() clock.Vector
	// Settle blocks until replication has quiesced: every commit issued so
	// far is delivered everywhere. The sim backend drains its event loop
	// (instantaneous, in virtual time); the net backend waits for the
	// causal clocks to converge, and errors on timeout. Settle assumes no
	// live faults — heal partitions and unpause replicas first.
	Settle() error
	// Close releases backend resources (listeners, sender goroutines).
	// The sim backend has none; Close is then a no-op.
	Close() error
}

// Faults is the optional fault-injection surface of a Cluster. Both
// built-in backends support it; callers must type-assert and degrade
// gracefully when a backend does not. (Latency scaling, the third sim
// fault, stays sim-specific: real sockets have no latency dial.)
type Faults interface {
	// SetPartitioned blocks (or unblocks) the link between two replicas in
	// both directions. No update is lost: the sim buffers messages and
	// flushes on heal; netrepl senders retry with backoff until the
	// receiver accepts their frames again.
	SetPartitioned(a, b clock.ReplicaID, partitioned bool)
	// SetPaused freezes (or thaws) a replica's delivery buffer — remote
	// transactions buffer without applying; local commits are unaffected.
	// Unpausing drains the buffer in causal order.
	SetPaused(id clock.ReplicaID, paused bool)
}

// Lifecycle is the optional elastic-membership surface of a Cluster:
// whole-site failure and repair, beyond the link- and pipeline-level
// Faults. Callers type-assert, like Faults.
//
// The net backend implements all four operations against real state
// (per-node write-ahead logs and snapshots; see netrepl's durability
// contract). The sim backend models Crash/Recover as a delivery pause —
// its messages are buffered in the simulator and never lost, so a
// simulated site is durable by construction — and does not support
// Join/Decommission (fixed membership).
type Lifecycle interface {
	// Crash kills a site abruptly — no drain, no flush; kill -9
	// semantics. Sessions pinned to the dead replica instance fail with
	// store.ErrStale. The site's data directory survives for Recover.
	// Fails when the backend cannot recover the site afterwards (net
	// backend without a DataDir).
	Crash(id clock.ReplicaID) error
	// Recover restarts a crashed site from its durable state at the same
	// address: snapshot restore, write-ahead-log replay, then rejoining
	// live replication (peers' senders reconnect on their own; the
	// recovered node re-offers own-origin records its peers may have
	// missed). Active partitions and pauses involving the site are
	// reapplied to the new instance.
	Recover(id clock.ReplicaID) error
	// Join bootstraps a brand-new site from a donor's snapshot plus the
	// mesh's op tails and adds it to the replication and stability
	// membership.
	Join(id, donor clock.ReplicaID) error
	// Decommission drains a site's outbound work and removes it from the
	// mesh and the stability membership permanently; its replica is
	// invalidated. The remaining sites' horizon no longer waits on it.
	Decommission(id clock.ReplicaID) error
	// Durable reports whether crashed sites can actually recover their
	// state (the net backend: a configured DataDir).
	Durable() bool
}
