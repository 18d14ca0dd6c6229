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
// highly available transactions, and nothing else. The applications, the
// engine, the chaos harness and the paper-figure drivers program against
// Cluster and run on either backend; the serving layer (package server,
// `ipa serve`) runs on NetCluster only. Whoever builds a cluster knows
// which backend it is, so Cluster does not say.
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
// concurrent use: many goroutines may begin transactions on one replica
// at once, and each holds the replica's lock from its first object
// access to Commit, while remote effect groups arrive through the
// replica's causal delivery buffer (store.Replica.Deliver), which applies
// them one at a time, each atomically, under the same lock. Always commit
// every transaction exactly once. A transaction's reads are one
// consistent view, and every transaction's effects become visible whole
// (see store.Txn's visibility contract). Object, Lookup, and Clock are
// individually safe at any time but give no cross-call atomicity.
//
// Commit never waits on another replica: the sim buffers what a cut link
// carries, and a net-backed replica's outbound log keeps what an
// unreachable peer lacks.
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

// Cluster is a set of replicas of one logical database. Both backends
// implement all of it, Faults and Lifecycle included.
type Cluster interface {
	// Replicas returns the replica ids in creation order.
	Replicas() []clock.ReplicaID
	// Replica returns the replica with the given id.
	Replica(id clock.ReplicaID) Replica
	// Stabilize runs the stability round (clock.Horizon) over the
	// members' delivered cuts and lets every CRDT compact metadata below
	// the horizon — the causal cut every member has delivered.
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

	Faults
	Lifecycle
}

// Faults is the fault-injection part of every Cluster. (Latency scaling,
// the third sim fault, stays sim-specific: real sockets have no latency
// dial.)
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

// Lifecycle is the elastic-membership part of every Cluster: whole-site
// failure and repair, beyond the link- and pipeline-level Faults.
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
}
