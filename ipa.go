// Package ipa is a from-scratch Go reproduction of
//
//	IPA: Invariant-preserving Applications for Weakly-consistent
//	Replicated Databases (Balegas, Preguiça, Duarte, Ferreira, Rodrigues;
//	2018, arXiv:1802.08474).
//
// IPA makes applications correct under weak consistency at development
// time: a static analysis finds pairs of operations whose concurrent
// execution can violate an application invariant and proposes minimal
// modifications — extra CRDT effects plus add-wins/rem-wins convergence
// rules — so that the merged state always restores the operations'
// preconditions, with no runtime coordination. Invariants that cannot
// reasonably be prevented up front (numeric bounds) are handled by lazy
// compensations.
//
// The package closes the spec → analysis → execution loop behind one
// client API: Open a replicated database (deterministic simulation or
// real TCP sockets — same interface), Mount a specification (parse, run
// the IPA analysis, compile the patched spec into a generic executor),
// and Call its operations from any replica:
//
//	db, _ := ipa.Open(ipa.ClusterOptions{})           // 3-site sim cluster
//	app, _ := db.Mount(specSource)                    // parse → analyze → executor
//	_ = app.At(ipa.PaperSites()[0]).Call("enroll", "alice", "cup")
//	_ = db.Settle()                                    // drain replication
//	violations := app.CheckInvariants()                // every replica, generically
//
// The analyzed specification *is* the application: the engine
// materializes each predicate as the right CRDT, executes base effects
// plus the analysis' repairs and compensations inside highly available
// transactions, and checks the invariants by evaluating the spec's
// logic against the running state (package internal/engine).
//
// The lower layers stay exported for direct use:
//
//   - the specification language (ParseSpec, Spec) — invariants in
//     first-order logic plus operation effects and preconditions;
//   - the analysis (Analyze, FindConflicts, ProposeRepairs) — conflict
//     detection and repair synthesis, decided by a built-in small-scope
//     SAT/bit-vector solver standing in for Z3;
//   - the runtime substrate (Open, NewSim, NewCluster, PaperTopology) —
//     a causally consistent geo-replicated key-value store with highly
//     available transactions and the paper's CRDT toolkit, behind the
//     backend-agnostic Cluster/Replica interfaces.
//
// The example applications (Tournament, Twitter, Ticket, TPC-W) live in
// internal/apps; the chaos harness drives them — and any mounted spec,
// via `ipa chaos -app spec:<file>` — under randomized faults; the
// evaluation harness in internal/bench regenerates the paper's tables.
// See DESIGN.md for the inventory and EXPERIMENTS.md for the record.
package ipa

import (
	"fmt"

	"ipa/internal/analysis"
	"ipa/internal/clock"
	"ipa/internal/engine"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// Specification language.
type (
	// Spec is an application specification: operations with effects over
	// logical predicates, invariants, and convergence rules.
	Spec = spec.Spec
	// Operation is one specified operation.
	Operation = spec.Operation
	// Effect is one predicate update of an operation.
	Effect = spec.Effect
	// Policy is a per-predicate convergence rule.
	Policy = spec.Policy
)

// Convergence policies.
const (
	AddWins = spec.AddWins
	RemWins = spec.RemWins
)

// ParseSpec parses a specification in the textual format (see package
// internal/spec for the grammar).
func ParseSpec(src string) (*Spec, error) { return spec.Parse(src) }

// MustParseSpec is ParseSpec that panics on error.
func MustParseSpec(src string) *Spec { return spec.MustParse(src) }

// Analysis.
type (
	// AnalysisOptions tunes scope and repair search.
	AnalysisOptions = analysis.Options
	// AnalysisResult is the outcome of the IPA loop: the patched spec,
	// applied repairs, synthesised compensations, flagged conflicts.
	AnalysisResult = analysis.Result
	// Conflict is a detected non-I-confluent operation pair with its
	// counterexample.
	Conflict = analysis.Conflict
	// Repair is one proposed resolution for a conflict.
	Repair = analysis.Repair
	// Compensation is a synthesised lazy repair for a numeric invariant.
	Compensation = analysis.Compensation
)

// Analyze runs the full IPA loop (paper Alg. 1) on the specification and
// returns the patched, invariant-preserving spec plus the applied repairs
// and compensations. The input is not modified.
func Analyze(s *Spec, opts AnalysisOptions) (*AnalysisResult, error) {
	return analysis.Run(s, opts)
}

// FindConflicts reports every conflicting operation pair of the spec.
func FindConflicts(s *Spec, opts AnalysisOptions) ([]*Conflict, error) {
	return analysis.FindConflicts(s, opts)
}

// ProposeRepairs lists the minimal repairs for one conflict, smallest
// first (paper repairConflicts).
func ProposeRepairs(s *Spec, c *Conflict, opts AnalysisOptions) ([]Repair, error) {
	return analysis.RepairConflict(s, c, opts)
}

// Runtime substrate. Cluster and Replica are the backend-agnostic
// interfaces every layer above the substrate programs against; both the
// deterministic simulation and the real-socket netrepl transport
// implement them.
type (
	// Sim is the deterministic discrete-event simulation driving a
	// sim-backed cluster.
	Sim = wan.Sim
	// Latency models inter-datacenter delays.
	Latency = wan.Latency
	// Cluster is a geo-replicated database deployment (sim or netrepl).
	Cluster = runtime.Cluster
	// Replica is one data center's copy of the database.
	Replica = runtime.Replica
	// Txn is a highly available transaction.
	Txn = store.Txn
	// ReplicaID identifies a replica.
	ReplicaID = clock.ReplicaID
	// Faults is the optional fault-injection surface of a Cluster
	// (type-assert: both built-in backends implement it).
	Faults = runtime.Faults
)

// Backend names for ClusterOptions.Backend.
const (
	// BackendSim is the deterministic discrete-event simulation.
	BackendSim = runtime.BackendSim
	// BackendNet is the real-socket netrepl transport.
	BackendNet = runtime.BackendNet
)

// NewSim creates a deterministic simulation with the given seed.
func NewSim(seed int64) *Sim { return wan.NewSim(seed) }

// PaperTopology returns the paper's three-region latency model
// (us-east/us-west/eu-west, 80/80/160 ms RTTs).
func PaperTopology() *Latency { return wan.PaperTopology() }

// PaperSites returns the three replica identifiers of the paper's
// deployment.
func PaperSites() []ReplicaID {
	return []ReplicaID{wan.USEast, wan.USWest, wan.EUWest}
}

// NewCluster creates a simulator-backed replicated database over the
// given sites, behind the backend-agnostic interface.
func NewCluster(sim *Sim, lat *Latency, sites []ReplicaID) Cluster {
	return runtime.NewSimCluster(store.NewCluster(sim, lat, sites))
}

// NewPaperCluster is the common simulation setup: the paper's three
// sites and topology under one seeded simulation.
func NewPaperCluster(seed int64) (*Sim, Cluster) {
	sim := wan.NewSim(seed)
	return sim, NewCluster(sim, wan.PaperTopology(), PaperSites())
}

// NewNetCluster creates a real-socket replication cluster (one netrepl
// node per site on loopback TCP, fully meshed) behind the same
// interface. Close it when done.
func NewNetCluster(sites []ReplicaID) (Cluster, error) {
	return runtime.NewNetCluster(sites, runtime.NetConfig{})
}

// --- The client API: Open → Mount → Session.Call ---------------------

// ClusterOptions configures Open. The zero value opens the paper's
// three-site deployment on the deterministic simulator.
type ClusterOptions struct {
	// Backend selects the substrate: BackendSim (default) or BackendNet.
	Backend string
	// Sites lists the replica identifiers; default PaperSites().
	Sites []ReplicaID
	// Seed drives the simulation (sim backend only).
	Seed int64
	// DataDir, when non-empty, makes every replica durable (net backend
	// only): each site keeps a write-ahead log and periodic snapshots
	// under DataDir/<site>, survives kill -9, and recovers on reopen.
	// See runtime.NetConfig.DataDir.
	DataDir string
}

// DB is an open replicated database: a cluster of causally consistent
// replicas on either backend, ready to mount analyzed applications.
type DB struct {
	cluster runtime.Cluster
	sim     *wan.Sim
}

// Open creates a replicated database.
func Open(opts ClusterOptions) (*DB, error) {
	sites := opts.Sites
	if len(sites) == 0 {
		sites = PaperSites()
	}
	switch opts.Backend {
	case "", BackendSim:
		if opts.DataDir != "" {
			return nil, fmt.Errorf("ipa: DataDir requires the %s backend (the simulator is memory-only)", BackendNet)
		}
		sim := wan.NewSim(opts.Seed)
		return &DB{cluster: NewCluster(sim, wan.PaperTopology(), sites), sim: sim}, nil
	case BackendNet:
		c, err := runtime.NewNetCluster(sites, runtime.NetConfig{DataDir: opts.DataDir})
		if err != nil {
			return nil, err
		}
		return &DB{cluster: c}, nil
	default:
		return nil, fmt.Errorf("ipa: unknown backend %q (want %s or %s)", opts.Backend, BackendSim, BackendNet)
	}
}

// Cluster returns the underlying backend-agnostic cluster.
func (db *DB) Cluster() Cluster { return db.cluster }

// Sim returns the driving simulation on the sim backend, nil on netrepl.
func (db *DB) Sim() *Sim { return db.sim }

// Replicas lists the database's replica identifiers.
func (db *DB) Replicas() []ReplicaID { return db.cluster.Replicas() }

// Settle blocks until replication has quiesced: every commit issued so
// far is delivered everywhere (the sim drains its event loop; netrepl
// waits for clock convergence).
func (db *DB) Settle() error { return db.cluster.Settle() }

// Stabilize computes the stability horizon and lets every CRDT compact
// metadata below it.
func (db *DB) Stabilize() { db.cluster.Stabilize() }

// Close releases backend resources (listeners, sender goroutines); a
// no-op on the simulator.
func (db *DB) Close() error { return db.cluster.Close() }

// Mount parses a specification, runs the IPA analysis on it, and
// compiles the patched result into an executable application on this
// database: the full loop of the paper behind one call. Use
// MountAnalyzed to control analysis options or repair choices.
func (db *DB) Mount(src string) (*App, error) {
	s, err := spec.Parse(src)
	if err != nil {
		return nil, err
	}
	res, err := analysis.Run(s, analysis.Options{})
	if err != nil {
		return nil, err
	}
	return db.MountAnalyzed(s, res)
}

// MountAnalyzed compiles an already-analyzed specification. orig is the
// pre-analysis spec (it distinguishes an operation's own effects from
// the analysis-injected repairs, which execute as payload-preserving
// touches); pass nil to treat every effect as the operation's own.
func (db *DB) MountAnalyzed(orig *Spec, res *AnalysisResult) (*App, error) {
	eng, err := engine.Mount(orig, res, db.cluster)
	if err != nil {
		return nil, err
	}
	return &App{db: db, eng: eng}, nil
}

// ErrPrecondition reports that a Call did not execute because its
// preconditions failed at the origin replica (a guarded no-op, exactly
// like the hand-coded applications); test with errors.Is.
var ErrPrecondition = engine.ErrPrecondition

// App is a mounted application: the spec-execution engine bound to the
// database's replicas.
type App struct {
	db  *DB
	eng *engine.App
}

// Analysis returns the IPA analysis outcome the app was mounted from.
func (app *App) Analysis() *AnalysisResult { return app.eng.Result() }

// Spec returns the patched, invariant-preserving specification the
// engine executes.
func (app *App) Spec() *Spec { return app.eng.Spec() }

// Operations lists the callable operation names.
func (app *App) Operations() []string { return app.eng.Operations() }

// At returns a session bound to the replica — the client's entry point
// for executing operations at that site.
func (app *App) At(id ReplicaID) *Session {
	return &Session{app: app, replica: app.db.cluster.Replica(id)}
}

// CheckInvariants evaluates the continuously guaranteed invariant
// clauses at every replica and returns the violations, prefixed with
// the replica id. It may be called at any instant — these clauses hold
// in every causally consistent state.
func (app *App) CheckInvariants() []string {
	return app.checkAll(app.eng.CheckInvariants)
}

// CheckQuiescent additionally asserts the compensation-protected
// clauses; call after Settle and Repair (i.e. at quiescence).
func (app *App) CheckQuiescent() []string {
	return app.checkAll(app.eng.CheckQuiescent)
}

func (app *App) checkAll(check func(runtime.Replica) []string) []string {
	var out []string
	for _, id := range app.db.cluster.Replicas() {
		for _, msg := range check(app.db.cluster.Replica(id)) {
			out = append(out, fmt.Sprintf("%s: %s", id, msg))
		}
	}
	return out
}

// Repair runs the analysis' compensations as read-time repairs at every
// replica (trim oversold collections, replenish violated lower bounds).
// Interleave with Settle rounds at quiescence so repairs replicate.
func (app *App) Repair() {
	for _, id := range app.db.cluster.Replicas() {
		app.eng.Repair(app.db.cluster.Replica(id))
	}
}

// Digest summarizes one replica's visible specification-level state; at
// quiescence all replicas digest identically.
func (app *App) Digest(id ReplicaID) string {
	return app.eng.Digest(app.db.cluster.Replica(id))
}

// Session executes a mounted application's operations at one replica.
// Sessions are lightweight; create one per replica as needed.
type Session struct {
	app     *App
	replica runtime.Replica
}

// Replica returns the session's backend replica (for direct
// transactional access alongside engine calls).
func (s *Session) Replica() Replica { return s.replica }

// Call executes one specification operation in a single highly
// available transaction at the session's replica: origin-side
// precondition checks, then the operation's effects plus the analysis'
// repairs, ensures, and cascades. A failed precondition returns
// ErrPrecondition (the call is a no-op); other errors indicate caller
// mistakes (unknown operation, wrong arity, reserved characters in
// arguments).
func (s *Session) Call(op string, args ...string) error {
	return s.app.eng.Call(s.replica, op, args...)
}

// Typed transaction views over the stored CRDTs.
var (
	// AWSetAt binds the add-wins set at key within a transaction.
	AWSetAt = store.AWSetAt
	// RWSetAt binds the remove-wins set at key.
	RWSetAt = store.RWSetAt
	// CounterAt binds the PN-counter at key.
	CounterAt = store.CounterAt
	// BoundedAt binds the bounded (escrow) counter at key.
	BoundedAt = store.BoundedAt
	// RegisterAt binds the LWW register at key.
	RegisterAt = store.RegisterAt
	// CompSetAt binds the Compensation Set at key (seed it first with
	// SeedCompSet at every replica).
	CompSetAt = store.CompSetAt
	// SeedCompSet creates a Compensation Set with a size bound at one
	// replica.
	SeedCompSet = store.SeedCompSet
)
