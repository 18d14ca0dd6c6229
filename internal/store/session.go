package store

import (
	"fmt"

	"ipa/internal/clock"
)

// Session provides causal session guarantees for a client that may attach
// to different replicas over its lifetime — SwiftCloud's client-side
// causal consistency ("write fast, read in the past" [48]). The session
// tracks the causal cut it has observed; attaching to a replica that has
// not yet delivered that cut fails with ErrStale instead of showing the
// client older state, which preserves:
//
//   - read your writes: the cut includes the client's own commits;
//   - monotonic reads: the cut only grows;
//   - writes follow reads / monotonic writes: transactions started
//     through the session depend on everything the session has seen.
type Session struct {
	deps clock.Vector
}

// NewSession starts a session with an empty causal past.
func NewSession() *Session { return &Session{deps: clock.New()} }

// ErrStale reports that a replica has not yet delivered the session's
// causal past; the client should retry, wait, or attach elsewhere.
type ErrStale struct {
	Replica clock.ReplicaID
	Need    clock.Vector
	Have    clock.Vector
}

func (e *ErrStale) Error() string {
	return fmt.Sprintf("store: replica %s is stale for this session: needs %s, has %s",
		e.Replica, e.Need, e.Have)
}

// CanUse reports whether the replica covers the session's causal past.
func (s *Session) CanUse(r *Replica) bool { return r.Covers(s.deps) }

// Begin starts a transaction at the replica, provided it covers the
// session's past. The session advances in two steps: to the replica's
// delivered cut at Begin immediately (the staleness check's snapshot),
// and — because on a concurrent backend reads inside the transaction can
// observe remote effects applied after the snapshot — to the replica's
// delivered cut when the transaction commits (an OnFinish hook; the
// post-commit cut is a superset of everything the transaction read or
// wrote). Sessions are single-client state: commit the transaction on
// the goroutine that owns the session.
func (s *Session) Begin(r *Replica) (*Txn, error) {
	if r.Invalidated() {
		// The instance no longer represents its site: the process
		// crashed and recovered into a fresh Replica, or the site was
		// decommissioned. Its state is frozen at (or, after a recovery
		// from an older snapshot, behind) the moment it died — reads
		// through it would silently violate monotonicity against the
		// recovered site. Fail like any other staleness; the client
		// re-resolves the site and re-pins.
		return nil, &ErrStale{Replica: r.id, Need: s.deps.Clone(), Have: r.Clock()}
	}
	have := r.Clock()
	if !s.deps.LEq(have) {
		return nil, &ErrStale{Replica: r.id, Need: s.deps.Clone(), Have: have}
	}
	s.deps.Merge(have)
	tx := r.Begin()
	tx.OnFinish(func() { s.deps.Merge(r.Clock()) })
	return tx, nil
}

// Observe folds a committed transaction's effects into the session (read
// your writes across replicas). Call it after Commit. It merges the
// replica's delivered cut, not the transaction's Begin snapshot: on a
// concurrent backend the transaction's reads see everything applied
// while it was open, and the session cut must cover all of it (monotonic
// reads) — the post-commit cut is a superset of every such read and of
// the transaction's own writes.
func (s *Session) Observe(tx *Txn) {
	s.deps.Merge(tx.r.Clock())
	if tx.lastSeq > s.deps.Get(tx.r.id) {
		s.deps.Set(tx.r.id, tx.lastSeq)
	}
}

// Cut returns a copy of the session's causal past.
func (s *Session) Cut() clock.Vector { return s.deps.Clone() }
