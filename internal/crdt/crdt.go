// Package crdt implements the operation-based conflict-free replicated
// data types the IPA runtime relies on (paper §4.2): add-wins and
// remove-wins sets extended with touch operations, predicate (wildcard)
// removes and payload preservation; PN- and bounded (escrow) counters; a
// last-writer-wins register; and the Compensation Set, which enforces an
// aggregation constraint lazily on every read.
//
// All types assume the replication layer (package store) delivers each
// operation exactly once per replica, in causal order. Under that contract
// concurrent updates commute and all replicas converge. Stability
// information (a causal cut known to be delivered everywhere) lets the
// types discard tombstones and graveyard payloads (the SwiftCloud
// mechanism the paper uses to garbage-collect touch metadata).
package crdt

import (
	"fmt"
	"strings"

	"ipa/internal/clock"
)

// CRDT is a replicated object. Mutations are split operation-based:
// Prepare* methods (on the concrete types) build an Op against the local
// state, the store commits and replicates it, and Apply integrates it at
// every replica, the origin included.
type CRDT interface {
	// Type identifies the concrete kind, e.g. "aw-set".
	Type() string
	// Apply integrates one operation. Ops arrive exactly once, in causal
	// order. Apply must be deterministic.
	Apply(op Op)
	// Compact discards metadata made redundant by the stability horizon:
	// every event at or below the cut is known to be at every replica.
	Compact(horizon clock.Vector)
}

// FrontierCompacter is implemented by CRDTs whose tombstones must survive
// their own stability: for remove-wins semantics a tombstone below the
// horizon can still defeat a concurrent add that is in flight, so it may
// only be discarded once everything concurrent with it is also stable.
// The frontier is the per-origin commit counts at the stability round —
// an upper bound on every event concurrent with a newly stable one.
// Replication layers that compact while traffic is live must prefer this
// over Compact, whose single-argument form assumes quiescence.
type FrontierCompacter interface {
	CompactWithFrontier(horizon, frontier clock.Vector)
}

// Op is one replicated update. Concrete op types are defined next to their
// CRDTs. Every op carries the unique event ID the store assigned to it.
type Op interface {
	// ID returns the globally unique event identifier of this update.
	ID() clock.EventID
}

// Match is a serialisable element predicate used by wildcard updates such
// as the paper's enrolled(*, t) = false. Set elements that represent
// predicate tuples are Sep-joined strings (see JoinTuple); Match selects
// the elements whose Index-th component equals Value.
type Match struct {
	Index int
	Value string
}

// TupleSep separates tuple components in set elements.
const TupleSep = "\x1f"

// JoinTuple encodes a predicate tuple as a set element.
func JoinTuple(parts ...string) string { return strings.Join(parts, TupleSep) }

// SplitTuple decodes a set element into its tuple components.
func SplitTuple(elem string) []string { return strings.Split(elem, TupleSep) }

// Matches reports whether the element satisfies the predicate.
func (m Match) Matches(elem string) bool {
	parts := SplitTuple(elem)
	return m.Index < len(parts) && parts[m.Index] == m.Value
}

func (m Match) String() string { return fmt.Sprintf("[%d]=%s", m.Index, m.Value) }

// MatchFields selects tuple elements whose components equal the given
// values at every non-wildcard position — the serialisable form of a
// pattern like inMatch(p, *, t): Fields lists one value per tuple
// position, with "" standing for a wildcard. Arity guards against
// accidentally matching tuples of a different length.
type MatchFields struct {
	Arity  int
	Fields []string
}

// MatchPattern builds the predicate for a tuple pattern; wildcard
// positions are "".
func MatchPattern(fields ...string) MatchFields {
	return MatchFields{Arity: len(fields), Fields: fields}
}

// Matches reports whether the element satisfies the pattern. It walks
// the element in place without allocating: add-wins wildcard removes,
// unindexed pattern reads and the engine's planned-change filter call it
// once per candidate element. (Remove-wins sets match their wildcard
// tombstones through a pattern index instead; see RWSet.)
func (m MatchFields) Matches(elem string) bool {
	if len(m.Fields) != m.Arity {
		return false
	}
	rest := elem
	for i, f := range m.Fields {
		j := strings.Index(rest, TupleSep)
		if j < 0 {
			// Last component: the element must end here too.
			return i == m.Arity-1 && (f == "" || rest == f)
		}
		if f != "" && rest[:j] != f {
			return false
		}
		rest = rest[j+len(TupleSep):]
	}
	return false // element has more components than Arity
}

func (m MatchFields) String() string {
	out := make([]string, len(m.Fields))
	for i, f := range m.Fields {
		if f == "" {
			out[i] = "*"
		} else {
			out[i] = f
		}
	}
	return "(" + strings.Join(out, ",") + ")"
}

// MatchAll selects every element (wildcard over the whole set).
type MatchAll struct{}

// Matches always reports true.
func (MatchAll) Matches(string) bool { return true }

// Predicate selects set elements. Only the package's own predicates —
// Match, MatchFields and MatchAll — travel on the replication wire. An
// add-wins remove may carry nil (it removes only its Elem); a remove-wins
// wildcard remove must not.
type Predicate interface {
	Matches(elem string) bool
}

// eventSet is a small set of event IDs.
type eventSet map[clock.EventID]struct{}

// supersede adds e and drops the older events of e's origin. Sound for
// the live add events of an add-wins element under per-origin FIFO and
// causal delivery: a remove that observed e either observed the older
// same-origin events too or causally follows the remove that cancelled
// them, so they are dead wherever e dies; a remove that observed only an
// older one leaves e, and the add still wins. Membership, payloads and
// the largest live event are those of the full event set.
func (s eventSet) supersede(e clock.EventID) {
	for old := range s {
		if old.Replica == e.Replica {
			if old.Seq >= e.Seq {
				return // e is a duplicate or arrived behind its successor
			}
			delete(s, old)
		}
	}
	s[e] = struct{}{}
}
func (s eventSet) addAll(es []clock.EventID) {
	for _, e := range es {
		s[e] = struct{}{}
	}
}
func (s eventSet) list() []clock.EventID {
	out := make([]clock.EventID, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	return out
}
