// Package crdt implements the operation-based conflict-free replicated
// data types the IPA runtime relies on (paper §4.2): add-wins and
// remove-wins sets extended with touch operations, tuple-pattern
// (wildcard) removes and payload preservation; PN- and bounded (escrow)
// counters; and the Compensation Set, which enforces an aggregation
// constraint lazily on every read.
//
// All types assume the replication layer (package store) delivers each
// operation exactly once per replica, in causal order. Under that contract
// concurrent updates commute and all replicas converge. Stability
// information (a causal cut known to be delivered everywhere) lets the
// types discard tombstones and graveyard payloads (the SwiftCloud
// mechanism the paper uses to garbage-collect touch metadata).
package crdt

import (
	"slices"
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

// TupleSep separates tuple components in set elements.
const TupleSep = "\x1f"

// JoinTuple encodes a predicate tuple as a set element.
func JoinTuple(parts ...string) string { return strings.Join(parts, TupleSep) }

// SplitTuple decodes a set element into its tuple components.
func SplitTuple(elem string) []string { return strings.Split(elem, TupleSep) }

// MatchFields is the one wildcard the sets understand: a tuple pattern
// such as the paper's inMatch(p, *, t). Fields lists one value per tuple
// position, with "" standing for a wildcard, so the pattern's arity is
// len(Fields) and it never matches a tuple of another length. A
// remove-wins set indexes its wildcard tombstones by pattern (see RWSet),
// which needs an arity of 1 to 64 and bound values free of TupleSep.
type MatchFields struct {
	Fields []string
}

// MatchPattern builds a tuple pattern; wildcard positions are "".
func MatchPattern(fields ...string) MatchFields {
	return MatchFields{Fields: fields}
}

// Matches reports whether the element satisfies the pattern. It walks
// the element in place without allocating: add-wins wildcard removes,
// unindexed pattern reads and the engine's planned-change filter call it
// once per candidate element. (Remove-wins sets match their wildcard
// tombstones through a pattern index instead; see RWSet.)
func (m MatchFields) Matches(elem string) bool {
	rest := elem
	for i, f := range m.Fields {
		j := strings.Index(rest, TupleSep)
		if j < 0 {
			// Last component: the element must end here too.
			return i == len(m.Fields)-1 && (f == "" || rest == f)
		}
		if f != "" && rest[:j] != f {
			return false
		}
		rest = rest[j+len(TupleSep):]
	}
	return false // element has more components than the pattern
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

// eventSet is the live add events of an add-wins element: at most one
// per origin, the newest (see supersede).
type eventSet []clock.EventID

// supersede returns s with e added and the older event of e's origin
// dropped. Sound for the live add events of an add-wins element under
// per-origin FIFO and causal delivery: a remove that observed e either
// observed the older same-origin events too or causally follows the
// remove that cancelled them, so they are dead wherever e dies; a remove
// that observed only an older one leaves e, and the add still wins.
// Membership, payloads and the largest live event are those of the full
// event set.
func (s eventSet) supersede(e clock.EventID) eventSet {
	for i, old := range s {
		if old.Replica == e.Replica {
			if old.Seq < e.Seq {
				s[i] = e
			} // else e is a duplicate or arrived behind its successor
			return s
		}
	}
	return append(s, e)
}

// without returns s less the events in es, filtered in place.
func (s eventSet) without(es []clock.EventID) eventSet {
	out := s[:0]
	for _, e := range s {
		if !slices.Contains(es, e) {
			out = append(out, e)
		}
	}
	return out
}

// list returns a copy of the events.
func (s eventSet) list() []clock.EventID { return slices.Clone([]clock.EventID(s)) }
