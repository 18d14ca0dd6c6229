// Package clock provides logical time for the replicated store: vector
// clocks, globally unique event identifiers, and the stability round
// (low-watermark) used for tombstone garbage collection.
//
// A vector clock maps replica identifiers to the number of events the
// replica has generated. Clocks are compared under the usual partial order:
// a ≤ b iff every entry of a is ≤ the corresponding entry of b.
//
// A Vector is a sorted slice, so copies share their entries. One aliasing
// rule keeps that safe: mutate (Set, Tick, Merge) only a vector you own,
// and never mutate one after handing it off. A replica owns its delivered
// cut and hands out clones (store.Replica.Clock); a committed
// transaction's dependency vector is handed off at commit, after which
// the wire codecs, every receiver's causal-delivery check and every
// remove-wins add record read it, shared, and nobody writes it again.
package clock

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// ReplicaID identifies one replica (data center) of the database.
type ReplicaID string

// EventID names a single update event: the seq-th event generated by
// Replica. EventIDs are unique across the system and never reused.
type EventID struct {
	Replica ReplicaID
	Seq     uint64
}

// String returns "replica:seq", e.g. "us-east:42".
func (e EventID) String() string { return fmt.Sprintf("%s:%d", e.Replica, e.Seq) }

// Less orders EventIDs lexicographically by (Replica, Seq). The order is
// arbitrary but total and deterministic, which CRDTs use to break ties.
func (e EventID) Less(o EventID) bool {
	if e.Replica != o.Replica {
		return e.Replica < o.Replica
	}
	return e.Seq < o.Seq
}

// Entry is one replica's component of a vector clock: Replica has
// generated (or the holder has seen) Seq events.
type Entry struct {
	Replica ReplicaID
	Seq     uint64
}

// Vector is a vector clock: its entries sorted by Replica, at most one
// per replica. A replica without an entry reads zero. The zero value (a
// nil slice) is a valid clock with all entries zero, and stays distinct
// from an empty non-nil vector for the codecs that care (see
// crdt.AppendVectorWire). Build a vector with New, Of, Set or Merge, or
// decode one; a literal must list its entries in sorted replica order.
// Vectors are not safe for concurrent mutation.
type Vector []Entry

// New returns an empty (non-nil) vector clock.
func New() Vector { return Vector{} }

// Of returns the vector holding m's entries, zero entries included.
func Of(m map[ReplicaID]uint64) Vector {
	v := make(Vector, 0, len(m))
	for r, n := range m {
		v = append(v, Entry{r, n})
	}
	slices.SortFunc(v, byReplica)
	return v
}

func byReplica(a, b Entry) int { return cmp.Compare(a.Replica, b.Replica) }

// Normalize returns v in canonical form: entries sorted by replica, the
// last of any duplicates kept. A vector whose entries are already
// strictly ascending is returned as is; otherwise v is reordered in
// place. Decoders use it on entries read off an untrusted wire.
func Normalize(v Vector) Vector {
	sorted := true
	for i := 1; i < len(v); i++ {
		if v[i-1].Replica >= v[i].Replica {
			sorted = false
			break
		}
	}
	if sorted {
		return v
	}
	slices.SortStableFunc(v, byReplica)
	out := v[:0]
	for i, e := range v {
		if i+1 < len(v) && v[i+1].Replica == e.Replica {
			continue // a later duplicate wins, as a map assignment would
		}
		out = append(out, e)
	}
	return out
}

// find returns the index of r's entry, or where it would be inserted.
// Vectors hold a handful of replicas, so a scan beats a binary search.
func (v Vector) find(r ReplicaID) (int, bool) {
	for i, e := range v {
		if e.Replica >= r {
			return i, e.Replica == r
		}
	}
	return len(v), false
}

// Get returns the entry for r (zero when absent).
func (v Vector) Get(r ReplicaID) uint64 {
	if i, ok := v.find(r); ok {
		return v[i].Seq
	}
	return 0
}

// Set sets the entry for r, in place when r already has one.
func (v *Vector) Set(r ReplicaID, n uint64) {
	i, ok := v.find(r)
	if ok {
		(*v)[i].Seq = n
		return
	}
	*v = slices.Insert(*v, i, Entry{r, n})
}

// Tick increments r's entry and returns the EventID of the new event.
func (v *Vector) Tick(r ReplicaID) EventID {
	n := v.Get(r) + 1
	v.Set(r, n)
	return EventID{Replica: r, Seq: n}
}

// Contains reports whether event e is in the causal past described by v,
// i.e. v has seen at least e.Seq events from e.Replica.
func (v Vector) Contains(e EventID) bool { return v.Get(e.Replica) >= e.Seq }

// Clone returns an independent copy of v; the copy of a nil vector is
// empty, not nil.
func (v Vector) Clone() Vector {
	return append(make(Vector, 0, len(v)), v...)
}

// Merge sets v to the pointwise maximum of v and o. It works in place
// unless o has a nonzero entry for a replica v lacks.
func (v *Vector) Merge(o Vector) {
	cur := *v
	i := 0
	for _, e := range o {
		for i < len(cur) && cur[i].Replica < e.Replica {
			i++
		}
		switch {
		case i < len(cur) && cur[i].Replica == e.Replica:
			if e.Seq > cur[i].Seq {
				cur[i].Seq = e.Seq
			}
		case e.Seq > 0:
			cur = slices.Insert(cur, i, e)
		}
	}
	*v = cur
}

// LEq reports whether v ≤ o in the pointwise partial order.
func (v Vector) LEq(o Vector) bool {
	j := 0
	for _, e := range v {
		if e.Seq == 0 {
			continue
		}
		for j < len(o) && o[j].Replica < e.Replica {
			j++
		}
		if j == len(o) || o[j].Replica != e.Replica || o[j].Seq < e.Seq {
			return false
		}
	}
	return true
}

// Equal reports whether v and o describe the same causal cut.
func (v Vector) Equal(o Vector) bool { return v.LEq(o) && o.LEq(v) }

// Before reports v < o (strictly causally before).
func (v Vector) Before(o Vector) bool { return v.LEq(o) && !o.LEq(v) }

// Concurrent reports that neither clock dominates the other.
func (v Vector) Concurrent(o Vector) bool { return !v.LEq(o) && !o.LEq(v) }

// Sum returns the total number of events in the cut (useful as a cheap
// monotone measure of progress).
func (v Vector) Sum() uint64 {
	var s uint64
	for _, e := range v {
		s += e.Seq
	}
	return s
}

// String renders the clock deterministically, e.g. "{eu-west:3 us-east:7}".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range v {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", e.Replica, e.Seq)
	}
	b.WriteByte('}')
	return b.String()
}

// GLB returns the pointwise minimum of the given vectors over the union of
// replicas present in all of them; replicas absent from any vector get 0.
// The GLB of the per-replica delivery vectors is the stability horizon:
// every event at or below it has been delivered everywhere.
func GLB(vs ...Vector) Vector {
	out := New()
	if len(vs) == 0 {
		return out
	}
	for _, e := range vs[0] {
		lo := e.Seq
		for _, v := range vs[1:] {
			lo = min(lo, v.Get(e.Replica))
		}
		if lo > 0 {
			out = append(out, Entry{e.Replica, lo})
		}
	}
	return out
}

// Horizon computes one stability round over a membership, given each
// member's delivered cut (cuts[i] is members[i]'s). The horizon is the
// GLB of the cuts: every event at or below it has been delivered at every
// member, so CRDTs may compact metadata below it. The frontier holds each
// member's own entry — its commit count, which upper-bounds every event
// concurrent with a newly stable one.
//
// A member whose cut is frozen (a crashed site) holds the horizon at what
// it had delivered; a member the others' cuts do not know yet (a joining
// site) holds its own entry at zero until they do.
func Horizon(members []ReplicaID, cuts []Vector) (horizon, frontier Vector) {
	frontier = make(Vector, 0, len(members))
	for i, m := range members {
		frontier.Set(m, cuts[i].Get(m))
	}
	return GLB(cuts...), frontier
}
