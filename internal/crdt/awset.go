package crdt

import (
	"sort"

	"ipa/internal/clock"
)

// AWSet is an add-wins (observed-remove) set with optional per-element
// payloads. A remove only cancels the add events it has observed, so an
// add concurrent with a remove survives the merge — the conflict
// resolution the IPA analysis relies on to let restoring effects prevail
// (paper Fig. 2b).
//
// The set also provides the paper's touch operation (§4.2.1): an add that
// re-asserts membership while preserving the payload the element had, even
// if a concurrent remove deleted it — removed payloads are kept in a
// graveyard until the stability horizon passes the remove.
//
// An element keeps at most one live add event per origin: a newer add or
// touch from the same origin supersedes the older ones when it applies
// (see supersede), so a long-lived element that is touched on every
// call holds #origins tags, not one per touch.
type AWSet struct {
	elems     map[string]awElem // live elements
	graveyard map[string]graveEntry
}

// awElem is a live element: its add events, at most one per origin, and
// its payload.
type awElem struct {
	tags    eventSet
	payload string
}

type graveEntry struct {
	payload string
	removed clock.EventID // the remove event that sent the payload here
}

// NewAWSet returns an empty add-wins set.
func NewAWSet() *AWSet {
	return &AWSet{elems: map[string]awElem{}, graveyard: map[string]graveEntry{}}
}

// Type implements CRDT.
func (s *AWSet) Type() string { return "aw-set" }

// AWAddOp adds an element (or touches it, preserving payload).
type AWAddOp struct {
	Elem  string
	Tag   clock.EventID
	Pay   string
	Touch bool // touch: do not overwrite an existing payload
}

// ID implements Op.
func (o AWAddOp) ID() clock.EventID { return o.Tag }

// AWRemoveOp removes the observed add events of elements. An exact
// remove and a wildcard remove differ only in how many elements the
// origin observed: a receiver cancels exactly the listed tags.
type AWRemoveOp struct {
	Observed map[string][]clock.EventID // element -> observed add tags
	Tag      clock.EventID
}

// ID implements Op.
func (o AWRemoveOp) ID() clock.EventID { return o.Tag }

// PrepareAdd builds the op that inserts elem with the given payload.
func (s *AWSet) PrepareAdd(elem, payload string, tag clock.EventID) AWAddOp {
	return AWAddOp{Elem: elem, Tag: tag, Pay: payload}
}

// PrepareTouch builds the paper's touch: membership is re-asserted (an add
// that wins over concurrent removes) but the element's existing payload is
// kept — including a payload a concurrent remove sent to the graveyard.
func (s *AWSet) PrepareTouch(elem string, tag clock.EventID) AWAddOp {
	return AWAddOp{Elem: elem, Tag: tag, Touch: true}
}

// PrepareRemove builds the op that removes elem, cancelling the add events
// observed at this replica.
func (s *AWSet) PrepareRemove(elem string, tag clock.EventID) AWRemoveOp {
	obs := map[string][]clock.EventID{}
	if e, ok := s.elems[elem]; ok {
		obs[elem] = e.tags.list()
	}
	return AWRemoveOp{Observed: obs, Tag: tag}
}

// PrepareRemoveWhere builds a wildcard remove: every element matching pred
// has its observed add events cancelled. Adds concurrent with this op
// still win (add-wins). For remove-wins wildcard semantics use RWSet.
func (s *AWSet) PrepareRemoveWhere(pred MatchFields, tag clock.EventID) AWRemoveOp {
	obs := map[string][]clock.EventID{}
	for elem, e := range s.elems {
		if pred.Matches(elem) {
			obs[elem] = e.tags.list()
		}
	}
	return AWRemoveOp{Observed: obs, Tag: tag}
}

// Apply implements CRDT.
func (s *AWSet) Apply(op Op) {
	switch o := op.(type) {
	case AWAddOp:
		e, have := s.elems[o.Elem]
		e.tags = e.tags.supersede(o.Tag)
		switch {
		case !o.Touch:
			e.payload = o.Pay
		case !have:
			if g, ok := s.graveyard[o.Elem]; ok {
				e.payload = g.payload
				delete(s.graveyard, o.Elem)
			}
		}
		s.elems[o.Elem] = e
	case AWRemoveOp:
		for elem, observed := range o.Observed {
			e, ok := s.elems[elem]
			if !ok {
				continue
			}
			if e.tags = e.tags.without(observed); len(e.tags) > 0 {
				s.elems[elem] = e
				continue
			}
			delete(s.elems, elem)
			s.graveyard[elem] = graveEntry{payload: e.payload, removed: o.Tag}
		}
	}
}

// Compact implements CRDT: graveyard payloads whose remove event is stable
// can never be revived by a concurrent touch, so they are dropped.
func (s *AWSet) Compact(horizon clock.Vector) {
	for elem, g := range s.graveyard {
		if horizon.Contains(g.removed) {
			delete(s.graveyard, elem)
		}
	}
}

// Contains reports membership.
func (s *AWSet) Contains(elem string) bool { return len(s.elems[elem].tags) > 0 }

// Payload returns the element's payload ("" when absent).
func (s *AWSet) Payload(elem string) (string, bool) {
	e := s.elems[elem]
	return e.payload, len(e.tags) > 0
}

// Size returns the number of elements.
func (s *AWSet) Size() int { return len(s.elems) }

// Elems returns the members in sorted order.
func (s *AWSet) Elems() []string {
	out := make([]string, 0, len(s.elems))
	for e := range s.elems {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// ElemsWhere returns the members matching pred, sorted.
func (s *AWSet) ElemsWhere(pred MatchFields) []string {
	var out []string
	for e := range s.elems {
		if pred.Matches(e) {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// MetadataSize reports the number of metadata entries held: live add
// tags plus graveyard payloads. Used by the stability-GC ablation.
func (s *AWSet) MetadataSize() int {
	n := len(s.graveyard)
	for _, e := range s.elems {
		n += len(e.tags)
	}
	return n
}

// MaxTag returns the largest live add event of elem.
func (s *AWSet) MaxTag(elem string) (clock.EventID, bool) {
	ts := s.elems[elem].tags
	if len(ts) == 0 {
		return clock.EventID{}, false
	}
	max := ts[0]
	for _, t := range ts[1:] {
		if max.Less(t) {
			max = t
		}
	}
	return max, true
}
