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
	tags      map[string]eventSet // live add-events per element, ≤ 1 per origin
	payload   map[string]string   // payload of live elements
	graveyard map[string]graveEntry
}

type graveEntry struct {
	payload string
	removed clock.EventID // the remove event that sent the payload here
}

// NewAWSet returns an empty add-wins set.
func NewAWSet() *AWSet {
	return &AWSet{
		tags:      map[string]eventSet{},
		payload:   map[string]string{},
		graveyard: map[string]graveEntry{},
	}
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
	if ts, ok := s.tags[elem]; ok {
		obs[elem] = ts.list()
	}
	return AWRemoveOp{Observed: obs, Tag: tag}
}

// PrepareRemoveWhere builds a wildcard remove: every element matching pred
// has its observed add events cancelled. Adds concurrent with this op
// still win (add-wins). For remove-wins wildcard semantics use RWSet.
func (s *AWSet) PrepareRemoveWhere(pred MatchFields, tag clock.EventID) AWRemoveOp {
	obs := map[string][]clock.EventID{}
	for elem, ts := range s.tags {
		if pred.Matches(elem) {
			obs[elem] = ts.list()
		}
	}
	return AWRemoveOp{Observed: obs, Tag: tag}
}

// Apply implements CRDT.
func (s *AWSet) Apply(op Op) {
	switch o := op.(type) {
	case AWAddOp:
		ts, ok := s.tags[o.Elem]
		if !ok {
			ts = eventSet{}
			s.tags[o.Elem] = ts
		}
		ts.supersede(o.Tag)
		if o.Touch {
			if _, have := s.payload[o.Elem]; !have {
				if g, ok := s.graveyard[o.Elem]; ok {
					s.payload[o.Elem] = g.payload
					delete(s.graveyard, o.Elem)
				} else {
					s.payload[o.Elem] = ""
				}
			}
		} else {
			s.payload[o.Elem] = o.Pay
		}
	case AWRemoveOp:
		for elem, observed := range o.Observed {
			ts, ok := s.tags[elem]
			if !ok {
				continue
			}
			for _, t := range observed {
				delete(ts, t)
			}
			if len(ts) == 0 {
				delete(s.tags, elem)
				if pay, ok := s.payload[elem]; ok {
					s.graveyard[elem] = graveEntry{payload: pay, removed: o.Tag}
					delete(s.payload, elem)
				}
			}
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
func (s *AWSet) Contains(elem string) bool { return len(s.tags[elem]) > 0 }

// Payload returns the element's payload ("" when absent).
func (s *AWSet) Payload(elem string) (string, bool) {
	p, ok := s.payload[elem]
	return p, ok && s.Contains(elem)
}

// Size returns the number of elements.
func (s *AWSet) Size() int { return len(s.tags) }

// Elems returns the members in sorted order.
func (s *AWSet) Elems() []string {
	out := make([]string, 0, len(s.tags))
	for e := range s.tags {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// ElemsWhere returns the members matching pred, sorted.
func (s *AWSet) ElemsWhere(pred MatchFields) []string {
	var out []string
	for e := range s.tags {
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
	for _, ts := range s.tags {
		n += len(ts)
	}
	return n
}

// MaxTag returns the largest live add event of elem.
func (s *AWSet) MaxTag(elem string) (clock.EventID, bool) {
	ts, ok := s.tags[elem]
	if !ok || len(ts) == 0 {
		return clock.EventID{}, false
	}
	var max clock.EventID
	first := true
	for t := range ts {
		if first || max.Less(t) {
			max, first = t, false
		}
	}
	return max, true
}
