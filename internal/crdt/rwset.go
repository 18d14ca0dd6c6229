package crdt

import (
	"sort"

	"ipa/internal/clock"
)

// RWSet is a remove-wins set: a remove cancels every add it is concurrent
// with, not only the adds it observed. An element is present iff some add
// has observed (causally follows) every remove affecting the element —
// including wildcard removes whose predicate matches it. This is the
// resolution IPA uses when the effects of a removal must prevail, e.g.
// purging a removed tournament's enrolments (paper Fig. 2c) or a removed
// user's timeline entries.
type RWSet struct {
	adds    map[string]map[clock.EventID]clock.Vector // element -> add event -> its causal cut
	removes map[string]map[clock.EventID]*rwTomb      // element -> exact remove tombstones
	wild    map[clock.EventID]*wildRemove             // wildcard tombstones
	payload map[string]string

	// present memoizes Contains verdicts. Presence is a pure function of
	// the element's add records, its tombstones, and the wildcard
	// tombstones, so the cache only needs invalidating when one of those
	// changes (Apply); compaction preserves every verdict by contract but
	// clears the cache anyway out of caution. All access happens under
	// the owning store's exclusive object lock, like every other field.
	present map[string]bool
}

// observes reports whether the add tagged tag, whose causal cut is cut,
// observed event e: either e precedes the add at the add's own origin
// (per-origin FIFO: the origin applied it first, including earlier
// operations of the same transaction) or the cut covers e. An add survives
// exactly the tombstones it observed — remove-wins only favours removes
// concurrent with the add.
func observes(tag clock.EventID, cut clock.Vector, e clock.EventID) bool {
	return e.Replica == tag.Replica && e.Seq < tag.Seq || cut.Contains(e)
}

// rwTomb is one remove tombstone with its discard fence. A remove-wins
// tombstone below the stability horizon cannot be discarded immediately:
// an add *concurrent* with it may still be in flight (stability only says
// the tombstone itself reached every replica), and a replica that forgot
// the tombstone would resurrect the element the moment that add arrives
// while everyone else keeps it dead. When a tombstone first turns stable
// it is fenced with the compaction frontier — an upper bound, per origin,
// on every event that can be concurrent with it; once a later horizon
// dominates the fence, all such adds are delivered everywhere (and were
// judged against the tombstone), so it is finally redundant.
type rwTomb struct {
	fence clock.Vector // nil until first seen below the horizon
}

type wildRemove struct {
	pred  Predicate
	fence clock.Vector // as rwTomb.fence
}

// NewRWSet returns an empty remove-wins set.
func NewRWSet() *RWSet {
	return &RWSet{
		adds:    map[string]map[clock.EventID]clock.Vector{},
		removes: map[string]map[clock.EventID]*rwTomb{},
		wild:    map[clock.EventID]*wildRemove{},
		payload: map[string]string{},
		present: map[string]bool{},
	}
}

// Type implements CRDT.
func (s *RWSet) Type() string { return "rw-set" }

// RWAddOp (re-)adds an element. What the add observed is its causal cut,
// Deps (see observes); the op carries no list of tombstones.
type RWAddOp struct {
	Elem  string
	Pay   string
	Touch bool
	Tag   clock.EventID

	// Deps is the add's causal cut, stamped by the applying replica and
	// not encoded on the wire (the enclosing transaction already carries
	// it): at the origin, the replica's delivered cut read while the set
	// is locked; everywhere else, the transaction's dependency vector. A
	// tombstone the cut covers happened before the add and cannot defeat
	// it — including one a crash-recovered replica replays after the rest
	// of the mesh compacted it away. The set keeps the vector as the add's
	// record, so it must not change after Apply.
	Deps clock.Vector
}

// ID implements Op.
func (o RWAddOp) ID() clock.EventID { return o.Tag }

// RWRemoveOp removes one element (remove-wins: it also defeats concurrent
// adds of the element).
type RWRemoveOp struct {
	Elem string
	Tag  clock.EventID
}

// ID implements Op.
func (o RWRemoveOp) ID() clock.EventID { return o.Tag }

// RWRemoveWhereOp is the wildcard remove: it defeats every add of a
// matching element unless the add causally follows this op.
type RWRemoveWhereOp struct {
	Pred Predicate
	Tag  clock.EventID
}

// ID implements Op.
func (o RWRemoveWhereOp) ID() clock.EventID { return o.Tag }

// PrepareAdd builds an add of elem. It reads no set state: the replica
// applying the op stamps what it observed (RWAddOp.Deps).
func (s *RWSet) PrepareAdd(elem, payload string, tag clock.EventID) RWAddOp {
	return RWAddOp{Elem: elem, Pay: payload, Tag: tag}
}

// PrepareTouch is PrepareAdd preserving the existing payload.
func (s *RWSet) PrepareTouch(elem string, tag clock.EventID) RWAddOp {
	op := s.PrepareAdd(elem, "", tag)
	op.Touch = true
	return op
}

// PrepareRemove builds an exact remove of elem.
func (s *RWSet) PrepareRemove(elem string, tag clock.EventID) RWRemoveOp {
	return RWRemoveOp{Elem: elem, Tag: tag}
}

// PrepareRemoveWhere builds a wildcard remove.
func (s *RWSet) PrepareRemoveWhere(pred Predicate, tag clock.EventID) RWRemoveWhereOp {
	return RWRemoveWhereOp{Pred: pred, Tag: tag}
}

// Apply implements CRDT.
func (s *RWSet) Apply(op Op) {
	switch o := op.(type) {
	case RWAddOp:
		delete(s.present, o.Elem)
		recs, ok := s.adds[o.Elem]
		if !ok {
			recs = map[clock.EventID]clock.Vector{}
			s.adds[o.Elem] = recs
		}
		recs[o.Tag] = o.Deps
		if o.Touch {
			if _, have := s.payload[o.Elem]; !have {
				s.payload[o.Elem] = ""
			}
		} else {
			s.payload[o.Elem] = o.Pay
		}
	case RWRemoveOp:
		delete(s.present, o.Elem)
		rs, ok := s.removes[o.Elem]
		if !ok {
			rs = map[clock.EventID]*rwTomb{}
			s.removes[o.Elem] = rs
		}
		rs[o.Tag] = &rwTomb{}
	case RWRemoveWhereOp:
		// A wildcard only changes the verdicts of matching elements.
		for e := range s.present {
			if o.Pred.Matches(e) {
				delete(s.present, e)
			}
		}
		s.wild[o.Tag] = &wildRemove{pred: o.Pred}
	}
}

// Contains reports membership: some add observed every remove that affects
// the element.
func (s *RWSet) Contains(elem string) bool {
	recs, ok := s.adds[elem]
	if !ok {
		return false
	}
	if v, ok := s.present[elem]; ok {
		return v
	}
	v := s.containsSlow(elem, recs)
	if s.present == nil {
		s.present = map[string]bool{}
	}
	s.present[elem] = v
	return v
}

func (s *RWSet) containsSlow(elem string, recs map[clock.EventID]clock.Vector) bool {
	for tag, cut := range recs {
		if !s.defeated(elem, tag, cut, nil) {
			return true
		}
	}
	return false
}

// defeated reports whether a tombstone affecting elem that the add (tag,
// cut) did not observe exists — counting only tombstones at or below
// horizon when it is non-nil.
func (s *RWSet) defeated(elem string, tag clock.EventID, cut, horizon clock.Vector) bool {
	for r := range s.removes[elem] {
		if (horizon == nil || horizon.Contains(r)) && !observes(tag, cut, r) {
			return true
		}
	}
	for wid, w := range s.wild {
		if (horizon == nil || horizon.Contains(wid)) && !observes(tag, cut, wid) && w.pred.Matches(elem) {
			return true
		}
	}
	return false
}

// Payload returns the element's payload.
func (s *RWSet) Payload(elem string) (string, bool) {
	if !s.Contains(elem) {
		return "", false
	}
	return s.payload[elem], true
}

// Size returns the number of present elements.
func (s *RWSet) Size() int {
	n := 0
	for e := range s.adds {
		if s.Contains(e) {
			n++
		}
	}
	return n
}

// Elems returns the present elements, sorted.
func (s *RWSet) Elems() []string {
	var out []string
	for e := range s.adds {
		if s.Contains(e) {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// ElemsWhere returns the present elements matching pred, sorted.
func (s *RWSet) ElemsWhere(pred Predicate) []string {
	var out []string
	for e := range s.adds {
		if pred.Matches(e) && s.Contains(e) {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// MetadataSize reports the number of metadata entries held: add records,
// remove tombstones and wildcard tombstones. Used by the stability-GC
// ablation.
func (s *RWSet) MetadataSize() int {
	n := len(s.wild)
	for _, recs := range s.adds {
		n += len(recs)
	}
	for _, rs := range s.removes {
		n += len(rs)
	}
	return n
}

// Compact implements CRDT. It is CompactWithFrontier with the horizon as
// its own frontier, which discards stable tombstones immediately — only
// sound when the caller knows nothing concurrent with the horizon is
// still in flight (a fully quiesced system, or a unit test). Replication
// layers that compact while traffic is live must use CompactWithFrontier.
func (s *RWSet) Compact(horizon clock.Vector) {
	s.CompactWithFrontier(horizon, horizon)
}

// CompactWithFrontier discards metadata made redundant by stability.
//
// A remove tombstone at or below the horizon has been delivered
// everywhere, so every presence decision *against the adds seen so far*
// is final: dead adds (those that did not observe it) are dropped. The
// tombstone itself must outlive that moment — an add concurrent with it
// can still be in flight behind a slow link, and it too must be defeated
// on arrival. Such an add was committed at its origin before the origin
// delivered the tombstone, hence at a sequence number at or below the
// frontier (the per-origin commit counts at the stability round, an upper
// bound on everything concurrent with any newly stable event). The
// tombstone is therefore fenced with the frontier when it first turns
// stable and discarded once a later horizon dominates the fence; at that
// point every add it could ever defeat has been delivered and judged.
func (s *RWSet) CompactWithFrontier(horizon, frontier clock.Vector) {
	clear(s.present)
	// Drop adds defeated by a stable tombstone: their death is final.
	for elem, recs := range s.adds {
		for tag, cut := range recs {
			if s.defeated(elem, tag, cut, horizon) {
				delete(recs, tag)
			}
		}
		if len(recs) == 0 {
			delete(s.adds, elem)
			delete(s.payload, elem)
		}
	}
	// Fence newly stable tombstones; discard the ones whose fence the
	// horizon has passed (no concurrent add can still arrive anywhere).
	for wid, w := range s.wild {
		if !horizon.Contains(wid) {
			continue
		}
		if w.fence == nil {
			w.fence = frontier.Clone()
		}
		if w.fence.LEq(horizon) {
			delete(s.wild, wid)
		}
	}
	for elem, rs := range s.removes {
		for r, tomb := range rs {
			if !horizon.Contains(r) {
				continue
			}
			if tomb.fence == nil {
				tomb.fence = frontier.Clone()
			}
			if tomb.fence.LEq(horizon) {
				delete(rs, r)
			}
		}
		if len(rs) == 0 {
			delete(s.removes, elem)
		}
	}
}
