package crdt

import (
	"fmt"
	"sort"
	"strings"

	"ipa/internal/clock"
)

// RWSet is a remove-wins set: a remove cancels every add it is concurrent
// with, not only the adds it observed. An element is present iff some add
// has observed (causally follows) every remove affecting the element —
// including wildcard removes whose tuple pattern matches it. This is the
// resolution IPA uses when the effects of a removal must prevail, e.g.
// purging a removed tournament's enrolments (paper Fig. 2c) or a removed
// user's timeline entries.
//
// Metadata is collapsed per origin: an element keeps at most one add
// record and one exact tombstone per origin, and a wildcard pattern at
// most one tombstone per origin — the newest, which decides for all the
// older ones (see observes). Wildcard tombstones are indexed by pattern,
// so a membership check costs O(origins × pattern shapes in use),
// whatever the history. All access happens under the owning store's
// exclusive object lock, reads included (ElemsWhere builds its index
// lazily).
type RWSet struct {
	adds    map[string][]rwAdd            // element -> newest add per origin
	removes map[string][]rwTomb           // element -> newest exact remove per origin
	wild    map[clock.EventID]*wildRemove // every wildcard tombstone (the record snapshots encode)
	payload map[string]string

	// The index over wild: the tuple shapes in use, each mapping a
	// pattern's bound values to its newest tombstone per origin.
	shapes []*shapeIndex

	// reads indexes the elements by read shape and bound values for
	// ElemsWhere. It is built on a shape's first read, extended when an
	// element appears, and dropped when compaction deletes one.
	reads map[tupleShape]map[string][]string
	// keyBuf is ElemsWhere's scratch for the pattern's key, looked up
	// without a string of its own.
	keyBuf []byte
}

// observes reports whether the add tagged tag, whose causal cut is cut,
// observed event e: either e precedes the add at the add's own origin
// (per-origin FIFO: the origin applied it first, including earlier
// operations of the same transaction) or the cut covers e. An add survives
// exactly the tombstones it observed — remove-wins only favours removes
// concurrent with the add.
//
// Observation is monotone per origin on both sides, which is what lets
// the set keep only the newest record of each origin. An origin's cuts
// grow with its sequence numbers (commits are serialised), so a later add
// of an origin observes everything an earlier one did; and an add that
// observed (r, n) observed every (r, m < n), so the newest tombstone of an
// origin defeats every add an older one of the same target does.
func observes(tag clock.EventID, cut clock.Vector, e clock.EventID) bool {
	return e.Replica == tag.Replica && e.Seq < tag.Seq || cut.Contains(e)
}

// rwAdd is an add record: the add's tag and its causal cut.
type rwAdd struct {
	tag clock.EventID
	cut clock.Vector
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
	tag   clock.EventID
	fence clock.Vector // nil until first seen below the horizon
}

type wildRemove struct {
	tag   clock.EventID
	pred  MatchFields
	fence clock.Vector // as rwTomb.fence

	at  *shapeIndex // the index holding it
	key string      // its bound values under at.shape
}

// tagged is a record that carries the tag of the op it records.
type tagged interface{ id() clock.EventID }

func (a rwAdd) id() clock.EventID       { return a.tag }
func (t rwTomb) id() clock.EventID      { return t.tag }
func (w *wildRemove) id() clock.EventID { return w.tag }

// originSlot finds the entry of tag's origin in a list holding at most
// one entry per origin: its index (-1 when the origin has none), and
// whether an op tagged tag is newer than it. An op that is not — a
// duplicate, or an older op arriving behind its successor as in log
// replay — changes nothing.
func originSlot[T tagged](list []T, tag clock.EventID) (int, bool) {
	for i, x := range list {
		if e := x.id(); e.Replica == tag.Replica {
			return i, e.Seq < tag.Seq
		}
	}
	return -1, true
}

// tupleShape is the shape of a MatchFields pattern: its arity and the
// positions it binds (bit i set: position i is bound).
type tupleShape struct {
	arity int
	bound uint64
}

// appendKey appends elem's components at the shape's bound positions,
// TupleSep-separated, and reports whether elem has the shape's arity. An
// element matches a pattern of the shape iff this key equals the
// pattern's (patternShape).
func (sh tupleShape) appendKey(buf []byte, elem string) ([]byte, bool) {
	first := true
	for pos := 0; pos < sh.arity; pos++ {
		c, rest, more := strings.Cut(elem, TupleSep)
		if more == (pos == sh.arity-1) {
			return buf, false // more or fewer components than the arity
		}
		if sh.bound&(1<<pos) != 0 {
			if !first {
				buf = append(buf, TupleSep...)
			}
			buf = append(buf, c...)
			first = false
		}
		elem = rest
	}
	return buf, true
}

// indexable reports whether a tuple shape describes m: an arity of 1 to
// 64 (the bound mask's width) and no bound value containing TupleSep
// (which matches nothing). The wire decoders reject any other pattern,
// and a remove-wins set panics on one (see PrepareRemoveWhere).
func (m MatchFields) indexable() bool {
	if len(m.Fields) < 1 || len(m.Fields) > 64 {
		return false
	}
	for _, f := range m.Fields {
		if strings.Contains(f, TupleSep) {
			return false
		}
	}
	return true
}

// patternShape returns the shape of an indexable pattern, and its key
// appended to key.
func patternShape(key []byte, m MatchFields) (tupleShape, []byte) {
	sh := tupleShape{arity: len(m.Fields)}
	for i, f := range m.Fields {
		if f == "" {
			continue
		}
		if sh.bound != 0 {
			key = append(key, TupleSep...)
		}
		key = append(key, f...)
		sh.bound |= 1 << i
	}
	return sh, key
}

// shapeIndex holds the wildcard tombstones of one tuple shape, by bound
// values, newest per origin.
type shapeIndex struct {
	shape tupleShape
	tombs map[string][]*wildRemove
}

// NewRWSet returns an empty remove-wins set.
func NewRWSet() *RWSet {
	return &RWSet{
		adds:    map[string][]rwAdd{},
		removes: map[string][]rwTomb{},
		wild:    map[clock.EventID]*wildRemove{},
		payload: map[string]string{},
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
// matching element unless the add causally follows this op. Its pattern
// must be indexable (see PrepareRemoveWhere).
type RWRemoveWhereOp struct {
	Pred MatchFields
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

// PrepareRemoveWhere builds a wildcard remove. A pattern the tombstone
// index cannot hold (arity 0 or above 64, or a bound value containing
// TupleSep) is a programming error — the engine rejects reserved
// characters in call arguments, and refuses at mount a wiped remove-wins
// predicate of more than 64 arguments — so it panics here, before a
// transaction applies or records the op, rather than replicate a remove
// no receiver would decode. Applying a hand-built one panics too.
func (s *RWSet) PrepareRemoveWhere(pred MatchFields, tag clock.EventID) RWRemoveWhereOp {
	mustIndex(pred)
	return RWRemoveWhereOp{Pred: pred, Tag: tag}
}

// mustIndex panics on a pattern no tuple shape describes.
func mustIndex(pred MatchFields) {
	if !pred.indexable() {
		panic(fmt.Sprintf("crdt: remove-where pattern %v cannot be indexed", pred))
	}
}

// Apply implements CRDT.
func (s *RWSet) Apply(op Op) {
	switch o := op.(type) {
	case RWAddOp:
		if !s.insertAdd(o.Elem, rwAdd{tag: o.Tag, cut: o.Deps}) {
			return
		}
		if o.Touch {
			if _, have := s.payload[o.Elem]; !have {
				s.payload[o.Elem] = ""
			}
		} else {
			s.payload[o.Elem] = o.Pay
		}
	case RWRemoveOp:
		s.insertRemove(o.Elem, rwTomb{tag: o.Tag})
	case RWRemoveWhereOp:
		s.insertWild(&wildRemove{tag: o.Tag, pred: o.Pred})
	}
}

// insertAdd records an add as its origin's newest for elem, reporting
// false when the origin already has one as new.
func (s *RWSet) insertAdd(elem string, a rwAdd) bool {
	recs := s.adds[elem]
	i, newer := originSlot(recs, a.tag)
	switch {
	case !newer:
		return false
	case i >= 0:
		recs[i] = a
	default:
		s.adds[elem] = append(recs, a)
		if len(recs) == 0 {
			s.indexRead(elem)
		}
	}
	return true
}

// insertRemove records an exact tombstone as its origin's newest for elem.
func (s *RWSet) insertRemove(elem string, t rwTomb) {
	rs := s.removes[elem]
	i, newer := originSlot(rs, t.tag)
	switch {
	case !newer:
	case i >= 0:
		rs[i] = t
	default:
		s.removes[elem] = append(rs, t)
	}
}

// insertWild records a wildcard tombstone as its origin's newest for its
// pattern, replacing (and forgetting) an older one.
func (s *RWSet) insertWild(w *wildRemove) {
	if _, dup := s.wild[w.tag]; dup {
		return
	}
	mustIndex(w.pred)
	sh, k := patternShape(nil, w.pred)
	key := string(k) // the tombstone keeps it
	ix := s.shapeIndex(sh)
	list := ix.tombs[key]
	i, newer := originSlot(list, w.tag)
	if !newer {
		return
	}
	w.at, w.key = ix, key
	if i >= 0 {
		delete(s.wild, list[i].tag)
		list[i] = w
	} else {
		ix.tombs[key] = append(list, w)
	}
	s.wild[w.tag] = w
}

func (s *RWSet) shapeIndex(sh tupleShape) *shapeIndex {
	for _, ix := range s.shapes {
		if ix.shape == sh {
			return ix
		}
	}
	ix := &shapeIndex{shape: sh, tombs: map[string][]*wildRemove{}}
	s.shapes = append(s.shapes, ix)
	return ix
}

// dropWild discards a wildcard tombstone and its index entry.
func (s *RWSet) dropWild(w *wildRemove) {
	delete(s.wild, w.tag)
	ix := w.at
	if list := deleteEntry(ix.tombs[w.key], w); len(list) > 0 {
		ix.tombs[w.key] = list
		return
	}
	delete(ix.tombs, w.key)
	if len(ix.tombs) == 0 {
		s.shapes = deleteEntry(s.shapes, ix)
	}
}

// deleteEntry removes x from list, not keeping order.
func deleteEntry[T comparable](list []T, x T) []T {
	for i, y := range list {
		if y == x {
			last := len(list) - 1
			list[i] = list[last]
			var zero T
			list[last] = zero
			return list[:last]
		}
	}
	return list
}

// Contains reports membership: some add observed every remove that affects
// the element.
func (s *RWSet) Contains(elem string) bool {
	for _, a := range s.adds[elem] {
		if !s.defeated(elem, a, nil) {
			return true
		}
	}
	return false
}

// defeated reports whether a tombstone affecting elem that the add a did
// not observe exists — counting only tombstones at or below horizon when
// it is non-nil.
func (s *RWSet) defeated(elem string, a rwAdd, horizon clock.Vector) bool {
	beats := func(t clock.EventID) bool {
		return (horizon == nil || horizon.Contains(t)) && !observes(a.tag, a.cut, t)
	}
	for _, t := range s.removes[elem] {
		if beats(t.tag) {
			return true
		}
	}
	var buf [64]byte
	for _, ix := range s.shapes {
		key, ok := ix.shape.appendKey(buf[:0], elem)
		if !ok {
			continue
		}
		for _, w := range ix.tombs[string(key)] {
			if beats(w.tag) {
				return true
			}
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

// ElemsWhere returns the present elements matching pred, sorted. A
// pattern that binds a position reads only the elements with its bound
// values; any other pattern scans the set.
func (s *RWSet) ElemsWhere(pred MatchFields) []string {
	var sh tupleShape
	if pred.indexable() {
		sh, s.keyBuf = patternShape(s.keyBuf[:0], pred)
	}
	if sh.bound == 0 {
		var out []string
		for e := range s.adds {
			if pred.Matches(e) && s.Contains(e) {
				out = append(out, e)
			}
		}
		sort.Strings(out)
		return out
	}
	byKey, built := s.reads[sh]
	if !built {
		byKey = map[string][]string{}
		for e := range s.adds {
			addRead(byKey, sh, e)
		}
		if s.reads == nil {
			s.reads = map[tupleShape]map[string][]string{}
		}
		s.reads[sh] = byKey
	}
	var out []string
	for _, e := range byKey[string(s.keyBuf)] {
		if s.Contains(e) {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// indexRead adds a new element to every built read index.
func (s *RWSet) indexRead(elem string) {
	for sh, byKey := range s.reads {
		addRead(byKey, sh, elem)
	}
}

func addRead(byKey map[string][]string, sh tupleShape, elem string) {
	var buf [64]byte
	if key, ok := sh.appendKey(buf[:0], elem); ok {
		byKey[string(key)] = append(byKey[string(key)], elem)
	}
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
//
// An add whose origin's newest tombstone is not yet stable waits for it,
// even if an older (replaced) one would already have condemned it: the
// verdict is the same, the record just goes a round later.
func (s *RWSet) CompactWithFrontier(horizon, frontier clock.Vector) {
	// Drop adds defeated by a stable tombstone: their death is final.
	for elem, recs := range s.adds {
		live := recs[:0]
		for _, a := range recs {
			if !s.defeated(elem, a, horizon) {
				live = append(live, a)
			}
		}
		clear(recs[len(live):])
		if len(live) > 0 {
			s.adds[elem] = live
			continue
		}
		delete(s.adds, elem)
		delete(s.payload, elem)
		s.reads = nil
	}
	// Fence newly stable tombstones; discard the ones whose fence the
	// horizon has passed (no concurrent add can still arrive anywhere).
	for _, w := range s.wild {
		if !horizon.Contains(w.tag) {
			continue
		}
		if w.fence == nil {
			w.fence = frontier.Clone()
		}
		if w.fence.LEq(horizon) {
			s.dropWild(w)
		}
	}
	for elem, rs := range s.removes {
		kept := rs[:0]
		for _, t := range rs {
			if horizon.Contains(t.tag) {
				if t.fence == nil {
					t.fence = frontier.Clone()
				}
				if t.fence.LEq(horizon) {
					continue
				}
			}
			kept = append(kept, t)
		}
		clear(rs[len(kept):])
		if len(kept) > 0 {
			s.removes[elem] = kept
		} else {
			delete(s.removes, elem)
		}
	}
}
