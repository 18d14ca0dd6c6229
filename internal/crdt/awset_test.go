package crdt

import (
	"fmt"
	"math/rand"
	"testing"

	"ipa/internal/clock"
)

// tagger hands out unique event IDs per replica.
type tagger struct {
	vc clock.Vector
}

func newTagger() *tagger { return &tagger{vc: clock.New()} }

func (t *tagger) tag(r clock.ReplicaID) clock.EventID { return t.vc.Tick(r) }

func TestAWSetAddRemove(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	add := s.PrepareAdd("x", "payload", g.tag("a"))
	s.Apply(add)
	if !s.Contains("x") || s.Size() != 1 {
		t.Fatal("x should be present")
	}
	if p, ok := s.Payload("x"); !ok || p != "payload" {
		t.Fatalf("payload = %q, %v", p, ok)
	}
	rm := s.PrepareRemove("x", g.tag("a"))
	s.Apply(rm)
	if s.Contains("x") || s.Size() != 0 {
		t.Fatal("x should be removed")
	}
	if _, ok := s.Payload("x"); ok {
		t.Fatal("payload should be gone")
	}
}

func TestAWSetAddWinsOverConcurrentRemove(t *testing.T) {
	g := newTagger()
	// Two replicas of the same object.
	a, b := NewAWSet(), NewAWSet()
	add := a.PrepareAdd("x", "", g.tag("a"))
	a.Apply(add)
	b.Apply(add)

	// Concurrently: replica a removes x, replica b adds x again.
	rm := a.PrepareRemove("x", g.tag("a"))
	add2 := b.PrepareAdd("x", "", g.tag("b"))
	a.Apply(rm)
	b.Apply(add2)
	// Cross-deliver.
	a.Apply(add2)
	b.Apply(rm)

	if !a.Contains("x") || !b.Contains("x") {
		t.Fatal("concurrent add must win on both replicas")
	}
	if a.Size() != b.Size() {
		t.Fatal("replicas diverged")
	}
}

func TestAWSetRemoveOnlyCancelsObserved(t *testing.T) {
	g := newTagger()
	a, b := NewAWSet(), NewAWSet()
	add1 := a.PrepareAdd("x", "", g.tag("a"))
	a.Apply(add1) // b has NOT seen add1

	rmEmpty := b.PrepareRemove("x", g.tag("b")) // observes nothing
	b.Apply(rmEmpty)
	a.Apply(rmEmpty)
	b.Apply(add1)

	if !a.Contains("x") || !b.Contains("x") {
		t.Fatal("a remove that observed nothing must not cancel unseen adds")
	}
}

func TestAWSetWildcardRemove(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	s.Apply(s.PrepareAdd(JoinTuple("p1", "t1"), "", g.tag("a")))
	s.Apply(s.PrepareAdd(JoinTuple("p2", "t1"), "", g.tag("a")))
	s.Apply(s.PrepareAdd(JoinTuple("p1", "t2"), "", g.tag("a")))

	rm := s.PrepareRemoveWhere(MatchPattern("", "t1"), g.tag("a"))
	s.Apply(rm)
	if s.Contains(JoinTuple("p1", "t1")) || s.Contains(JoinTuple("p2", "t1")) {
		t.Fatal("t1 pairs should be removed")
	}
	if !s.Contains(JoinTuple("p1", "t2")) {
		t.Fatal("t2 pair should survive")
	}
	if got := s.ElemsWhere(MatchPattern("p1", "")); len(got) != 1 {
		t.Fatalf("ElemsWhere = %v", got)
	}
}

func TestAWSetTouchPreservesPayload(t *testing.T) {
	g := newTagger()
	a, b := NewAWSet(), NewAWSet()
	add := a.PrepareAdd("u", "profile-data", g.tag("a"))
	a.Apply(add)
	b.Apply(add)

	// Concurrently: a removes u; b touches u (e.g. enroll restores player).
	rm := a.PrepareRemove("u", g.tag("a"))
	touch := b.PrepareTouch("u", g.tag("b"))
	a.Apply(rm)
	a.Apply(touch)
	b.Apply(touch)
	b.Apply(rm)

	for name, s := range map[string]*AWSet{"a": a, "b": b} {
		if !s.Contains("u") {
			t.Fatalf("replica %s: touch must win", name)
		}
		if p, _ := s.Payload("u"); p != "profile-data" {
			t.Fatalf("replica %s: payload lost: %q", name, p)
		}
	}
}

func TestAWSetCompactDropsStableGraveyard(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	s.Apply(s.PrepareAdd("u", "data", g.tag("a")))
	rm := s.PrepareRemove("u", g.tag("a"))
	s.Apply(rm)
	if len(s.graveyard) != 1 {
		t.Fatal("payload should be in graveyard")
	}
	// Horizon below the remove: graveyard kept.
	s.Compact(clock.Of(map[clock.ReplicaID]uint64{"a": 1}))
	if len(s.graveyard) != 1 {
		t.Fatal("graveyard dropped too early")
	}
	s.Compact(clock.Of(map[clock.ReplicaID]uint64{"a": 2}))
	if len(s.graveyard) != 0 {
		t.Fatal("stable graveyard entry should be dropped")
	}
}

func TestAWSetMaxTag(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	t1 := g.tag("a")
	t2 := g.tag("b")
	s.Apply(AWAddOp{Elem: "x", Tag: t2})
	s.Apply(AWAddOp{Elem: "x", Tag: t1})
	if max, ok := s.MaxTag("x"); !ok || max != t2 {
		t.Fatalf("MaxTag = %v, %v", max, ok)
	}
	if _, ok := s.MaxTag("absent"); ok {
		t.Fatal("MaxTag on absent element")
	}
}

// A live element keeps one add event per origin however often it is
// touched: the serving path touches tournament(t)/player(p) on every
// enroll, and an unbounded tag set was 150 B of heap per call served.
func TestAWSetTagsBounded(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	origins := []clock.ReplicaID{"a", "b", "c"}
	s.Apply(s.PrepareAdd("x", "profile", g.tag("a")))
	for i := 0; i < 100_000; i++ {
		s.Apply(s.PrepareTouch("x", g.tag(origins[i%len(origins)])))
	}
	if n := s.MetadataSize(); n > len(origins) {
		t.Fatalf("%d live tags after 100k touches from %d origins", n, len(origins))
	}
	if pay, ok := s.Payload("x"); !ok || pay != "profile" {
		t.Fatalf("payload = %q, %v", pay, ok)
	}
	// A remove observing the collapsed tags still empties the element.
	s.Apply(s.PrepareRemove("x", g.tag("a")))
	if s.Contains("x") {
		t.Fatal("remove of every observed tag left the element alive")
	}
}

// tagSet is a set of event IDs, every one kept: the references' record
// of what an element's adds or a remove-wins add observed.
type tagSet map[clock.EventID]struct{}

func (s tagSet) addAll(es []clock.EventID) {
	for _, e := range es {
		s[e] = struct{}{}
	}
}

func (s tagSet) list() []clock.EventID {
	out := make([]clock.EventID, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	return out
}

// fullTagSet is the add-wins set as it was before tags collapsed per
// origin: every add event of a live element is kept and observed. The
// property test below holds the collapsed AWSet to it.
type fullTagSet struct {
	tags      map[string]tagSet
	payload   map[string]string
	graveyard map[string]string
}

func newFullTagSet() *fullTagSet {
	return &fullTagSet{tags: map[string]tagSet{}, payload: map[string]string{}, graveyard: map[string]string{}}
}

func (s *fullTagSet) prepareRemove(match func(string) bool, op AWRemoveOp) AWRemoveOp {
	op.Observed = map[string][]clock.EventID{}
	for elem, ts := range s.tags {
		if match(elem) {
			op.Observed[elem] = ts.list()
		}
	}
	return op
}

func (s *fullTagSet) apply(op Op) {
	switch o := op.(type) {
	case AWAddOp:
		if s.tags[o.Elem] == nil {
			s.tags[o.Elem] = tagSet{}
		}
		s.tags[o.Elem][o.Tag] = struct{}{}
		if _, have := s.payload[o.Elem]; o.Touch && have {
			return
		}
		s.payload[o.Elem] = o.Pay
		if o.Touch {
			s.payload[o.Elem] = s.graveyard[o.Elem]
			delete(s.graveyard, o.Elem)
		}
	case AWRemoveOp:
		for elem, observed := range o.Observed {
			ts := s.tags[elem]
			for _, t := range observed {
				delete(ts, t)
			}
			if ts != nil && len(ts) == 0 {
				delete(s.tags, elem)
				s.graveyard[elem] = s.payload[elem]
				delete(s.payload, elem)
			}
		}
	}
}

// Random add/touch/remove/remove-where histories at three replicas,
// delivered in random causal (and per-origin FIFO) order: the collapsed
// set and the full-tag reference agree on membership and payload at
// every replica after every local update and every delivery.
func TestAWSetCollapseMatchesFullTags(t *testing.T) {
	type msg struct {
		tag       clock.EventID
		deps      clock.Vector
		got, want Op // the op as each system prepared it
	}
	sites := []clock.ReplicaID{"a", "b", "c"}
	elems := []string{JoinTuple("p1", "t1"), JoinTuple("p2", "t1"), JoinTuple("p1", "t2")}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		got, want, vc := map[clock.ReplicaID]*AWSet{}, map[clock.ReplicaID]*fullTagSet{}, map[clock.ReplicaID]*clock.Vector{}
		inbox := map[clock.ReplicaID][]msg{}
		for _, r := range sites {
			got[r], want[r], vc[r] = NewAWSet(), newFullTagSet(), &clock.Vector{}
		}
		compare := func(step int, r clock.ReplicaID) {
			t.Helper()
			g, w := got[r], want[r]
			if g.Size() != len(w.tags) {
				t.Fatalf("seed %d step %d at %s: members %v, full-tag reference has %d", seed, step, r, g.Elems(), len(w.tags))
			}
			for _, e := range g.Elems() {
				pay, _ := g.Payload(e)
				if _, live := w.tags[e]; !live || pay != w.payload[e] {
					t.Fatalf("seed %d step %d at %s: %q live with payload %q, reference live=%v payload %q",
						seed, step, r, e, pay, live, w.payload[e])
				}
			}
		}
		deliverable := func(r clock.ReplicaID, m msg) bool {
			if vc[r].Get(m.tag.Replica) != m.tag.Seq-1 {
				return false
			}
			return m.deps.LEq(*vc[r])
		}
		for step := 0; step < 120; step++ {
			r := sites[rng.Intn(len(sites))]
			if rng.Intn(2) == 0 {
				// Deliver one pending message at r, if causality allows any.
				for i, m := range inbox[r] {
					if deliverable(r, m) {
						got[r].Apply(m.got)
						want[r].apply(m.want)
						vc[r].Set(m.tag.Replica, m.tag.Seq)
						inbox[r] = append(inbox[r][:i:i], inbox[r][i+1:]...)
						compare(step, r)
						break
					}
				}
				continue
			}
			deps := vc[r].Clone()
			tag := vc[r].Tick(r)
			e := elems[rng.Intn(len(elems))]
			m := msg{tag: tag, deps: deps}
			switch rng.Intn(4) {
			case 0:
				op := got[r].PrepareAdd(e, fmt.Sprintf("pay%d", step), tag)
				m.got, m.want = op, op
			case 1:
				op := got[r].PrepareTouch(e, tag)
				m.got, m.want = op, op
			case 2:
				op := got[r].PrepareRemove(e, tag)
				m.got, m.want = op, want[r].prepareRemove(func(x string) bool { return x == e }, op)
			case 3:
				pat := MatchPattern("", "t1")
				op := got[r].PrepareRemoveWhere(pat, tag)
				m.got, m.want = op, want[r].prepareRemove(pat.Matches, op)
			}
			got[r].Apply(m.got)
			want[r].apply(m.want)
			compare(step, r)
			for _, o := range sites {
				if o != r {
					inbox[o] = append(inbox[o], m)
				}
			}
		}
	}
}

// Concurrent operations prepared against the same observed state must
// commute: applying them in any order yields the same set.
func TestAWSetConcurrentOpsCommute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	elems := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		g := newTagger()
		base := NewAWSet()
		// Seed state, fully replicated.
		var seed []Op
		for _, e := range elems {
			if rng.Intn(2) == 0 {
				op := base.PrepareAdd(e, "", g.tag("seed"))
				base.Apply(op)
				seed = append(seed, op)
			}
		}
		// Concurrent ops from distinct replicas, all prepared against base.
		var ops []Op
		for i := 0; i < 4; i++ {
			r := clock.ReplicaID(rune('a' + i))
			e := elems[rng.Intn(len(elems))]
			switch rng.Intn(3) {
			case 0:
				ops = append(ops, base.PrepareAdd(e, "", g.tag(r)))
			case 1:
				ops = append(ops, base.PrepareRemove(e, g.tag(r)))
			case 2:
				ops = append(ops, base.PrepareTouch(e, g.tag(r)))
			}
		}
		apply := func(order []int) []string {
			s := NewAWSet()
			for _, op := range seed {
				s.Apply(op)
			}
			for _, i := range order {
				s.Apply(ops[i])
			}
			return s.Elems()
		}
		order := rng.Perm(len(ops))
		ref := apply([]int{0, 1, 2, 3})
		got := apply(order)
		if len(ref) != len(got) {
			t.Fatalf("trial %d: diverged: %v vs %v (order %v)", trial, ref, got, order)
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("trial %d: diverged: %v vs %v", trial, ref, got)
			}
		}
	}
}
