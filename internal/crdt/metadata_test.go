package crdt

import (
	"math/rand"
	"testing"

	"ipa/internal/clock"
)

func TestAWSetMetadataSize(t *testing.T) {
	g := newTagger()
	s := NewAWSet()
	if s.MetadataSize() != 0 {
		t.Fatal("empty set has metadata")
	}
	s.Apply(s.PrepareAdd("x", "pay", g.tag("a")))
	s.Apply(s.PrepareAdd("x", "pay", g.tag("b"))) // second tag
	if s.MetadataSize() != 2 {
		t.Fatalf("metadata = %d, want 2 tags", s.MetadataSize())
	}
	s.Apply(s.PrepareRemove("x", g.tag("a")))
	// Tags gone, payload moved to the graveyard.
	if s.MetadataSize() != 1 {
		t.Fatalf("metadata = %d, want 1 graveyard entry", s.MetadataSize())
	}
	s.Compact(clock.Of(map[clock.ReplicaID]uint64{"a": 99, "b": 99}))
	if s.MetadataSize() != 0 {
		t.Fatalf("metadata = %d after compaction", s.MetadataSize())
	}
}

// Churn does not grow a remove-wins set's metadata: each origin keeps one
// add record and one exact tombstone per element and one tombstone per
// wildcard pattern, whatever the history, before any compaction.
func TestRWSetMetadataBoundedByOrigins(t *testing.T) {
	g := newTagger()
	s := NewRWSet()
	elem := JoinTuple("p1", "p2", "t1")
	patterns := []MatchFields{
		MatchPattern("p1", "", "t1"), MatchPattern("", "p2", "t1"),
		MatchPattern("", "", "t1"), MatchPattern("", "", ""),
	}
	origins := []clock.ReplicaID{"a", "b", "c"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		r := origins[rng.Intn(len(origins))]
		switch rng.Intn(3) {
		case 0:
			s.Apply(s.PrepareAdd(elem, "", g.tag(r)))
		case 1:
			s.Apply(s.PrepareRemove(elem, g.tag(r)))
		default:
			s.Apply(s.PrepareRemoveWhere(patterns[rng.Intn(len(patterns))], g.tag(r)))
		}
	}
	grown := s.MetadataSize()
	if bound := len(origins) * (1 + 1 + len(patterns)); grown > bound {
		t.Fatalf("metadata = %d after churn, want at most %d (origins × (add + remove + patterns))", grown, bound)
	}
	// A final add that observed everything: present, and compaction keeps
	// only its record.
	final := s.PrepareAdd(elem, "", g.tag("a"))
	final.Deps = g.vc.Clone()
	s.Apply(final)
	s.Compact(g.vc.Clone())
	if !s.Contains(elem) {
		t.Fatal("compaction lost the element")
	}
	if got := s.MetadataSize(); got >= grown || got > 2 {
		t.Fatalf("compaction should shrink metadata to ~1 add record, got %d", got)
	}
}

// Ops of foreign types are ignored by sets (defensive behaviour for the
// store's generic delivery path).
func TestSetsIgnoreForeignOps(t *testing.T) {
	g := newTagger()
	aw := NewAWSet()
	aw.Apply(CounterOp{Delta: 1, Tag: g.tag("a")})
	if aw.Size() != 0 {
		t.Fatal("foreign op mutated AWSet")
	}
	rw := NewRWSet()
	rw.Apply(CounterOp{Delta: 1, Tag: g.tag("a")})
	if rw.Size() != 0 {
		t.Fatal("foreign op mutated RWSet")
	}
}

func TestTupleHelpers(t *testing.T) {
	e := JoinTuple("p1", "t1", "x")
	parts := SplitTuple(e)
	if len(parts) != 3 || parts[0] != "p1" || parts[2] != "x" {
		t.Fatalf("parts = %v", parts)
	}
	if !MatchPattern("", "t1", "").Matches(e) {
		t.Fatal("match by position failed")
	}
	if MatchPattern("t1", "", "").Matches(e) {
		t.Fatal("wrong position matched")
	}
	if MatchPattern("", "t1").Matches(e) || MatchPattern("", "t1", "", "").Matches(e) {
		t.Fatal("pattern of another arity matched")
	}
	if !MatchPattern("", "", "").Matches(e) {
		t.Fatal("all-wildcard pattern of the same arity must match")
	}
	if MatchPattern().Matches(e) || MatchPattern().Matches("") {
		t.Fatal("empty pattern matched")
	}
	if got := MatchPattern("", "t1", "").String(); got != "(*,t1,*)" {
		t.Fatalf("String = %q", got)
	}
}

func TestCRDTTypeNames(t *testing.T) {
	cases := map[string]CRDT{
		"aw-set":          NewAWSet(),
		"rw-set":          NewRWSet(),
		"pn-counter":      NewPNCounter(),
		"bounded-counter": NewBoundedCounter(nil),
		"comp-set":        NewCompSet(1),
	}
	for want, c := range cases {
		if c.Type() != want {
			t.Fatalf("Type() = %q, want %q", c.Type(), want)
		}
	}
}
