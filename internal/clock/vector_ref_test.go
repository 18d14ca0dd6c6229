package clock_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ipa/internal/clock"
	"ipa/internal/crdt"
)

// refVector is the map-backed vector clock the slice Vector replaced,
// kept as the reference: nil is the zero clock, a write to a nil
// reference makes it a map, as writing through a fresh clock.New() did.
type refVector map[clock.ReplicaID]uint64

func (v *refVector) set(r clock.ReplicaID, n uint64) {
	if *v == nil {
		*v = refVector{}
	}
	(*v)[r] = n
}

func (v *refVector) merge(o refVector) {
	for r, n := range o {
		if n > (*v)[r] {
			v.set(r, n)
		}
	}
}

func (v refVector) leq(o refVector) bool {
	for r, n := range v {
		if n > o[r] {
			return false
		}
	}
	return true
}

func (v refVector) clone() refVector {
	c := make(refVector, len(v))
	for r, n := range v {
		c[r] = n
	}
	return c
}

func refGLB(vs ...refVector) refVector {
	out := refVector{}
	if len(vs) == 0 {
		return out
	}
	for r, lo := range vs[0] {
		for _, v := range vs[1:] {
			if v[r] < lo {
				lo = v[r]
			}
		}
		if lo > 0 {
			out[r] = lo
		}
	}
	return out
}

func (v refVector) sortedKeys() []string {
	keys := make([]string, 0, len(v))
	for r := range v {
		keys = append(keys, string(r))
	}
	sort.Strings(keys)
	return keys
}

func (v refVector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range v.sortedKeys() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%d", k, v[clock.ReplicaID(k)])
	}
	b.WriteByte('}')
	return b.String()
}

// appendRefWire is the map-backed AppendVectorWire: presence byte, then
// the entries in sorted replica order.
func appendRefWire(b []byte, v refVector) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	keys := v.sortedKeys()
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = crdt.AppendWireString(b, k)
		b = binary.AppendUvarint(b, v[clock.ReplicaID(k)])
	}
	return b
}

// replicas sort "a" < "ab" < "b" < ...: a prefix orders before its
// extensions, which a length-first comparison would get wrong.
var replicas = []clock.ReplicaID{"a", "ab", "b", "c", "d"}

// vectorScript runs a script of vector operations, read from data, on
// four slots held both as slice Vectors and as references, and fails
// on the first disagreement: a result (Get, Contains, LEq, Equal,
// Before, Concurrent, Tick, Sum, String), the entry count, nil versus
// empty, the wire bytes against the sorted-map encoding, or a decode
// round trip.
func vectorScript(t *testing.T, data []byte) {
	t.Helper()
	const slots = 4
	var got [slots]clock.Vector
	var want [slots]refVector
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	for step := 0; len(data) > 0; step++ {
		i, j, k := next()%slots, next()%slots, next()%slots
		r := replicas[next()%len(replicas)]
		n := uint64(next() % 8)
		switch op := next() % 10; op {
		case 0:
			got[i].Set(r, n)
			want[i].set(r, n)
		case 1:
			e := got[i].Tick(r)
			want[i].set(r, want[i][r]+1)
			if w := (clock.EventID{Replica: r, Seq: want[i][r]}); e != w {
				t.Fatalf("step %d: Tick = %v, want %v", step, e, w)
			}
		case 2:
			got[i].Merge(got[j])
			want[i].merge(want[j])
		case 3:
			// A clone is independent: later writes to either side are
			// checked against independent references.
			got[j] = got[i].Clone()
			want[j] = want[i].clone()
		case 4:
			got[i], want[i] = clock.New(), refVector{}
		case 5:
			got[i], want[i] = nil, nil
		case 6:
			a, b := got[i], got[j]
			ra, rb := want[i], want[j]
			if a.LEq(b) != ra.leq(rb) ||
				a.Equal(b) != (ra.leq(rb) && rb.leq(ra)) ||
				a.Before(b) != (ra.leq(rb) && !rb.leq(ra)) ||
				a.Concurrent(b) != (!ra.leq(rb) && !rb.leq(ra)) {
				t.Fatalf("step %d: order of %v and %v disagrees with the reference", step, a, b)
			}
		case 7:
			got[k] = clock.GLB(got[i], got[j])
			want[k] = refGLB(want[i], want[j])
		case 8:
			e := clock.EventID{Replica: r, Seq: n}
			if got[i].Contains(e) != (want[i][r] >= n) {
				t.Fatalf("step %d: %v.Contains(%v) disagrees with the reference", step, got[i], e)
			}
		case 9:
			// Entries off the wire in any order, duplicates included,
			// decode as map assignments would: the last one wins.
			var body []byte
			ref := refVector{}
			m := next() % 6
			body = binary.AppendUvarint(append(body, 1), uint64(m))
			for range m {
				r, n := replicas[next()%len(replicas)], uint64(next()%8)
				body = binary.AppendUvarint(crdt.AppendWireString(body, string(r)), n)
				ref[r] = n
			}
			rd := crdt.NewWireReader(body)
			v, err := crdt.DecodeVectorWire(&rd)
			if err != nil {
				t.Fatalf("step %d: decode: %v", step, err)
			}
			got[i], want[i] = v, ref
		}
		for s := range slots {
			checkAgainstRef(t, step, got[s], want[s])
		}
	}
}

func checkAgainstRef(t *testing.T, step int, v clock.Vector, ref refVector) {
	t.Helper()
	if (v == nil) != (ref == nil) || len(v) != len(ref) {
		t.Fatalf("step %d: %#v has %d entries (nil %v), reference %v has %d (nil %v)",
			step, v, len(v), v == nil, ref, len(ref), ref == nil)
	}
	var sum uint64
	for _, r := range replicas {
		if v.Get(r) != ref[r] {
			t.Fatalf("step %d: %v.Get(%s) = %d, reference %d", step, v, r, v.Get(r), ref[r])
		}
		sum += ref[r]
	}
	if v.Sum() != sum {
		t.Fatalf("step %d: %v.Sum() = %d, reference %d", step, v, v.Sum(), sum)
	}
	wire := crdt.AppendVectorWire(nil, v)
	if want := appendRefWire(nil, ref); !bytes.Equal(wire, want) {
		t.Fatalf("step %d: %v encodes as %x, the sorted-map encoding is %x", step, v, wire, want)
	}
	rd := crdt.NewWireReader(wire)
	back, err := crdt.DecodeVectorWire(&rd)
	if err != nil || !reflect.DeepEqual(back, v) {
		t.Fatalf("step %d: %v decodes back as %#v (%v)", step, v, back, err)
	}
	if c := v.Clone(); c == nil || !c.Equal(v) || len(c) != len(v) {
		t.Fatalf("step %d: Clone of %#v is %#v", step, v, c)
	}
	if got, want := v.String(), ref.String(); got != want {
		t.Fatalf("step %d: String %q, reference %q", step, got, want)
	}
}

// TestVectorMatchesMapReference runs 500 seeded scripts of 200
// operations each against the map-backed reference.
func TestVectorMatchesMapReference(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 6*200)
		rng.Read(data)
		vectorScript(t, data)
	}
}

// FuzzVectorMatchesMap is TestVectorMatchesMapReference on
// fuzzer-written scripts.
func FuzzVectorMatchesMap(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 0, 1, 0, 0, 0, 5, 2, 0, 1, 0, 0, 0, 7})
	f.Add([]byte{0, 1, 2, 2, 0, 9, 4, 1, 2, 0, 2, 3, 3, 0, 7, 4, 0, 6})
	f.Fuzz(vectorScript)
}
