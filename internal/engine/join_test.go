package engine

import (
	"errors"
	"reflect"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/clock"
	"ipa/internal/logic"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// joinShape is one guard shape the join must bind exactly like the
// reference cross-product: a spec, a scripted call sequence with the
// outcome each call must have on both executors, and a byte sequence
// seeding FuzzCompiledVsInterpreted with it.
type joinShape struct {
	name string
	src  string
	// consts names free variables of the parsed invariants that stand for
	// constants — the spec language cannot write one.
	consts []string
	calls  []scripted
	seq    []byte
	// enumerates names an operation whose guard has a variable no
	// generator covers: it must still extract that sort's domain and
	// enumerate it.
	enumerates string
}

type scripted struct {
	call    []string
	refused bool
}

func passes(call ...string) scripted  { return scripted{call: call} }
func refused(call ...string) scripted { return scripted{call: call, refused: true} }

var joinShapes = []joinShape{{
	// A change binds one variable; the other is bound by whichever
	// antecedent atom mentions it, and the rest of the antecedent is
	// evaluated at the produced binding.
	name: "multi-atom antecedent",
	src: `spec multi
invariant forall (A: x, B: y) :- a(x) and b(x, y) => c(y)
operation mka(A: x) {
 a(x) := true
}
operation mkb(A: x, B: y) {
 b(x, y) := true
 c(y) := true
}
operation rmc(B: y) {
 c(y) := false
}`,
	calls: []scripted{
		passes("mka", "x0"), passes("mkb", "x0", "y0"), refused("rmc", "y0"),
		passes("mkb", "x1", "y1"), passes("rmc", "y1"), refused("mka", "x1"),
	},
	seq: []byte{0, 0, 1, 0, 2, 1, 1, 1, 2, 2, 0, 1},
}, {
	// Nothing must be true for a disjunction to be false: x has no
	// generator and enumerates its domain, which r (not in the clause)
	// populates.
	name: "no generator",
	src: `spec nogen
invariant forall (A: x, B: y) :- p(x) or q(y)
operation mkq(B: y) {
 q(y) := true
}
operation mkr(A: x) {
 r(x) := true
}
operation rmq(B: y) {
 q(y) := false
}`,
	calls: []scripted{
		passes("mkq", "y0"), passes("rmq", "y0"), passes("mkq", "y0"), passes("mkr", "x0"), refused("rmq", "y0"),
	},
	seq:        []byte{0, 0, 2, 0, 0, 0, 1, 1, 2, 0},
	enumerates: "rmq",
}, {
	// l(x, x, y) only matches tuples whose first two components agree.
	name: "repeated variable",
	src: `spec repeat
invariant forall (A: x, y) :- l(x, x, y) => g(y)
operation loop(A: x, y) {
 l(x, x, y) := true
 g(y) := true
}
operation rmg(A: y) {
 g(y) := false
}
operation skew(A: x, y, z) {
 l(x, y, z) := true
}`,
	calls: []scripted{
		passes("skew", "x0", "x1", "x2"), passes("rmg", "x2"), passes("loop", "x3", "x2"), refused("rmg", "x2"),
	},
	seq: []byte{2, 0, 1, 2, 0, 1, 1, 2},
}, {
	// The generator's constant position is part of the pattern.
	name: "constant in the generator",
	src: `spec konst
invariant forall (A: x, I: y) :- owns(x, gold, y) => user(x)
operation grant(A: x, K: k, I: y) {
 owns(x, k, y) := true
}
operation mkuser(A: x) {
 user(x) := true
}
operation rmuser(A: x) {
 user(x) := false
}`,
	consts: []string{"gold"},
	calls: []scripted{
		passes("mkuser", "x0"), passes("grant", "x0", "silver", "i0"), passes("rmuser", "x0"),
		passes("mkuser", "x0"), passes("grant", "x0", "gold", "i1"), refused("rmuser", "x0"),
		refused("grant", "x1", "gold", "i0"), passes("grant", "x1", "silver", "i0"),
	},
}, {
	// dis wipes p's side of the matches it would otherwise be refused
	// for: the generator must see the post-state, not the set. The
	// other side is not wiped and still refuses.
	name: "generator over a predicate wiped in the same call",
	src: `spec wiped
rule m rem-wins
invariant forall (A: p, q, T: t) :- m(p, q, t) => e(p, t) and e(q, t)
operation dis(A: p, T: t) {
 e(p, t) := false
 m(p, *, t) := false
}
operation en(A: p, T: t) {
 e(p, t) := true
}
operation mt(A: p, q, T: t) {
 m(p, q, t) := true
}`,
	calls: []scripted{
		passes("en", "p0", "t0"), passes("en", "p1", "t0"), refused("mt", "p0", "p2", "t0"), passes("mt", "p0", "p1", "t0"),
		refused("dis", "p1", "t0"), passes("dis", "p0", "t0"), passes("dis", "p1", "t0"),
	},
	seq: []byte{1, 0, 1, 1, 2, 0, 0, 1, 0, 0, 2, 3, 0, 0},
}}

func (sh joinShape) spec(t *testing.T) *spec.Spec {
	t.Helper()
	s, err := spec.Parse(sh.src)
	if err != nil {
		t.Fatal(err)
	}
	sub := logic.Subst{}
	for _, c := range sh.consts {
		sub[c] = logic.C(c)
	}
	for i, inv := range s.Invariants {
		s.Invariants[i] = sub.Apply(inv)
	}
	return s
}

// TestJoinShapes drives each shape's script through both executors: the
// scripted outcomes hold, every call's error is bit-equal, digests and
// checks agree, nothing falls back, and only the generator-less shape
// enumerates a domain.
func TestJoinShapes(t *testing.T) {
	for _, sh := range joinShapes {
		t.Run(sh.name, func(t *testing.T) {
			s := sh.spec(t)
			mount := func(opts ...MountOption) (*App, runtime.Replica) {
				cluster := runtime.NewSimCluster(store.NewCluster(wan.NewSim(1), wan.PaperTopology(),
					[]clock.ReplicaID{"a"}))
				app, err := Mount(nil, &analysis.Result{Spec: s}, cluster, opts...)
				if err != nil {
					t.Fatal(err)
				}
				return app, cluster.Replica("a")
			}
			compiled, cr := mount()
			interp, ir := mount(WithInterpreter())
			for _, op := range compiled.Operations() {
				if ok, why := compiled.Compiled(op); !ok {
					t.Fatalf("%s fell back: %s", op, why)
				}
				if whole := compiled.Footprint(op); (len(whole) > 0) != (op == sh.enumerates) {
					t.Fatalf("%s extracts %v whole", op, whole)
				}
			}
			for i, c := range sh.calls {
				cerr := compiled.Call(cr, c.call[0], c.call[1:]...)
				ierr := interp.Call(ir, c.call[0], c.call[1:]...)
				if errors.Is(cerr, ErrPrecondition) != c.refused || (cerr != nil && !c.refused) {
					t.Fatalf("call %d %v: refused=%v wanted, got %v", i, c.call, c.refused, cerr)
				}
				if (cerr == nil) != (ierr == nil) || (cerr != nil && cerr.Error() != ierr.Error()) {
					t.Fatalf("call %d %v diverged:\ncompiled:    %v\ninterpreted: %v", i, c.call, cerr, ierr)
				}
			}
			if cd, id := compiled.Digest(cr), interp.Digest(ir); cd != id {
				t.Fatalf("digests diverged:\ncompiled:    %s\ninterpreted: %s", cd, id)
			}
			if cc, ic := compiled.CheckQuiescent(cr), interp.CheckQuiescent(ir); !reflect.DeepEqual(cc, ic) {
				t.Fatalf("checks diverged:\nby join:       %q\nby evaluation: %q", cc, ic)
			}
			st := compiled.Stats()
			if st.FallbackCalls != 0 || (st.DomainEnumCalls > 0) != (sh.enumerates != "") {
				t.Fatalf("slow-path counters %+v, domain enumeration expected: %v", st, sh.enumerates != "")
			}
			if got := interp.Stats().FallbackCalls; got != uint64(len(sh.calls)) {
				t.Fatalf("interpreter served %d of %d calls", got, len(sh.calls))
			}
		})
	}
}
