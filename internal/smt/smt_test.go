package smt

import (
	"fmt"
	"strings"
	"testing"

	"ipa/internal/logic"
	"ipa/internal/sat"
)

var tourSig = Signature{
	"player":     {"Player"},
	"tournament": {"Tournament"},
	"enrolled":   {"Player", "Tournament"},
	"active":     {"Tournament"},
	"finished":   {"Tournament"},
}

func tourDomain(n int) Domain {
	players := []string{"P1", "P2", "P3"}[:n]
	tourns := []string{"T1", "T2", "T3"}[:n]
	return Domain{"Player": players, "Tournament": tourns}
}

const refIntegrity = "forall (Player: p, Tournament: t) :- enrolled(p, t) => player(p) and tournament(t)"

// conflictQuery encodes the paper's four-state check:
// I(pre) ∧ I(post1) ∧ I(post2) ∧ ¬I(merged).
func conflictQuery(t *testing.T, e *Encoder, inv logic.Formula, e1, e2 GroundEffects, resolve ResolveFunc) (bool, *State, *State) {
	t.Helper()
	pre := e.NewState("pre")
	post1 := e.Apply(pre, e1, "post1")
	post2 := e.Apply(pre, e2, "post2")
	merged := e.Merge(pre, e1, e2, resolve, "merged")
	for _, st := range []*State{pre, post1, post2} {
		if err := e.Assert(inv, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AssertNot(inv, merged); err != nil {
		t.Fatal(err)
	}
	return e.Solve(), pre, merged
}

// Paper Fig. 2a: rem_tourn(t) ∥ enroll(p, t) breaks referential integrity.
func TestFig2aReferentialIntegrityBroken(t *testing.T) {
	inv := logic.MustParse(refIntegrity)
	e := NewEncoder(tourDomain(2), tourSig)
	remTourn := GroundEffects{Bools: []BoolEffect{{Pred: "tournament", Args: []string{"T1"}, Val: false}}}
	enroll := GroundEffects{Bools: []BoolEffect{{Pred: "enrolled", Args: []string{"P1", "T1"}, Val: true}}}
	sat, pre, merged := conflictQuery(t, e, inv, remTourn, enroll, nil)
	if !sat {
		t.Fatal("rem_tourn ∥ enroll must conflict under referential integrity")
	}
	// The counterexample must show the enrolled pair without the tournament.
	if v, ok := merged.AtomValue("enrolled", []string{"P1", "T1"}); !ok || !v {
		t.Fatalf("merged enrolled(P1,T1) should be true in the model")
	}
	if v, ok := merged.AtomValue("tournament", []string{"T1"}); !ok || v {
		t.Fatalf("merged tournament(T1) should be false in the model")
	}
	if v, ok := pre.AtomValue("tournament", []string{"T1"}); !ok || !v {
		t.Fatalf("pre tournament(T1) should be true (enroll executed there)")
	}
}

// Paper Fig. 2b: enroll additionally sets tournament(t) := true; with an
// add-wins rule for tournament the merge restores the tournament.
func TestFig2bAddWinsRepairs(t *testing.T) {
	inv := logic.MustParse(refIntegrity)
	e := NewEncoder(tourDomain(2), tourSig)
	remTourn := GroundEffects{Bools: []BoolEffect{{Pred: "tournament", Args: []string{"T1"}, Val: false}}}
	enrollT := GroundEffects{Bools: []BoolEffect{
		{Pred: "enrolled", Args: []string{"P1", "T1"}, Val: true},
		{Pred: "tournament", Args: []string{"T1"}, Val: true},
	}}
	addWins := func(pred string) (bool, bool) {
		if pred == "tournament" {
			return true, true
		}
		return false, false
	}
	sat, _, _ := conflictQuery(t, e, inv, remTourn, enrollT, addWins)
	if sat {
		t.Fatal("repaired enroll with add-wins tournament must not conflict")
	}
}

// Paper Fig. 2c: rem_tourn additionally clears enrolled(*, t); with a
// rem-wins rule for enrolled the merge removes the concurrent enrolment.
func TestFig2cRemWinsRepairs(t *testing.T) {
	inv := logic.MustParse(refIntegrity)
	e := NewEncoder(tourDomain(2), tourSig)
	remTourn := GroundEffects{Bools: []BoolEffect{
		{Pred: "tournament", Args: []string{"T1"}, Val: false},
		{Pred: "enrolled", Args: []string{"", "T1"}, Val: false}, // wildcard
	}}
	enroll := GroundEffects{Bools: []BoolEffect{{Pred: "enrolled", Args: []string{"P1", "T1"}, Val: true}}}
	remWins := func(pred string) (bool, bool) {
		if pred == "enrolled" {
			return false, true
		}
		return false, false
	}
	sat, _, _ := conflictQuery(t, e, inv, remTourn, enroll, remWins)
	if sat {
		t.Fatal("repaired rem_tourn with rem-wins enrolled must not conflict")
	}
}

// Without a convergence rule, opposing effects leave the merged value
// unconstrained, so the conflict must still be found.
func TestOpposingEffectsWithoutRuleStillConflict(t *testing.T) {
	inv := logic.MustParse(refIntegrity)
	e := NewEncoder(tourDomain(2), tourSig)
	remTourn := GroundEffects{Bools: []BoolEffect{{Pred: "tournament", Args: []string{"T1"}, Val: false}}}
	enrollT := GroundEffects{Bools: []BoolEffect{
		{Pred: "enrolled", Args: []string{"P1", "T1"}, Val: true},
		{Pred: "tournament", Args: []string{"T1"}, Val: true},
	}}
	sat, _, _ := conflictQuery(t, e, inv, remTourn, enrollT, nil)
	if !sat {
		t.Fatal("without a convergence rule the opposing write may lose: conflict expected")
	}
}

// Capacity invariant: two concurrent enrolls can overshoot a symbolic
// Capacity (the paper's aggregation constraint, routed to compensations).
func TestCapacityOvershoot(t *testing.T) {
	inv := logic.MustParse("forall (Tournament: t) :- #enrolled(*, t) <= Capacity")
	e := NewEncoder(tourDomain(2), tourSig)
	enroll1 := GroundEffects{Bools: []BoolEffect{{Pred: "enrolled", Args: []string{"P1", "T1"}, Val: true}}}
	enroll2 := GroundEffects{Bools: []BoolEffect{{Pred: "enrolled", Args: []string{"P2", "T1"}, Val: true}}}
	sat, _, merged := conflictQuery(t, e, inv, enroll1, enroll2, nil)
	if !sat {
		t.Fatal("concurrent enrolls must be able to overshoot Capacity")
	}
	cap, ok := e.ConstValue("Capacity")
	if !ok {
		t.Fatal("Capacity constant not allocated")
	}
	count := 0
	for _, p := range []string{"P1", "P2"} {
		if v, ok := merged.AtomValue("enrolled", []string{p, "T1"}); ok && v {
			count++
		}
	}
	if count <= cap {
		t.Fatalf("model is not a violation: count=%d capacity=%d", count, cap)
	}
}

// Enrolling the same player twice is idempotent under set semantics and
// must NOT be reported as a capacity conflict.
func TestCapacitySamePlayerIdempotent(t *testing.T) {
	inv := logic.MustParse("forall (Tournament: t) :- #enrolled(*, t) <= Capacity")
	e := NewEncoder(tourDomain(2), tourSig)
	enroll := GroundEffects{Bools: []BoolEffect{{Pred: "enrolled", Args: []string{"P1", "T1"}, Val: true}}}
	sat, _, _ := conflictQuery(t, e, inv, enroll, enroll, nil)
	if sat {
		t.Fatal("same-element double add is idempotent: no conflict expected")
	}
}

// Numeric field: two concurrent decrements can take stock below zero.
func TestStockUnderflow(t *testing.T) {
	inv := logic.MustParse("forall (Item: i) :- stock(i) >= 0")
	dom := Domain{"Item": {"Item1", "Item2"}}
	sig := Signature{"stock": {"Item"}}
	e := NewEncoder(dom, sig)
	buy := GroundEffects{Nums: []NumEffect{{Fn: "stock", Args: []string{"Item1"}, Delta: -1}}}
	sat, pre, merged := conflictQuery(t, e, inv, buy, buy, nil)
	if !sat {
		t.Fatal("concurrent buys must be able to underflow stock")
	}
	preV, ok := pre.FnValue("stock", []string{"Item1"})
	if !ok {
		t.Fatal("pre stock not materialised")
	}
	mergedV, _ := merged.FnValue("stock", []string{"Item1"})
	if preV < 0 || mergedV >= 0 {
		t.Fatalf("model should show pre>=0, merged<0: pre=%d merged=%d", preV, mergedV)
	}
	if mergedV != preV-2 {
		t.Fatalf("merged = pre-2 expected: pre=%d merged=%d", preV, mergedV)
	}
}

// Restock (positive delta) never violates a lower bound.
func TestRestockSafe(t *testing.T) {
	inv := logic.MustParse("forall (Item: i) :- stock(i) >= 0")
	dom := Domain{"Item": {"Item1", "Item2"}}
	e := NewEncoder(dom, Signature{"stock": {"Item"}})
	restock := GroundEffects{Nums: []NumEffect{{Fn: "stock", Args: []string{"Item1"}, Delta: 5}}}
	sat, _, _ := conflictQuery(t, e, inv, restock, restock, nil)
	if sat {
		t.Fatal("concurrent restocks cannot violate stock >= 0")
	}
}

// Mutual exclusion: concurrent begin (active:=true) and finish
// (finished:=true, active:=false) — with no rule on active the merge may
// leave both active and finished true.
func TestMutualExclusionConflict(t *testing.T) {
	inv := logic.MustParse("forall (Tournament: t) :- not (active(t) and finished(t))")
	e := NewEncoder(tourDomain(2), tourSig)
	begin := GroundEffects{Bools: []BoolEffect{{Pred: "active", Args: []string{"T1"}, Val: true}}}
	finish := GroundEffects{Bools: []BoolEffect{
		{Pred: "finished", Args: []string{"T1"}, Val: true},
		{Pred: "active", Args: []string{"T1"}, Val: false},
	}}
	sat, _, _ := conflictQuery(t, e, inv, begin, finish, nil)
	if !sat {
		t.Fatal("begin ∥ finish must conflict on not(active and finished)")
	}
	// With a rem-wins rule on active, finish wins and the invariant holds.
	e2 := NewEncoder(tourDomain(2), tourSig)
	remWinsActive := func(pred string) (bool, bool) {
		if pred == "active" {
			return false, true
		}
		return false, false
	}
	sat2, _, _ := conflictQuery(t, e2, inv, begin, finish, remWinsActive)
	if sat2 {
		t.Fatal("rem-wins active resolves begin ∥ finish")
	}
}

func TestFormulaErrors(t *testing.T) {
	e := NewEncoder(tourDomain(2), tourSig)
	st := e.NewState("s")
	// Unbound variable.
	if _, err := e.Formula(logic.MustParse("player(p)"), st, Binding{}); err == nil {
		t.Fatal("unbound variable must error")
	}
	// Unknown sort in quantifier.
	if _, err := e.Formula(logic.MustParse("forall (Ghost: g) :- spooky(g)"), st, Binding{}); err == nil {
		t.Fatal("unknown sort must error")
	}
	// Wildcard on a predicate without signature.
	if _, err := e.Formula(logic.MustParse("forall (Tournament: t) :- #mystery(*, t) <= 3"), st, Binding{}); err == nil {
		t.Fatal("wildcard without signature must error")
	}
}

func TestStateOverlayFrame(t *testing.T) {
	// Unassigned atoms must be shared between pre and post (frame rule).
	e := NewEncoder(tourDomain(2), tourSig)
	pre := e.NewState("pre")
	post := e.Apply(pre, GroundEffects{Bools: []BoolEffect{{Pred: "player", Args: []string{"P1"}, Val: true}}}, "post")
	a := pre.Atom("player", []string{"P2"})
	b := post.Atom("player", []string{"P2"})
	e.S.Assert(sat.Iff(a, sat.Not(b)))
	if e.Solve() {
		t.Fatal("unassigned atom must be identical across states")
	}
}

func TestBitVectorArithmetic(t *testing.T) {
	// 5 - 3 = 2 via encoder circuits, checked by solving.
	e := NewEncoder(Domain{}, Signature{})
	d := e.sub(constBV(5), constBV(3))
	eq := e.equal(d, constBV(2))
	e.S.Assert(eq)
	if !e.Solve() {
		t.Fatal("5-3=2 must be satisfiable")
	}
	if got := e.valueOf(d); got != 2 {
		t.Fatalf("5-3 evaluated to %d", got)
	}

	e2 := NewEncoder(Domain{}, Signature{})
	lt := e2.less(constBV(-4), constBV(3))
	e2.S.Assert(lt)
	if !e2.Solve() {
		t.Fatal("-4 < 3 must hold (signed comparison)")
	}
	e3 := NewEncoder(Domain{}, Signature{})
	e3.S.Assert(e3.less(constBV(3), constBV(-4)))
	if e3.Solve() {
		t.Fatal("3 < -4 must be unsatisfiable")
	}
}

func TestSumCircuit(t *testing.T) {
	for n := 0; n <= 9; n++ {
		e := NewEncoder(Domain{}, Signature{})
		bits := make([]*sat.Formula, 9)
		for i := range bits {
			if i < n {
				bits[i] = sat.TrueF()
			} else {
				bits[i] = sat.FalseF()
			}
		}
		s := e.sum(bits)
		e.S.Assert(e.equal(s, constBV(n)))
		if !e.Solve() {
			t.Fatalf("sum of %d ones != %d", n, n)
		}
	}
}

func TestEffectStrings(t *testing.T) {
	be := BoolEffect{Pred: "enrolled", Args: []string{"", "T1"}, Val: false}
	if be.String() != "enrolled(*,T1) := false" {
		t.Fatalf("BoolEffect.String() = %q", be.String())
	}
	ne := NumEffect{Fn: "stock", Args: []string{"I1"}, Delta: -2}
	if ne.String() != "stock(I1) -= 2" {
		t.Fatalf("NumEffect.String() = %q", ne.String())
	}
}

func TestUniformScope(t *testing.T) {
	d := UniformScope([]logic.Sort{"Player", "Tournament"}, 3)
	if len(d["Player"]) != 3 || d["Player"][0] != "Player1" {
		t.Fatalf("domain = %v", d)
	}
	sorts := d.Sorts()
	if len(sorts) != 2 || sorts[0] != "Player" {
		t.Fatalf("sorts = %v", sorts)
	}
}

// TestPrefixStartsWhereFrozen grounds an invariant in a pre-state, freezes
// the encoder, and then asks the same four-state query on the original,
// on two encoders started from the prefix and on two started on one
// recycled solver: verdict, variable count, model and witness values must
// agree on all five. The invariant covers
// atoms, a count, a symbolic constant and a numeric field, so every table
// the prefix carries is read after Start.
func TestPrefixStartsWhereFrozen(t *testing.T) {
	inv := logic.MustParse("forall (Tournament: t) :- #enrolled(*, t) <= Capacity and budget(t) >= 0 and (active(t) => tournament(t))")
	sig := Signature{"budget": {"Tournament"}}
	for k, v := range tourSig {
		sig[k] = v
	}
	enroll := func(p string) GroundEffects {
		return GroundEffects{
			Bools: []BoolEffect{{Pred: "enrolled", Args: []string{p, "T1"}, Val: true}, {Pred: "active", Args: []string{"T1"}, Val: true}},
			Nums:  []NumEffect{{Fn: "budget", Args: []string{"T1"}, Delta: -1}},
		}
	}
	query := func(e *Encoder, pre *State) string {
		merged := e.Merge(pre, enroll("P1"), enroll("P2"), nil, "merged")
		for _, st := range []*State{e.Apply(pre, enroll("P1"), "post1"), e.Apply(pre, enroll("P2"), "post2")} {
			if err := e.Assert(inv, st); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AssertNot(inv, merged); err != nil {
			t.Fatal(err)
		}
		if !e.Solve() {
			return fmt.Sprint("unsat, vars ", e.S.NumVars())
		}
		capacity, _ := e.ConstValue("Capacity")
		budget, _ := pre.FnValue("budget", []string{"T1"})
		enrolled, _ := merged.AtomValue("enrolled", []string{"P2", "T1"})
		return fmt.Sprint("sat, vars ", e.S.NumVars(), " model ", e.S.Model(), " Capacity ", capacity, " budget ", budget, " enrolled(P2,T1) ", enrolled)
	}
	e := NewEncoder(tourDomain(2), sig)
	pre := e.NewState("pre")
	if err := e.Assert(inv, pre); err != nil {
		t.Fatal(err)
	}
	p := e.Freeze(pre)
	want := query(e, pre)
	if !strings.HasPrefix(want, "sat") {
		t.Fatalf("the query must be satisfiable to compare witnesses: %s", want)
	}
	recycled := sat.New()
	for k := 0; k < 4; k++ {
		enc, root := p.Start()
		if k >= 2 { // the second time on a solver the first query left behind
			enc, root = p.StartOn(recycled)
		}
		if got := query(enc, root); got != want {
			t.Fatalf("start %d from the prefix:\n got  %s\n want %s", k, got, want)
		}
	}
}
