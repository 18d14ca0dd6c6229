package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/tpcw"
	"ipa/internal/apps/twitter"
	"ipa/internal/clock"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// mountTournament mounts the analyzed tournament spec on a fresh
// deterministic sim cluster.
func mountTournament(t *testing.T, seed int64) (*App, *wan.Sim, runtime.Cluster) {
	t.Helper()
	sim := wan.NewSim(seed)
	cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(), sites()))
	app, err := Mount(nil, tournament.Analysis(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	return app, sim, cluster
}

func sites() []clock.ReplicaID { return []clock.ReplicaID{wan.USEast, wan.USWest, wan.EUWest} }

// TestMountTournamentShape pins the compiled form of the paper's
// running example: clause classification, derived materialization,
// patches, ensures, and cascades must come out exactly as the analysis
// and the Fig. 3 ensure helpers dictate.
func TestMountTournamentShape(t *testing.T) {
	app, _, _ := mountTournament(t, 1)

	classes := map[string]ClauseClass{}
	for _, cl := range app.Clauses() {
		classes[cl.Formula.String()] = cl.Class
	}
	want := map[string]ClauseClass{
		"forall (Player: p, Tournament: t) :- enrolled(p, t) => (player(p) and tournament(t))":                    Continuous,
		"forall (Player: p, Player: q, Tournament: t) :- inMatch(p, q, t) => (enrolled(p, t) and enrolled(q, t))": Continuous,
		"forall (Player: p, Player: q, Tournament: t) :- inMatch(p, q, t) => (active(t) or finished(t))":          Advisory,
		"forall (Tournament: t) :- #enrolled(*, t) <= Capacity":                                                   ReadRepaired,
		"forall (Tournament: t) :- active(t) => tournament(t)":                                                    Continuous,
		"forall (Tournament: t) :- finished(t) => tournament(t)":                                                  Continuous,
		"forall (Tournament: t) :- not (active(t) and finished(t))":                                               Continuous,
	}
	if len(classes) != len(want) {
		t.Fatalf("got %d clauses, want %d: %v", len(classes), len(want), classes)
	}
	for f, cls := range want {
		if got, ok := classes[f]; !ok || got != cls {
			t.Errorf("clause %q: class %v, want %v (found=%v)", f, got, cls, ok)
		}
	}

	// Materialization: active and inMatch are rem-wins (the analysis'
	// rule and the wipe-derived rule), the rest add-wins.
	for pred, rem := range map[string]bool{
		"player": false, "tournament": false, "enrolled": false,
		"finished": false, "active": true, "inMatch": true,
	} {
		if app.preds[pred] == nil || app.preds[pred].remWins != rem {
			t.Errorf("predicate %s: remWins = %v, want %v", pred, app.preds[pred] != nil && app.preds[pred].remWins, rem)
		}
	}

	// disenroll carries the Fig. 3 wipe patches.
	dis := app.ops["disenroll"]
	if len(dis.patches) != 2 {
		t.Fatalf("disenroll patches = %v, want the two match wipes", dis.patches)
	}
	for _, e := range dis.patches {
		if e.Pred != "inMatch" || e.Val {
			t.Fatalf("unexpected disenroll patch %s", e)
		}
	}

	// do_match's ensure closure restores both enrolments and,
	// transitively, the tournament (Fig. 3 ensureEnroll). It walks
	// through player(p) and player(q) but touches neither: this spec has
	// no rem_player (unlike the paper's Fig. 1), so nothing can remove a
	// player and a touch of one would beat no concurrent remove.
	match := app.ops["do_match"]
	var ensured []string
	for _, e := range match.ensures {
		ensured = append(ensured, termsKey(e.pred, e.terms))
	}
	if want := []string{"enrolled(p,t)", "enrolled(q,t)", "tournament(t)"}; !slices.Equal(ensured, want) {
		t.Errorf("do_match ensures = %v, want %v", ensured, want)
	}

	// rem_tourn cascades exactly the tournament's own flags.
	rem := app.ops["rem_tourn"]
	var cascades []string
	for _, c := range rem.cascades {
		cascades = append(cascades, termsKey(c.pred, c.terms))
	}
	if len(cascades) != 2 || !contains(cascades, "active(t)") || !contains(cascades, "finished(t)") {
		t.Fatalf("rem_tourn cascades = %v, want [active(t) finished(t)]", cascades)
	}
	if len(rem.patches) != 0 {
		t.Fatalf("rem_tourn patches = %v, want none", rem.patches)
	}

	// enroll's analysis patch is the tournament re-assertion; its ensure
	// closure adds nothing (player cannot be falsified).
	enroll := app.ops["enroll"]
	if len(enroll.patches) != 1 || enroll.patches[0].Pred != "tournament" {
		t.Fatalf("enroll patches = %v, want tournament(t) := true", enroll.patches)
	}
	if len(enroll.ensures) != 0 {
		t.Fatalf("enroll ensures = %v, want none", enroll.ensures)
	}
}

// TestInjectedMarksAreTheAppliedRepairs holds the analysed spec's text to
// the repair loop: per operation, the effects Parse(res.Spec.String())
// marks injected are the Extra of every applied repair that targets it,
// in order, minus the effects the operation already had; and they are
// the patches Mount compiles from that text, with no original spec to
// diff against. Cases: the five golden specs with default options and
// the two bundled apps with recorded repair choices.
func TestInjectedMarksAreTheAppliedRepairs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "quickstart", "quickstart.spec"))
	if err != nil {
		t.Fatal(err)
	}
	type analysed struct {
		in  *spec.Spec
		res *analysis.Result
	}
	cases := map[string]analysed{
		"tournament (Fig. 3 choices)": {tournament.Spec(), tournament.Analysis()},
		"twitter (Fig. 6 choices)":    {twitter.Spec(), twitter.Analysis()},
	}
	for name, s := range map[string]*spec.Spec{
		"quickstart": spec.MustParse(string(src)), "ticket": ticket.Spec(),
		"tournament": tournament.Spec(), "tpcw": tpcw.Spec(), "twitter": twitter.Spec(),
	} {
		res, err := analysis.Run(s, analysis.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = analysed{s, res}
	}
	marks := 0
	for name, c := range cases {
		printed, err := spec.Parse(c.res.Spec.String())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		app, err := Mount(nil, &analysis.Result{Spec: printed}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, op := range printed.Operations {
			had, _ := c.in.Operation(op.Name)
			had = had.Clone()
			var want []string
			for _, a := range c.res.Applied {
				if a.Repair.Target != op.Name {
					continue
				}
				for _, e := range a.Repair.Extra {
					if !had.HasEffect(e) {
						had.Effects = append(had.Effects, e)
						want = append(want, e.String())
					}
				}
			}
			var got, patches []string
			for _, e := range op.Effects {
				if e.Injected {
					got = append(got, e.String())
				}
			}
			for _, e := range app.ops[op.Name].patches {
				patches = append(patches, e.String())
			}
			if !slices.Equal(got, want) || !slices.Equal(patches, want) {
				t.Errorf("%s: %s: marked %v, compiled patches %v, want the applied repairs' new effects %v", name, op.Name, got, patches, want)
			}
			marks += len(got)
		}
	}
	if marks == 0 {
		t.Fatal("no analysis output carries a mark: the check above is vacuous")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestCallBasics drives the engine-executed tournament sequentially.
func TestCallBasics(t *testing.T) {
	app, sim, cluster := mountTournament(t, 2)
	east := cluster.Replica(wan.USEast)

	// Guarded no-op: enrolling before the entities exist.
	if err := app.Call(east, "enroll", "alice", "cup"); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("enroll before setup: err = %v, want ErrPrecondition", err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(app.Call(east, "add_player", "alice"))
	must(app.Call(east, "add_player", "bob"))
	must(app.Call(east, "add_tourn", "cup"))
	must(app.Call(east, "enroll", "alice", "cup"))
	must(app.Call(east, "enroll", "bob", "cup"))
	// finish before begin: the explicit requires clause refuses.
	if err := app.Call(east, "finish_tourn", "cup"); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("finish before begin: err = %v, want ErrPrecondition", err)
	}
	must(app.Call(east, "begin_tourn", "cup"))
	must(app.Call(east, "do_match", "alice", "bob", "cup"))
	// rem_tourn with live enrolments: the generic guard refuses.
	if err := app.Call(east, "rem_tourn", "cup"); !errors.Is(err, ErrPrecondition) {
		t.Fatalf("rem_tourn with enrolments: err = %v, want ErrPrecondition", err)
	}
	// disenroll cascades: the wipe patch clears alice's match.
	must(app.Call(east, "disenroll", "alice", "cup"))
	sim.Run()

	for _, id := range cluster.Replicas() {
		r := cluster.Replica(id)
		if msgs := app.CheckQuiescent(r); len(msgs) > 0 {
			t.Fatalf("replica %s: %v", id, msgs)
		}
	}
	in := app.Interp(east)
	if in.Truth["inMatch(alice,bob,cup)"] {
		t.Fatal("disenroll did not wipe the match")
	}
	if in.Truth["enrolled(alice,cup)"] || !in.Truth["enrolled(bob,cup)"] {
		t.Fatalf("enrolments wrong: %v", in.Truth)
	}

	// Digest convergence across replicas.
	base := app.Digest(cluster.Replica(wan.USEast))
	for _, id := range cluster.Replicas() {
		if d := app.Digest(cluster.Replica(id)); d != base {
			t.Fatalf("digest diverged at %s:\n%s\nvs\n%s", id, d, base)
		}
	}
}

// TestCallErrors pins the caller-mistake surface of Call.
func TestCallErrors(t *testing.T) {
	app, _, cluster := mountTournament(t, 3)
	east := cluster.Replica(wan.USEast)

	if err := app.Call(east, "no_such_op", "x"); err == nil || !strings.Contains(err.Error(), "unknown operation") {
		t.Fatalf("unknown op: err = %v", err)
	} else if errors.Is(err, ErrPrecondition) {
		t.Fatalf("unknown op must not read as a precondition failure: %v", err)
	}
	if err := app.Call(east, "enroll", "alice"); err == nil || !strings.Contains(err.Error(), "argument") {
		t.Fatalf("arity: err = %v", err)
	}
	if err := app.Call(east, "add_player", ""); err == nil || !strings.Contains(err.Error(), "empty value") {
		t.Fatalf("empty arg: err = %v", err)
	}
	if err := app.Call(east, "add_player", "a,b"); err == nil || !strings.Contains(err.Error(), "reserved character") {
		t.Fatalf("reserved char: err = %v", err)
	}

	// A spec with no operations has nothing to execute: Mount refuses
	// (otherwise the chaos generator would have nothing to draw from).
	empty := spec.MustParse("spec empty\ninvariant forall (A: x) :- p(x)")
	if _, err := Mount(nil, &analysis.Result{Spec: empty}, nil); err == nil ||
		!strings.Contains(err.Error(), "no operations") {
		t.Fatalf("zero-operation spec mounted: %v", err)
	}

	// A remove-wins set indexes a wildcard remove by the positions it
	// binds, at most 64: a wider wiped predicate is refused at mount, not
	// by the first call that wipes it.
	for _, arity := range []int{64, 65} {
		args := "x" + strings.Repeat(", x", arity-1)
		pattern := "x" + strings.Repeat(", *", arity-1)
		src := fmt.Sprintf("spec wide\ninvariant forall (A: x) :- w(%s) => p(x)\n"+
			"operation add(A: x) {\n    w(%s) := true\n}\n"+
			"operation wipe(A: x) {\n    w(%s) := false\n}\n", args, args, pattern)
		wide := spec.MustParse(src)
		_, err := Mount(nil, &analysis.Result{Spec: wide}, nil)
		if refused := err != nil && strings.Contains(err.Error(), "at most 64"); refused != (arity > 64) {
			t.Fatalf("arity %d wiped remove-wins: Mount err = %v", arity, err)
		}
	}
}

// TestConcurrentEnrollRemTournament replays the paper's headline race
// through the engine: with the analysis patches executed generically,
// an enrolment concurrent with the tournament's removal restores the
// tournament at every replica.
func TestConcurrentEnrollRemTournament(t *testing.T) {
	app, sim, cluster := mountTournament(t, 4)
	east, west := cluster.Replica(wan.USEast), cluster.Replica(wan.USWest)

	for _, err := range []error{
		app.Call(east, "add_player", "alice"),
		app.Call(east, "add_tourn", "cup"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()

	// Concurrent: east removes the tournament, west enrols alice.
	if err := app.Call(east, "rem_tourn", "cup"); err != nil {
		t.Fatal(err)
	}
	if err := app.Call(west, "enroll", "alice", "cup"); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	for _, id := range cluster.Replicas() {
		r := cluster.Replica(id)
		if msgs := app.CheckQuiescent(r); len(msgs) > 0 {
			t.Fatalf("replica %s: %v", id, msgs)
		}
		in := app.Interp(r)
		if !in.Truth["tournament(cup)"] || !in.Truth["enrolled(alice,cup)"] {
			t.Fatalf("replica %s: add-wins touch did not restore the tournament: %v", id, in.Truth)
		}
	}
}
