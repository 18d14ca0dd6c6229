package ipa

import (
	"strings"
	"testing"
)

const demoSpec = `
spec demo

invariant forall (Player: p, Tournament: t) :- enrolled(p, t) => player(p) and tournament(t)

operation add_player(Player: p) {
    player(p) := true
}
operation add_tourn(Tournament: t) {
    tournament(t) := true
}
operation rem_tourn(Tournament: t) {
    tournament(t) := false
}
operation enroll(Player: p, Tournament: t) {
    enrolled(p, t) := true
}
`

func TestPublicAnalysisPipeline(t *testing.T) {
	s, err := ParseSpec(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	conflicts, err := FindConflicts(s, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %d", len(conflicts))
	}
	repairs, err := ProposeRepairs(s, conflicts[0], AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(repairs) == 0 {
		t.Fatal("no repairs")
	}
	res, err := Analyze(s, AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unsolved) != 0 {
		t.Fatalf("unsolved: %v", res.Unsolved)
	}
	if !strings.Contains(res.Spec.String(), "tournament(t) := true") &&
		!strings.Contains(res.Spec.String(), "enrolled(*, t) := false") {
		t.Fatalf("patched spec missing repair:\n%s", res.Spec)
	}
}

// TestOpenMountCall drives the client API end to end: spec in,
// invariant-preserving cluster out.
func TestOpenMountCall(t *testing.T) {
	if _, err := Open(ClusterOptions{Backend: "weird"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
	db, err := Open(ClusterOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Mount("operation } {"); err == nil {
		t.Fatal("unparseable spec mounted")
	}
	app, err := db.Mount(demoSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(app.Analysis().Applied) == 0 {
		t.Fatal("analysis applied no repairs")
	}
	s := app.At(PaperSites()[0])
	if err := s.Call("nope"); err == nil {
		t.Fatal("unknown operation accepted")
	}
	for _, call := range [][]string{{"add_player", "ann"}, {"add_tourn", "open"}, {"enroll", "ann", "open"}} {
		if err := s.Call(call[0], call[1:]...); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Settle(); err != nil {
		t.Fatal(err)
	}
	if v := app.CheckInvariants(); len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	base := app.Digest(PaperSites()[0])
	for _, id := range db.Replicas() {
		if app.Digest(id) != base {
			t.Fatalf("digest diverged at %s", id)
		}
	}

	// The analysed spec's text mounts as it is: its marks say what the
	// analysis injected, and the re-check applies nothing. A marked spec
	// the re-check still repairs is not the analysis's output.
	analysed := strings.Replace(app.Spec().String(), "spec demo", "spec demo2", 1)
	if !strings.Contains(analysed, "injected ") {
		t.Fatalf("analysed spec carries no mark:\n%s", analysed)
	}
	again, err := db.Mount(analysed)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(again.Analysis().Applied); n != 0 {
		t.Fatalf("re-check of the analysed spec applied %d repairs", n)
	}
	unrepaired := strings.Replace(demoSpec, "spec demo", "spec demo3", 1)
	unrepaired = strings.Replace(unrepaired, "enrolled(p, t) := true", "enrolled(p, t) := true\n    injected player(p) := true", 1)
	if _, err := db.Mount(unrepaired); err == nil || !strings.Contains(err.Error(), "fixed point") {
		t.Fatalf("marked spec the analysis still repairs: Mount err = %v, want a refusal", err)
	}
}

func TestPublicRuntime(t *testing.T) {
	sim, cluster := NewPaperCluster(7)
	sites := PaperSites()
	east := cluster.Replica(sites[0])
	west := cluster.Replica(sites[1])

	tx := east.Begin()
	AWSetAt(tx, "tournaments").Add("cup", "")
	tx.Commit()
	sim.Run()

	// Concurrent remove vs touch: add-wins keeps the tournament.
	tx1 := east.Begin()
	AWSetAt(tx1, "tournaments").Remove("cup")
	tx1.Commit()
	tx2 := west.Begin()
	AWSetAt(tx2, "tournaments").Touch("cup")
	tx2.Commit()
	sim.Run()

	for _, id := range sites {
		tx := cluster.Replica(id).Begin()
		if !AWSetAt(tx, "tournaments").Contains("cup") {
			t.Fatalf("replica %s lost the tournament", id)
		}
		tx.Commit()
	}
}

func TestPublicCompSet(t *testing.T) {
	sim, cluster := NewPaperCluster(8)
	for _, id := range PaperSites() {
		SeedCompSet(cluster.Replica(id), "event", 1)
	}
	tx := cluster.Replica(PaperSites()[0]).Begin()
	CompSetAt(tx, "event").Add("t1", "")
	tx.Commit()
	tx2 := cluster.Replica(PaperSites()[1]).Begin()
	CompSetAt(tx2, "event").Add("t2", "")
	tx2.Commit()
	sim.Run()

	rtx := cluster.Replica(PaperSites()[2]).Begin()
	got := CompSetAt(rtx, "event").Read()
	rtx.Commit()
	if len(got) != 1 {
		t.Fatalf("compensated read = %v", got)
	}
}
