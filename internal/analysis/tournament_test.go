package analysis

import (
	"testing"

	"ipa/internal/spec"
)

// fullTournament is the paper's complete Fig. 1 specification.
const fullTournament = `
spec tournament

const Capacity = 8

invariant forall (Player: p, Tournament: t) :- enrolled(p, t) => player(p) and tournament(t)
invariant forall (Player: p, q, Tournament: t) :- inMatch(p, q, t) => enrolled(p, t) and enrolled(q, t) and (active(t) or finished(t))
invariant forall (Tournament: t) :- #enrolled(*, t) <= Capacity
invariant forall (Tournament: t) :- active(t) => tournament(t)
invariant forall (Tournament: t) :- finished(t) => tournament(t)
invariant forall (Tournament: t) :- not (active(t) and finished(t))

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
operation disenroll(Player: p, Tournament: t) {
    enrolled(p, t) := false
}
operation begin_tourn(Tournament: t) {
    active(t) := true
}
operation finish_tourn(Tournament: t) {
    finished(t) := true
    active(t) := false
}
operation do_match(Player: p, q, Tournament: t) {
    inMatch(p, q, t) := true
}
`

// TestFullTournamentAnalysis runs the complete IPA pipeline on the paper's
// running example and checks the headline outcome: every boolean conflict
// repaired, the capacity constraint compensated, nothing unsolved.
func TestFullTournamentAnalysis(t *testing.T) {
	s := spec.MustParse(fullTournament)
	res, err := Run(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.Summary())
	if len(res.Unsolved) != 0 {
		t.Fatalf("unsolved conflicts: %d", len(res.Unsolved))
	}
	if len(res.Applied) == 0 {
		t.Fatal("expected repairs")
	}
	foundCap := false
	for _, c := range res.Compensations {
		if c.Kind == TrimExcess && c.Pred == "enrolled" {
			foundCap = true
		}
	}
	if !foundCap {
		t.Fatal("capacity compensation missing")
	}
	// Patched spec is conflict-free on boolean clauses.
	c, err := findFirstConflict(res.Spec, DefaultOptions(), map[string]bool{}, boolClausesOnly, &groundings{})
	if err != nil {
		t.Fatal(err)
	}
	if c != nil {
		t.Fatalf("patched spec still conflicts: %s", c)
	}
}
