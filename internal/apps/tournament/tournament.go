// Package tournament implements the paper's running example (Fig. 1): a
// gaming-tournament service with players, tournaments, enrolments and
// matches, plus the invariants that relate them. Two executable variants
// share the same interface:
//
//   - Causal: the unmodified application; concurrent operations can
//     violate the invariants (removed tournaments with enrolled players,
//     matches in inactive tournaments, ...).
//   - IPA: the application patched according to the IPA analysis output —
//     exactly the auxiliary "ensure" effects of the paper's Fig. 3:
//     enroll/do_match touch the player and tournament indexes (add-wins),
//     begin/finish touch the tournament, finish removes from the rem-wins
//     active set, so finish wins over a concurrent begin.
//
// The Spec function returns the paper's specification, which the analysis
// in package analysis turns into those same patches (see the analysis
// integration test).
package tournament

import (
	"fmt"

	"ipa/internal/crdt"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
)

// Object keys.
const (
	KeyPlayers     = "tournament/players"
	KeyTournaments = "tournament/tournaments"
	KeyEnrolled    = "tournament/enrolled"
	KeyActive      = "tournament/active"
	KeyFinished    = "tournament/finished"
	KeyMatches     = "tournament/matches"
)

// SpecSource is the textual specification of the application (paper
// Fig. 1, in this repository's spec language).
const SpecSource = `
spec tournament

const Capacity = 8

invariant forall (Player: p, Tournament: t) :- enrolled(p, t) => player(p) and tournament(t)
invariant forall (Player: p, q, Tournament: t) :- inMatch(p, q, t) => enrolled(p, t) and enrolled(q, t)
invariant forall (Player: p, q, Tournament: t) :- inMatch(p, q, t) => active(t) or finished(t)
invariant forall (Tournament: t) :- #enrolled(*, t) <= Capacity
invariant forall (Tournament: t) :- active(t) => tournament(t)
invariant forall (Tournament: t) :- finished(t) => tournament(t)
invariant forall (Tournament: t) :- not (active(t) and finished(t))

tag unique-ids
tag aggregation-inclusion

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
    requires active(t)
    finished(t) := true
    active(t) := false
}
operation do_match(Player: p, q, Tournament: t) {
    inMatch(p, q, t) := true
}
`

// Spec parses and returns the application specification.
func Spec() *spec.Spec { return spec.MustParse(SpecSource) }

// Variant selects the executable flavour of the application.
type Variant int

// Application variants.
const (
	// Causal runs the unmodified operations on causal consistency.
	Causal Variant = iota
	// IPA runs the operations patched with the analysis' extra effects.
	IPA
)

func (v Variant) String() string {
	if v == IPA {
		return "ipa"
	}
	return "causal"
}

// App executes tournament operations against a replicated store.
type App struct {
	variant Variant
}

// New creates an application instance in the given variant.
func New(variant Variant) *App { return &App{variant: variant} }

// Variant returns the configured variant.
func (a *App) Variant() Variant { return a.variant }

// AddPlayer registers a player.
func (a *App) AddPlayer(r runtime.Replica, p string) *store.Txn {
	tx := r.Begin()
	store.AWSetAt(tx, KeyPlayers).Add(p, "profile:"+p)
	tx.Commit()
	return tx
}

// AddTournament creates a tournament.
func (a *App) AddTournament(r runtime.Replica, t string) *store.Txn {
	tx := r.Begin()
	store.AWSetAt(tx, KeyTournaments).Add(t, "info:"+t)
	tx.Commit()
	return tx
}

// RemTournament deletes a tournament. Its precondition — the paper's
// model has every operation verify its preconditions against the origin
// replica's state — is that the tournament is unused: no enrolments, not
// active, not finished. When it does not hold the operation is a no-op
// (the returned transaction carries no updates). Invariant violations can
// then only arise from concurrent operations at other replicas, which is
// exactly what the IPA patches address. (The IPA resolution chosen for
// this application lets the restoring operations win, so rem_tourn itself
// gains no extra effects — paper Fig. 3.)
func (a *App) RemTournament(r runtime.Replica, t string) *store.Txn {
	tx := r.Begin()
	enrolled := store.AWSetAt(tx, KeyEnrolled)
	if len(enrolled.ElemsWhere(crdt.MatchPattern("", t))) == 0 {
		// Cascade: clear the state flags (setting them false can never
		// violate an invariant), then drop the tournament.
		if store.RWSetAt(tx, KeyActive).Contains(t) {
			store.RWSetAt(tx, KeyActive).Remove(t)
		}
		if store.AWSetAt(tx, KeyFinished).Contains(t) {
			store.AWSetAt(tx, KeyFinished).Remove(t)
		}
		store.AWSetAt(tx, KeyTournaments).Remove(t)
	}
	tx.Commit()
	return tx
}

// RemPlayer deletes a player, provided the player has no enrolments.
func (a *App) RemPlayer(r runtime.Replica, p string) *store.Txn {
	tx := r.Begin()
	if len(store.AWSetAt(tx, KeyEnrolled).ElemsWhere(crdt.MatchPattern(p, ""))) == 0 {
		store.AWSetAt(tx, KeyPlayers).Remove(p)
	}
	tx.Commit()
	return tx
}

// ensureEnroll is the paper's Fig. 3 helper: restore the player and the
// tournament so the enrolment's preconditions hold at every replica.
func ensureEnroll(tx *store.Txn, p, t string) {
	store.AWSetAt(tx, KeyTournaments).Touch(t)
	store.AWSetAt(tx, KeyPlayers).Touch(p)
}

// Enroll enrolls player p in tournament t; both must exist at the origin.
func (a *App) Enroll(r runtime.Replica, p, t string) *store.Txn {
	tx := r.Begin()
	if store.AWSetAt(tx, KeyPlayers).Contains(p) && store.AWSetAt(tx, KeyTournaments).Contains(t) {
		store.AWSetAt(tx, KeyEnrolled).Add(crdt.JoinTuple(p, t), "")
		if a.variant == IPA {
			ensureEnroll(tx, p, t)
		}
	}
	tx.Commit()
	return tx
}

// Disenroll removes player p from tournament t.
func (a *App) Disenroll(r runtime.Replica, p, t string) *store.Txn {
	tx := r.Begin()
	store.AWSetAt(tx, KeyEnrolled).Remove(crdt.JoinTuple(p, t))
	if a.variant == IPA {
		// A concurrent do_match must lose: matches of (p, t) are wiped
		// with rem-wins semantics (the analysis' inMatch rem-wins rule),
		// one wipe per side p can play on.
		matches := store.RWSetAt(tx, KeyMatches)
		matches.RemoveWhere(crdt.MatchPattern(p, "", t))
		matches.RemoveWhere(crdt.MatchPattern("", p, t))
	}
	tx.Commit()
	return tx
}

// Begin starts a tournament (paper Fig. 3 ensureBegin). Preconditions:
// the tournament exists and is not finished.
func (a *App) Begin(r runtime.Replica, t string) *store.Txn {
	tx := r.Begin()
	if store.AWSetAt(tx, KeyTournaments).Contains(t) && !store.AWSetAt(tx, KeyFinished).Contains(t) {
		store.RWSetAt(tx, KeyActive).Add(t, "")
		if a.variant == IPA {
			store.AWSetAt(tx, KeyTournaments).Touch(t)
		}
	}
	tx.Commit()
	return tx
}

// Finish ends a tournament (paper Fig. 3 ensureEnd): the rem-wins removal
// from the active set makes finish win over a concurrent begin.
// Precondition: the tournament exists and is active.
func (a *App) Finish(r runtime.Replica, t string) *store.Txn {
	tx := r.Begin()
	if store.AWSetAt(tx, KeyTournaments).Contains(t) && store.RWSetAt(tx, KeyActive).Contains(t) {
		store.AWSetAt(tx, KeyFinished).Add(t, "")
		store.RWSetAt(tx, KeyActive).Remove(t)
		if a.variant == IPA {
			store.AWSetAt(tx, KeyTournaments).Touch(t)
		}
	}
	tx.Commit()
	return tx
}

// DoMatch records a match between players p and q in tournament t.
// Preconditions: both players enrolled, tournament active or finished.
func (a *App) DoMatch(r runtime.Replica, p, q, t string) *store.Txn {
	tx := r.Begin()
	enrolled := store.AWSetAt(tx, KeyEnrolled)
	stateOK := store.RWSetAt(tx, KeyActive).Contains(t) || store.AWSetAt(tx, KeyFinished).Contains(t)
	if enrolled.Contains(crdt.JoinTuple(p, t)) && enrolled.Contains(crdt.JoinTuple(q, t)) && stateOK {
		store.RWSetAt(tx, KeyMatches).Add(crdt.JoinTuple(p, q, t), "")
		if a.variant == IPA {
			ensureEnroll(tx, p, t)
			ensureEnroll(tx, q, t)
			store.AWSetAt(tx, KeyEnrolled).Add(crdt.JoinTuple(p, t), "")
			store.AWSetAt(tx, KeyEnrolled).Add(crdt.JoinTuple(q, t), "")
		}
	}
	tx.Commit()
	return tx
}

// Roster returns the players currently enrolled in tournament t at
// replica r.
func (a *App) Roster(r runtime.Replica, t string) []string {
	tx := r.Begin()
	defer tx.Commit()
	pairs := store.AWSetAt(tx, KeyEnrolled).ElemsWhere(crdt.MatchPattern("", t))
	out := make([]string, 0, len(pairs))
	for _, pr := range pairs {
		out = append(out, crdt.SplitTuple(pr)[0])
	}
	return out
}

// Status reads a tournament's state (the workload's read operation).
type Status struct {
	Exists   bool
	Active   bool
	Finished bool
	Enrolled []string
}

// ReadStatus returns the tournament's current state at replica r.
func (a *App) ReadStatus(r runtime.Replica, t string) (Status, *store.Txn) {
	tx := r.Begin()
	st := Status{
		Exists:   store.AWSetAt(tx, KeyTournaments).Contains(t),
		Active:   store.RWSetAt(tx, KeyActive).Contains(t),
		Finished: store.AWSetAt(tx, KeyFinished).Contains(t),
		Enrolled: store.AWSetAt(tx, KeyEnrolled).ElemsWhere(crdt.MatchPattern("", t)),
	}
	tx.Commit()
	return st, tx
}

// Violations counts invariant violations in replica r's current state —
// the oracle the evaluation uses to show Causal breaking invariants while
// IPA preserves them.
func (a *App) Violations(r runtime.Replica, capacity int) []string {
	tx := r.Begin()
	defer tx.Commit()
	players := store.AWSetAt(tx, KeyPlayers)
	tournaments := store.AWSetAt(tx, KeyTournaments)
	enrolled := store.AWSetAt(tx, KeyEnrolled)
	active := store.RWSetAt(tx, KeyActive)
	finished := store.AWSetAt(tx, KeyFinished)
	matches := store.RWSetAt(tx, KeyMatches)

	var out []string
	perTournament := map[string]int{}
	for _, e := range enrolled.Elems() {
		parts := crdt.SplitTuple(e)
		p, t := parts[0], parts[1]
		if !players.Contains(p) {
			out = append(out, fmt.Sprintf("enrolled(%s,%s) but player %s missing", p, t, p))
		}
		if !tournaments.Contains(t) {
			out = append(out, fmt.Sprintf("enrolled(%s,%s) but tournament %s missing", p, t, t))
		}
		perTournament[t]++
	}
	for t, n := range perTournament {
		if n > capacity {
			out = append(out, fmt.Sprintf("tournament %s over capacity: %d > %d", t, n, capacity))
		}
	}
	for _, m := range matches.Elems() {
		parts := crdt.SplitTuple(m)
		p, q, t := parts[0], parts[1], parts[2]
		if !enrolled.Contains(crdt.JoinTuple(p, t)) || !enrolled.Contains(crdt.JoinTuple(q, t)) {
			out = append(out, fmt.Sprintf("match(%s,%s,%s) with unenrolled player", p, q, t))
		}
		if !active.Contains(t) && !finished.Contains(t) {
			out = append(out, fmt.Sprintf("match(%s,%s,%s) in inactive tournament", p, q, t))
		}
	}
	for _, t := range active.Elems() {
		if !tournaments.Contains(t) {
			out = append(out, fmt.Sprintf("active tournament %s missing", t))
		}
		if finished.Contains(t) {
			out = append(out, fmt.Sprintf("tournament %s both active and finished", t))
		}
	}
	for _, t := range finished.Elems() {
		if !tournaments.Contains(t) {
			out = append(out, fmt.Sprintf("finished tournament %s missing", t))
		}
	}
	return out
}
