package tournament

import (
	"ipa/internal/crdt"
	"ipa/internal/logic"
	"ipa/internal/runtime"
	"ipa/internal/store"
)

// Interp extracts the logical interpretation of a replica's current state
// — the mapping from this package's hand-chosen CRDT layout back to the
// specification's predicates — so the invariants of Spec() can be
// evaluated directly on the running system (engine.EvalClauses), and so
// the hand-coded executor's state can be digest-compared with the
// spec-driven engine's, which extracts the same abstraction from its own
// generic layout. The analysis reasons about exactly this abstraction;
// extracting it at runtime lets tests cross-check the handwritten
// violation oracle against the specification itself.
func Interp(r runtime.Replica, capacity int) logic.Interp {
	tx := r.Begin()
	defer tx.Commit()

	truth := map[string]bool{}
	domain := map[logic.Sort][]string{"Player": {}, "Tournament": {}}
	seenP := map[string]bool{}
	seenT := map[string]bool{}
	addPlayer := func(p string) {
		if !seenP[p] {
			seenP[p] = true
			domain["Player"] = append(domain["Player"], p)
		}
	}
	addTourn := func(t string) {
		if !seenT[t] {
			seenT[t] = true
			domain["Tournament"] = append(domain["Tournament"], t)
		}
	}

	for _, p := range store.AWSetAt(tx, KeyPlayers).Elems() {
		truth[logic.GroundAtom("player", p)] = true
		addPlayer(p)
	}
	for _, t := range store.AWSetAt(tx, KeyTournaments).Elems() {
		truth[logic.GroundAtom("tournament", t)] = true
		addTourn(t)
	}
	for _, e := range store.AWSetAt(tx, KeyEnrolled).Elems() {
		parts := crdt.SplitTuple(e)
		truth[logic.GroundAtom("enrolled", parts[0], parts[1])] = true
		addPlayer(parts[0])
		addTourn(parts[1])
	}
	for _, t := range store.RWSetAt(tx, KeyActive).Elems() {
		truth[logic.GroundAtom("active", t)] = true
		addTourn(t)
	}
	for _, t := range store.AWSetAt(tx, KeyFinished).Elems() {
		truth[logic.GroundAtom("finished", t)] = true
		addTourn(t)
	}
	for _, m := range store.RWSetAt(tx, KeyMatches).Elems() {
		parts := crdt.SplitTuple(m)
		truth[logic.GroundAtom("inMatch", parts[0], parts[1], parts[2])] = true
		addPlayer(parts[0])
		addPlayer(parts[1])
		addTourn(parts[2])
	}

	return logic.Interp{
		Domain: domain,
		Truth:  truth,
		Consts: map[string]int{"Capacity": capacity},
	}
}
