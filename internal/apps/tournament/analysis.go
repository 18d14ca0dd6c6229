package tournament

import (
	"sync"

	"ipa/internal/analysis"
	"ipa/internal/logic"
	"ipa/internal/spec"
)

// Analysis runs the full IPA loop on the tournament specification with
// the paper's Fig. 3 repair choices and caches the result (the output is
// immutable, and every mount from it would otherwise pay the search
// again). Its spec is checked in as tournament.patched.spec, which
// `ipa serve -app tournament` mounts. The analysis proposes
// several valid resolutions per conflict and the paper's pickResolution
// hook is the programmer — this function
// records the programmer decision the hand-coded IPA variant implements:
// for disenroll ∥ do_match the *disenroll wins* repair (wipe the player's
// matches in the tournament with rem-wins semantics, Fig. 3's
// ensureDisenroll) rather than the default smallest repair (do_match wins
// by re-asserting the enrolments). Every other conflict takes the default
// minimal repair, which already matches Fig. 3.
func Analysis() *analysis.Result {
	analysisOnce.Do(func() {
		res, err := analysis.Run(Spec(), analysis.Options{Chooser: fig3Chooser})
		if err != nil {
			panic("tournament: analysis failed: " + err.Error())
		}
		analysisRes = res
	})
	return analysisRes
}

var (
	analysisOnce sync.Once
	analysisRes  *analysis.Result
)

// fig3Chooser picks, for the disenroll ∥ do_match conflict, the repair
// that adds the two one-wildcard match wipes to disenroll.
func fig3Chooser(c *analysis.Conflict, reps []analysis.Repair) int {
	names := map[string]bool{c.Op1.Name: true, c.Op2.Name: true}
	if !names["disenroll"] || !names["do_match"] {
		return 0
	}
	for i, r := range reps {
		if r.Target != "disenroll" || len(r.Extra) != 2 {
			continue
		}
		ok := true
		for _, e := range r.Extra {
			wilds := 0
			for _, t := range e.Args {
				if t.Kind == logic.TermWildcard {
					wilds++
				}
			}
			if e.Kind != spec.BoolAssign || e.Val || e.Pred != "inMatch" || wilds != 1 {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return 0
}
