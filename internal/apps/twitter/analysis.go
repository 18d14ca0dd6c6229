package twitter

import (
	"sync"

	"ipa/internal/analysis"
	"ipa/internal/logic"
	"ipa/internal/spec"
)

// Analysis runs the full IPA loop on the Twitter specification with the
// paper's Fig. 6 rem-wins repair choices and caches the result (the
// output is immutable, and every mount from it would otherwise pay the
// search again). Its spec is checked in as twitter.patched.spec, which
// `ipa serve -app twitter` mounts. The analysis
// proposes several valid resolutions per conflict and the paper's
// pickResolution hook is the programmer — this function
// records the programmer decision the hand-coded RemWins variant
// implements: deletions win. rem_user purges the removed user's timeline
// and follow edges; del_tweet purges the deleted tweet's timeline entries
// everywhere — both as rem-wins wildcard removals that also defeat
// concurrent inserts. The alternative (add-wins: writers re-assert what
// removals took, the default minimal repair) is what the hand-coded
// AddWins variant implements.
func Analysis() *analysis.Result {
	analysisOnce.Do(func() {
		res, err := analysis.Run(Spec(), analysis.Options{Chooser: remWinsChooser})
		if err != nil {
			panic("twitter: analysis failed: " + err.Error())
		}
		analysisRes = res
	})
	return analysisRes
}

var (
	analysisOnce sync.Once
	analysisRes  *analysis.Result
)

// remWinsChooser picks, for every conflict, the repair that makes the
// deleting operation win by falsifying the dependent atoms (fewest
// wildcards, so rem_user wipes only the removed user's rows). The
// rem_user ∥ follow conflict needs the two-effect pair wipe —
// follows(u, *) and follows(*, u) — because the only single-effect
// falsification on offer is the far-too-wide follows(*, *).
func remWinsChooser(c *analysis.Conflict, reps []analysis.Repair) int {
	names := map[string]bool{c.Op1.Name: true, c.Op2.Name: true}
	if names["rem_user"] && names["follow"] {
		for i, r := range reps {
			if ok, _ := allFalsify(r); ok && r.Target == "rem_user" && len(r.Extra) == 2 {
				return i
			}
		}
		return 0
	}
	best, bestWilds := -1, int(^uint(0)>>1)
	for i, r := range reps {
		if ok, wilds := allFalsify(r); ok && wilds < bestWilds {
			best, bestWilds = i, wilds
		}
	}
	if best < 0 {
		return 0
	}
	return best
}

// allFalsify reports whether every extra effect of the repair is a
// boolean falsification, and how many wildcard arguments they carry.
func allFalsify(r analysis.Repair) (bool, int) {
	if len(r.Extra) == 0 {
		return false, 0
	}
	wilds := 0
	for _, e := range r.Extra {
		if e.Kind != spec.BoolAssign || e.Val {
			return false, 0
		}
		for _, a := range e.Args {
			if a.Kind == logic.TermWildcard {
				wilds++
			}
		}
	}
	return true, wilds
}
