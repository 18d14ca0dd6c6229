package engine

import (
	"slices"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/logic"
	"ipa/internal/spec"
)

// ensureKeys renders an operation's ensure touches, in closure order.
func ensureKeys(co *compiledOp) []string {
	var out []string
	for _, e := range co.ensures {
		out = append(out, termsKey(e.pred, e.terms))
	}
	return out
}

// TestEnsureClosuresOfBundledApps pins every bundled operation's ensure
// touches. Touches of predicates nothing can falsify are gone: tournament
// has no rem_player, so enroll and do_match no longer touch player;
// twitter's retweet no longer touches author, nor ticket's buy event.
func TestEnsureClosuresOfBundledApps(t *testing.T) {
	want := map[string]map[string][]string{
		"tournament": {"do_match": {"enrolled(p,t)", "enrolled(q,t)", "tournament(t)"}},
		"ticket":     {},
		"twitter": {
			"follow":  {"user(a)", "user(b)"},
			"retweet": {"tweet(w)", "user(u)"},
			"tweet":   {"user(u)"},
		},
		"tpcw": {},
	}
	specs, err := bundledSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		app, err := Mount(nil, s.res, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range app.opNames {
			if got, w := ensureKeys(app.ops[name]), want[s.name][name]; !slices.Equal(got, w) {
				t.Errorf("%s.%s ensures %v, want %v", s.name, name, got, w)
			}
		}
	}
}

// TestEnsuresTouchWhatOnlyRepairsFalsify mounts specs in which no
// operation's own effect removes y: a cascade does (rem_x retracts x,
// and y(a) => x(a) cascades the retraction to y), or the read-time
// trim of a count bound on y does. Both make y falsifiable, so add_z,
// whose z(a) needs y(a), must keep touching y(a).
func TestEnsuresTouchWhatOnlyRepairsFalsify(t *testing.T) {
	const cascade = `spec cascade
invariant forall (A: a) :- z(a) => y(a)
invariant forall (A: a) :- y(a) => x(a)
operation add_x(A: a) {
    x(a) := true
}
operation rem_x(A: a) {
    x(a) := false
}
operation add_y(A: a) {
    y(a) := true
}
operation add_z(A: a) {
    z(a) := true
}
`
	const trim = `spec trim
const Cap = 2
invariant forall (A: a) :- z(a) => y(a)
invariant #y(*) <= Cap
operation add_y(A: a) {
    y(a) := true
}
operation add_z(A: a) {
    z(a) := true
}
`
	for _, c := range []struct {
		name, text string
		trim       bool
		want       []string
	}{
		{"cascade", cascade, false, []string{"y(a)", "x(a)"}},
		{"trim", trim, true, []string{"y(a)"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := spec.Parse(c.text)
			if err != nil {
				t.Fatal(err)
			}
			res := &analysis.Result{Spec: s}
			if c.trim {
				for _, cl := range logic.Clauses(s.Invariant()) {
					if logic.HasCount(cl) {
						res.Compensations = append(res.Compensations,
							analysis.Compensation{Kind: analysis.TrimExcess, Clause: cl, Pred: "y"})
					}
				}
			}
			app, err := Mount(nil, res, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := ensureKeys(app.ops["add_z"]); !slices.Equal(got, c.want) {
				t.Errorf("add_z ensures %v, want %v", got, c.want)
			}
		})
	}
}
