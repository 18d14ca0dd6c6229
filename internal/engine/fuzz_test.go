package engine

import (
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/clock"
	"ipa/internal/logic"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// FuzzMount is the engine round-trip fuzz: any input the spec parser
// accepts must analyze (on a tiny scope, for small specs) and mount
// without panicking, and a mounted app must survive a burst of calls,
// checks, repairs, and digests on a live cluster. The corpus seeds are
// real application specs plus shapes that stress the effect grammar.
func FuzzMount(f *testing.F) {
	f.Add(escrowSpec)
	f.Add(`
spec mini

invariant forall (A: x) :- q(x) => p(x)

operation mk(A: x) {
    p(x) := true
}
operation link(A: x) {
    requires p(x)
    q(x) := true
}
operation rm(A: x) {
    p(x) := false
}
`)
	f.Add("spec s\nrule w rem-wins\noperation f(A: x) {\n w(x, *) := false\n}")
	f.Add("spec s\nconst K = 2\ninvariant forall (A: x) :- #p(*) <= K\noperation f(A: x) {\n p(x) := true\n}")
	f.Add("spec s\noperation f(A: x) {\n n(x) += 3\n n(x) -= 1\n}")
	f.Add("spec s\noperation zero() {\n flag := true\n}")

	f.Fuzz(func(t *testing.T, src string) {
		s, err := spec.Parse(src)
		if err != nil {
			return
		}
		// The analysis is exponential in scope and operation count; fuzz
		// it only on small specs, with the smallest useful options.
		res := &analysis.Result{Spec: s}
		if len(src) <= 400 && len(s.Operations) <= 3 && len(logic.Clauses(s.Invariant())) <= 3 {
			if full, err := analysis.Run(s, analysis.Options{Scope: 2, MaxRepairPreds: 1, MaxIters: 4}); err == nil {
				res = full
			}
		}
		app, err := Mount(nil, res, nil)
		if err != nil {
			return
		}
		sim := wan.NewSim(1)
		cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(),
			[]clock.ReplicaID{"a", "b"}))
		ra, rb := cluster.Replica("a"), cluster.Replica("b")
		args := []string{"x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"}
		for _, name := range app.Operations() {
			op, _ := app.Spec().Operation(name)
			if len(op.Params) > len(args) {
				continue
			}
			// Errors (preconditions, unsupported shapes) are fine; panics
			// are not.
			_ = app.Call(ra, name, args[:len(op.Params)]...)
			_ = app.Call(rb, name, args[:len(op.Params)]...)
		}
		sim.Run()
		for _, r := range []runtime.Replica{ra, rb} {
			_ = app.CheckInvariants(r)
			app.Repair(r)
		}
		sim.Run()
		if app.Digest(ra) != app.Digest(rb) {
			t.Fatalf("digests diverged after settle:\n%s\nvs\n%s", app.Digest(ra), app.Digest(rb))
		}
	})
}
