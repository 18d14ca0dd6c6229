package engine

import (
	"errors"
	"reflect"
	"testing"

	"ipa/internal/analysis"
	"ipa/internal/clock"
	"ipa/internal/logic"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

// FuzzCompiledVsInterpreted is the differential executor fuzz: the same
// spec mounted twice — once on the compiled per-operation plans, once on
// the whole-state reference interpreter — must behave identically on any
// call sequence. Identical means call-by-call equal outcomes (success or
// failure, ErrPrecondition-ness, and the error message, since refusal
// errors are deterministic) and equal digests on every replica after the
// sequence settles — and equal CHECK verdicts there, the compiled mount
// checking by join and the interpreter by evaluating each clause as
// written. This is the executable form of the compilation pass's
// correctness argument; a mismatch here is a compiler bug even when
// every invariant still holds.
func FuzzCompiledVsInterpreted(f *testing.F) {
	f.Add(escrowSpec, []byte{0, 1, 2, 3, 250, 7, 9})
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
`, []byte{0, 3, 1, 4, 2, 5, 0, 1, 2, 2, 1, 0})
	f.Add("spec s\nrule w rem-wins\noperation f(A: x) {\n w(x, *) := false\n}\noperation g(A: x) {\n w(x, x) := true\n}",
		[]byte{1, 0, 1, 1, 0, 0, 9, 8})
	f.Add("spec s\nconst K = 2\ninvariant forall (A: x) :- #p(*) <= K\noperation f(A: x) {\n p(x) := true\n}",
		[]byte{0, 1, 2, 3, 4, 5})
	f.Add("spec s\noperation f(A: x) {\n n(x) += 3\n n(x) -= 1\n}", []byte{0, 0, 1})
	// Join shapes (see joinShapes): every variable of a guard clause the
	// change leaves unbound is bound by a generator or, failing one, by
	// its sort's domain.
	for _, shape := range joinShapes {
		if shape.seq != nil {
			f.Add(shape.src, shape.seq)
		}
	}

	f.Fuzz(func(t *testing.T, src string, seq []byte) {
		s, err := spec.Parse(src)
		if err != nil {
			return
		}
		// The analysis is exponential in scope and operation count; run it
		// only for small specs (mirrors FuzzMount). The differential check
		// matters most WITH analysis output: patches, ensures, and
		// cascades are what the compiled plans must reproduce.
		res := &analysis.Result{Spec: s}
		if len(src) <= 400 && len(s.Operations) <= 3 && len(logic.Clauses(s.Invariant())) <= 3 {
			if full, err := analysis.Run(s, analysis.Options{Scope: 2, MaxRepairPreds: 1, MaxIters: 4}); err == nil {
				res = full
			}
		}
		mount := func(opts ...MountOption) (*App, *wan.Sim, []runtime.Replica, error) {
			sim := wan.NewSim(1)
			cluster := runtime.NewSimCluster(store.NewCluster(sim, wan.PaperTopology(),
				[]clock.ReplicaID{"a", "b"}))
			app, err := Mount(nil, res, cluster, opts...)
			if err != nil {
				return nil, nil, nil, err
			}
			return app, sim, []runtime.Replica{cluster.Replica("a"), cluster.Replica("b")}, nil
		}
		compiled, csim, creps, err := mount()
		if err != nil {
			return
		}
		interp, isim, ireps, err := mount(WithInterpreter())
		if err != nil {
			t.Fatalf("interpreter mount failed where compiled mount succeeded: %v", err)
		}

		// Drive both executors through the same byte-derived call sequence.
		opNames := compiled.Operations()
		args := []string{"x0", "x1", "x2", "x3"}
		for i := 0; i+1 < len(seq) && i < 64; i += 2 {
			name := opNames[int(seq[i])%len(opNames)]
			op, _ := compiled.Spec().Operation(name)
			if len(op.Params) > len(args) {
				continue
			}
			site := int(seq[i+1]) % 2
			callArgs := make([]string, len(op.Params))
			for j := range callArgs {
				callArgs[j] = args[(int(seq[i+1])+j)%len(args)]
			}
			cerr := compiled.Call(creps[site], name, callArgs...)
			ierr := interp.Call(ireps[site], name, callArgs...)
			if (cerr == nil) != (ierr == nil) ||
				errors.Is(cerr, ErrPrecondition) != errors.Is(ierr, ErrPrecondition) {
				t.Fatalf("call %d %s%v diverged: compiled=%v interpreted=%v", i/2, name, callArgs, cerr, ierr)
			}
			if cerr != nil && cerr.Error() != ierr.Error() {
				t.Fatalf("call %d %s%v error text diverged:\ncompiled:    %v\ninterpreted: %v",
					i/2, name, callArgs, cerr, ierr)
			}
			// Interleave replication like the serving loop does, so later
			// calls run against merged states too.
			if seq[i+1]%3 == 0 {
				csim.Run()
				isim.Run()
			}
		}
		csim.Run()
		isim.Run()
		for i := range creps {
			cd, id := compiled.Digest(creps[i]), interp.Digest(ireps[i])
			if cd != id {
				t.Fatalf("replica %d digests diverged after settle:\ncompiled:    %s\ninterpreted: %s", i, cd, id)
			}
			cc, ic := compiled.CheckQuiescent(creps[i]), interp.CheckQuiescent(ireps[i])
			if !reflect.DeepEqual(cc, ic) {
				t.Fatalf("replica %d checks diverged after settle:\nby join:       %q\nby evaluation: %q", i, cc, ic)
			}
		}
	})
}
