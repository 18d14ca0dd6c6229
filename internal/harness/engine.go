package harness

import (
	"fmt"
	"strings"

	"ipa/internal/runtime"
	"ipa/internal/wan"
)

// Violation is one detected invariant (or convergence) failure.
type Violation struct {
	// At is the virtual time of detection.
	At wan.Time `json:"at"`
	// Phase is "mid-flight" or "quiescence".
	Phase string `json:"phase"`
	// Site names the replica whose state failed the check ("*" for
	// cross-replica convergence failures).
	Site string `json:"site"`
	// Check is the failed checker: "invariant" or "convergence".
	Check string `json:"check"`
	// Msgs are the individual violation descriptions.
	Msgs []string `json:"msgs"`
}

func (v *Violation) String() string {
	return fmt.Sprintf("[%s @%.1fms site=%s %s] %s",
		v.Phase, v.At.Millis(), v.Site, v.Check, strings.Join(v.Msgs, "; "))
}

// Equal reports whether two violations are the same failure.
func (v *Violation) Equal(o *Violation) bool {
	if v == nil || o == nil {
		return v == o
	}
	if v.At != o.At || v.Phase != o.Phase || v.Site != o.Site || v.Check != o.Check || len(v.Msgs) != len(o.Msgs) {
		return false
	}
	for i := range v.Msgs {
		if v.Msgs[i] != o.Msgs[i] {
			return false
		}
	}
	return true
}

// midChecks is how many evenly spaced mid-flight check points (and
// stability runs) one schedule gets.
const midChecks = 16

// step is one entry of a schedule's timeline. run returns the violation
// a check point found, nil otherwise.
type step struct {
	at wan.Time
	// lifecycle marks a crash or join fault's step; netrepl quiesces its
	// client pool around it.
	lifecycle bool
	run       func() *Violation
}

// timeline lists a schedule's steps in one order for both executors: the
// ops (each dropped if its site is paused — the site's clients are down
// with it), each fault's inject at At and heal at At+Dur, then the
// midChecks check points — a stability round unless a stall is live
// (compaction falls behind, the checks never do), then MidCheck at every
// live site. The sim registers the steps with Sim.At in list order, so
// its FIFO tie-break runs steps at equal instants in list order; netrepl
// stable-sorts the list and sleeps between steps. dispatch executes one
// op.
func timeline(s *Schedule, ctx *Ctx, app App, dispatch func(Op)) []step {
	steps := make([]step, 0, len(s.Ops)+2*len(s.Faults)+midChecks)
	for _, op := range s.Ops {
		steps = append(steps, step{at: op.At, run: func() *Violation {
			if !ctx.Paused(op.Site) {
				dispatch(op)
			}
			return nil
		}})
	}
	for _, f := range s.Faults {
		life := f.Kind == FaultCrash || f.Kind == FaultJoin
		steps = append(steps,
			step{f.At, life, func() *Violation { ctx.inject(f); return nil }},
			step{f.At + f.Dur, life, func() *Violation { ctx.heal(f); return nil }})
	}
	stride := max(s.Cfg.Horizon/midChecks, 1)
	for t := stride; t <= s.Cfg.Horizon; t += stride {
		steps = append(steps, step{at: t, run: func() *Violation {
			if ctx.stalls == 0 {
				ctx.Cluster.Stabilize()
			}
			for site := range ctx.Sites {
				if ctx.Crashed(site) {
					continue // the site is down; nothing to read
				}
				if msgs := app.MidCheck(ctx, site); len(msgs) > 0 {
					return &Violation{At: t, Phase: "mid-flight",
						Site: string(ctx.Sites[site]), Check: "invariant", Msgs: msgs}
				}
			}
			return nil
		}})
	}
	return steps
}

// Execute runs one schedule to completion and returns the first detected
// violation, or nil for a clean pass.
//
// On the sim backend (the default) execution is deterministic in the
// schedule alone: the simulation's PRNG is seeded from Schedule.Seed, so
// the same schedule value always yields the same result — this is what
// makes seed replay and shrinking sound. On the netrepl backend the same
// schedule drives real sockets and goroutines (see executeNet): workload
// and fault windows replay exactly, thread interleavings do not.
func Execute(s *Schedule) (*Violation, error) {
	_, v, err := ExecuteDigest(s)
	return v, err
}

// ExecuteDigest is Execute plus the application's site-0 state digest at
// clean quiescence (empty when the schedule violated). Executors that
// must agree state-for-state — the hand-coded tournament and the
// spec-driven engine, or the same app on two backends — run the same
// schedule through ExecuteDigest and compare digests.
func ExecuteDigest(s *Schedule) (string, *Violation, error) {
	if s.Cfg.Backend == runtime.BackendNet {
		return executeNet(s)
	}
	return executeSim(s)
}

// executeSim runs one schedule inside the discrete-event simulation.
func executeSim(s *Schedule) (string, *Violation, error) {
	app, err := newApp(s.Cfg)
	if err != nil {
		return "", nil, err
	}
	return runSim(s, app)
}

// runSim runs one schedule against an already built adapter.
func runSim(s *Schedule, app App) (string, *Violation, error) {
	ctx := newCtx(s)

	// Seed state and let it replicate everywhere before chaos starts.
	app.Setup(ctx)
	ctx.Sim.Run()

	// Steps past the first violation are skipped; heals scheduled past
	// the horizon run when Quiesce drains the event loop.
	var found *Violation
	for _, st := range timeline(s, ctx, app, func(op Op) { app.Apply(ctx, op) }) {
		ctx.Sim.At(st.at, func() {
			if found == nil {
				found = st.run()
			}
		})
	}

	ctx.Sim.RunUntil(s.Cfg.Horizon)
	return finish(ctx, app, found)
}

// finish ends a schedule run for both executors: the mid-flight
// violation if the timeline found one, else Quiesce's verdict, else the
// site-0 digest.
func finish(ctx *Ctx, app App, found *Violation) (string, *Violation, error) {
	if found != nil {
		return "", found, nil
	}
	if v, err := Quiesce(ctx, app); v != nil || err != nil {
		return "", v, err
	}
	return app.Digest(ctx, 0), nil, nil
}

// Quiesce drives a run's end-of-schedule protocol, shared by both
// backend executors and the cross-backend equivalence runner: heal every
// live fault, drain replication (the sim runs its event loop dry, netrepl
// waits for convergence), run the applications' compensating reads
// everywhere (twice — the first round's repairs replicate and may feed
// the second), take a stability pass, then assert the application's
// invariants and cross-replica digest convergence at every site. It
// returns the first violation, or nil for a clean quiescent state.
func Quiesce(ctx *Ctx, app App) (*Violation, error) {
	ctx.healAll()
	// A failed Recover or Join is a harness/backend bug, not an
	// application finding — surface it as a run error before the settle
	// phase times out cryptically on the half-dead mesh it left behind.
	if err := ctx.LifecycleErr(); err != nil {
		return nil, err
	}
	if err := ctx.Cluster.Settle(); err != nil {
		return nil, err
	}
	for round := 0; round < 2; round++ {
		for site := range ctx.Sites {
			app.Repair(ctx, site)
		}
		if err := ctx.Cluster.Settle(); err != nil {
			return nil, err
		}
	}
	ctx.Cluster.Stabilize()

	// Violations report virtual time on the sim backend; on netrepl the
	// run's horizon is the only meaningful schedule-relative timestamp.
	at := ctx.Cfg.Horizon
	if ctx.Sim != nil {
		at = ctx.Sim.Now()
	}
	for site := range ctx.Sites {
		if msgs := app.FinalCheck(ctx, site); len(msgs) > 0 {
			return &Violation{At: at, Phase: "quiescence",
				Site: string(ctx.Sites[site]), Check: "invariant", Msgs: msgs}, nil
		}
	}

	// Convergence: every replica must digest the same visible state.
	base := app.Digest(ctx, 0)
	for site := 1; site < len(ctx.Sites); site++ {
		if d := app.Digest(ctx, site); d != base {
			return &Violation{At: at, Phase: "quiescence",
				Site: "*", Check: "convergence",
				Msgs: []string{fmt.Sprintf("replica %s diverged from %s:\n  %s\n  vs\n  %s",
					ctx.Sites[site], ctx.Sites[0], d, base)}}, nil
		}
	}
	return nil, nil
}
