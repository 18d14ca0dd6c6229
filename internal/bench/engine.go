package bench

// The engine benchmark: wall-clock throughput of the spec-driven engine's
// two executors — the mount-time compiled per-operation plans and the
// whole-state reference interpreter — over every application
// specification in the repository. The number CI tracks is the
// compiled/interpreted speed-up per spec: a ratio is stable across
// machine generations where absolute ops/sec are not, so the committed
// baseline gates regressions of the compilation pass itself rather than
// runner hardware.

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ipa/internal/analysis"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/tpcw"
	"ipa/internal/apps/twitter"
	"ipa/internal/engine"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/wan"
)

// engineSpecs lists the measured specifications with their analyses (the
// same analysis feeds both executors, so the comparison isolates plan
// execution).
func engineSpecs() ([]struct {
	name string
	spec *spec.Spec
	res  *analysis.Result
}, error) {
	type entry = struct {
		name string
		spec *spec.Spec
		res  *analysis.Result
	}
	ticketRes, err := analysis.Run(ticket.Spec(), analysis.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: analyze ticket: %w", err)
	}
	tpcwRes, err := analysis.Run(tpcw.Spec(), analysis.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: analyze tpcw: %w", err)
	}
	return []entry{
		{"tournament", tournament.Spec(), tournament.Analysis()},
		{"ticket", ticket.Spec(), ticketRes},
		{"twitter", twitter.Spec(), twitter.Analysis()},
		{"tpcw", tpcw.Spec(), tpcwRes},
	}, nil
}

// engineGen draws uniformly over the spec's operations with arguments
// from small per-sort pools (the chaos harness's generic generator):
// tiny domains keep the footprints colliding, so the measured loop
// exercises guards and repairs, not just empty-state fast paths.
func engineGen(app *engine.App) func(rng *rand.Rand) (string, []string) {
	ops := app.Operations()
	pools := map[string][]string{}
	poolFor := func(srt string) []string {
		if p, ok := pools[srt]; ok {
			return p
		}
		base := strings.ToLower(srt)
		p := []string{base + "0", base + "1", base + "2"}
		pools[srt] = p
		return p
	}
	return func(rng *rand.Rand) (string, []string) {
		s := app.Spec()
		name := ops[rng.Intn(len(ops))]
		op, _ := s.Operation(name)
		args := make([]string, len(op.Params))
		for i, p := range op.Params {
			pool := poolFor(string(p.Sort))
			args[i] = pool[rng.Intn(len(pool))]
		}
		return name, args
	}
}

// stabilizeEvery is the measured loops' stability cadence, in operations:
// like a deployed stability service, the loop runs the stability protocol
// periodically so remove-wins tombstones and dead add records are
// compacted while traffic flows. Without it metadata grows with run
// length and every membership check slows down — the loop would time
// metadata accumulation, not execution.
const stabilizeEvery = 64

// engineRun measures one executor on one spec: a closed loop over a
// fresh 3-site simulated deployment, round-robining the sites, draining
// replication after each op and stabilizing every stabilizeEvery
// operations. Refused preconditions count as served operations —
// both executors evaluate the same guards on the same states, so
// refusals load the comparison equally.
func engineRun(sp *spec.Spec, res *analysis.Result, interpreted bool, ops int, seed int64) (*Recorder, float64, error) {
	var mountOpts []engine.MountOption
	if interpreted {
		mountOpts = append(mountOpts, engine.WithInterpreter())
	}
	app, err := engine.Mount(sp, res, nil, mountOpts...)
	if err != nil {
		return nil, 0, err
	}
	sim, sc, _ := NewPaperCluster(seed)
	cluster := runtime.NewSimCluster(sc)
	sites := cluster.Replicas()
	gen := engineGen(app)
	rng := rand.New(rand.NewSource(seed))

	call := func(i int) error {
		name, args := gen(rng)
		err := app.Call(cluster.Replica(sites[i%len(sites)]), name, args...)
		if err != nil && !errors.Is(err, engine.ErrPrecondition) {
			return fmt.Errorf("bench: engine %s %s(%v): %w", sp.Name, name, args, err)
		}
		sim.Run()
		if (i+1)%stabilizeEvery == 0 {
			cluster.Stabilize()
		}
		return nil
	}

	// Warm-up populates the tiny domains (early ops mostly refuse into an
	// empty state) and takes the one-time mount/caching costs out of the
	// measured window.
	for i := 0; i < ops/10+50; i++ {
		if err := call(i); err != nil {
			return nil, 0, err
		}
	}

	rec := NewRecorder()
	start := time.Now()
	for i := 0; i < ops; i++ {
		t0 := time.Now()
		if err := call(i); err != nil {
			return nil, 0, err
		}
		rec.Add("", wan.Time(time.Since(t0).Microseconds()))
	}
	elapsed := time.Since(start)
	return rec, float64(ops) / elapsed.Seconds(), nil
}

// EngineExecutors measures compiled vs interpreted executor throughput
// for every spec and reports the speed-up ratio CI gates on.
func EngineExecutors(opts ExpOptions) (*Experiment, error) {
	// Even the quick loops must run long enough for the ratio to be a
	// measurement and not scheduler noise — at ~50k ops/sec a short
	// window times a few GC pauses, and the gate would flake.
	ops := 60000
	if opts.Duration < 10*wan.Second { // quick parameters
		ops = 20000
	}
	specs, err := engineSpecs()
	if err != nil {
		return nil, err
	}
	e := &Experiment{
		ID:     "engine",
		Title:  "Spec engine: compiled plans vs reference interpreter (ops/sec per spec)",
		XLabel: "spec",
		YLabel: "ops/sec",
		Perf:   map[string]Perf{},
	}
	compiled := Series{Name: "compiled"}
	interp := Series{Name: "interpreted"}
	speedup := Series{Name: "speedup"}
	// Best of two rounds per executor: the gate tracks a ratio of two
	// closed loops, so scheduler and GC noise on either side shows up as
	// a spurious regression; the max is the less noisy estimator of the
	// undisturbed rate.
	best := func(sp *spec.Spec, res *analysis.Result, interpreted bool) (*Recorder, float64, error) {
		var bestRec *Recorder
		bestOps := 0.0
		for round := 0; round < 2; round++ {
			rec, rate, err := engineRun(sp, res, interpreted, ops, opts.Seed+int64(round))
			if err != nil {
				return nil, 0, err
			}
			if rate > bestOps {
				bestRec, bestOps = rec, rate
			}
		}
		return bestRec, bestOps, nil
	}
	for i, s := range specs {
		e.XTicks = append(e.XTicks, s.name)
		recC, opsC, err := best(s.spec, s.res, false)
		if err != nil {
			return nil, err
		}
		recI, opsI, err := best(s.spec, s.res, true)
		if err != nil {
			return nil, err
		}
		e.Perf[s.name+"/compiled"] = Perf{
			OpsPerSec: opsC,
			P50Ms:     recC.Percentile("", 50),
			P95Ms:     recC.Percentile("", 95),
			P99Ms:     recC.Percentile("", 99),
		}
		e.Perf[s.name+"/interpreted"] = Perf{
			OpsPerSec: opsI,
			P50Ms:     recI.Percentile("", 50),
			P95Ms:     recI.Percentile("", 95),
			P99Ms:     recI.Percentile("", 99),
		}
		compiled.Points = append(compiled.Points, Point{X: float64(i), Y: opsC})
		interp.Points = append(interp.Points, Point{X: float64(i), Y: opsI})
		speedup.Points = append(speedup.Points, Point{X: float64(i), Y: opsC / opsI})
	}
	e.Series = append(e.Series, compiled, interp, speedup)
	e.Notes = append(e.Notes,
		fmt.Sprintf("%d measured ops per executor after warm-up, closed loop on a fresh 3-site sim,", ops),
		"generic workload over tiny argument pools (guards and repairs constantly firing);",
		"the speedup series (compiled/interpreted) is what the CI baseline gate tracks.")
	return e, nil
}
