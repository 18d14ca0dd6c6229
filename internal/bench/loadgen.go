package bench

// The loadgen experiment: a coordinated multi-worker sustained-load run
// against one or more `ipa serve` targets, reported with phase windows
// (ramp-up / steady / ramp-down) so only the steady window gates. The
// heavy lifting lives in internal/loadgen; this file adapts a Report
// into the repository's Experiment/BENCH_*.json shape and verifies the
// cluster converged cleanly after the storm.

import (
	"fmt"
	"net"
	"strings"
	"time"

	"ipa/internal/apps/tournament"
	"ipa/internal/clock"
	"ipa/internal/loadgen"
	"ipa/internal/runtime"
	"ipa/internal/server"
	"ipa/internal/wan"
)

// LoadgenOptions shapes one coordinated load run.
type LoadgenOptions struct {
	// Targets are `ipa serve` addresses. Empty: self-host a 3-site
	// netrepl-backed server on loopback for the duration of the run.
	Targets []string
	// WorkerAddrs are `ipabench worker -listen` control addresses. Empty:
	// self-host Workers in-process workers over pipes.
	WorkerAddrs []string
	// Workers is the self-hosted worker count (default 2). Ignored when
	// WorkerAddrs is set.
	Workers int
	// App is the workload (only "tournament" has a mix; default).
	App string
	// Conns is the driving connections per worker (default 2).
	Conns int
	// Pipeline is the closed-loop batch depth per connection (default 8).
	Pipeline int
	// RatePerSec, when positive, switches to open-loop pacing at this
	// fleet-wide offered rate.
	RatePerSec int
	// RampUp, Run, RampDown are the phase windows (defaults 2s/5s/1s).
	RampUp, Run, RampDown time.Duration
	// Seed makes the workload streams reproducible (default 42).
	Seed int64
	// ReportEvery is the worker progress-report period (default 1s).
	ReportEvery time.Duration
	// SkipVerify skips the post-run convergence verification (tests that
	// deliberately leave the cluster partitioned).
	SkipVerify bool
	// OnInterval, when set, receives workers' streamed progress reports.
	OnInterval func(loadgen.Interval)
	// Log receives coordinator progress lines (nil: silent).
	Log func(format string, args ...any)
}

func (o LoadgenOptions) withDefaults() LoadgenOptions {
	if o.App == "" {
		o.App = "tournament"
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Conns <= 0 {
		o.Conns = 2
	}
	if o.Pipeline <= 0 {
		o.Pipeline = 8
	}
	if o.RampUp <= 0 {
		o.RampUp = 2 * time.Second
	}
	if o.Run <= 0 {
		o.Run = 5 * time.Second
	}
	if o.RampDown <= 0 {
		o.RampDown = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.ReportEvery <= 0 {
		o.ReportEvery = time.Second
	}
	return o
}

// Loadgen runs one coordinated load run and wraps the merged report as
// an Experiment (ID "loadgen", artifact BENCH_loadgen.json). The full
// loadgen.Report rides along in Experiment.Load so benchgate can gate
// steady-state throughput, p99 and error rate against the baseline.
func Loadgen(opts LoadgenOptions) (*Experiment, error) {
	opts = opts.withDefaults()
	if opts.App != "tournament" {
		return nil, fmt.Errorf("bench: loadgen only has a workload mix for tournament (got %q)", opts.App)
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	targets := opts.Targets
	if len(targets) == 0 {
		// Self-host: a 3-site netrepl cluster behind one server — the
		// same substrate `ipa serve -backend netrepl` runs, with the
		// shipped transport defaults and only the settle timeout raised
		// for the post-run verification of a long storm.
		ids := make([]clock.ReplicaID, 0, 3)
		for _, s := range wan.Sites() {
			ids = append(ids, clock.ReplicaID(s))
		}
		cluster, err := runtime.NewNetCluster(ids, runtime.NetConfig{SettleTimeout: 60 * time.Second})
		if err != nil {
			return nil, err
		}
		defer cluster.Close()
		srv := server.New(cluster, server.Config{})
		if _, err := srv.MountAnalyzed(tournament.Spec(), tournament.Analysis()); err != nil {
			return nil, err
		}
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
		defer srv.Shutdown()
		targets = []string{srv.Addr()}
		logf("loadgen: self-hosted netrepl server at %s", targets[0])
	}

	var conns []net.Conn
	var stop func()
	if len(opts.WorkerAddrs) > 0 {
		dialed, err := loadgen.DialWorkers(opts.WorkerAddrs, 5*time.Second)
		if err != nil {
			return nil, err
		}
		conns, stop = dialed, func() {}
		logf("loadgen: driving %d remote workers", len(dialed))
	} else {
		conns, stop = loadgen.SelfHosted(opts.Workers, opts.Log)
		logf("loadgen: self-hosting %d in-process workers", opts.Workers)
	}
	defer stop()

	mix, seeds := loadgen.TournamentWorkload()
	sched := loadgen.Schedule{RampUp: opts.RampUp, Run: opts.Run, RampDown: opts.RampDown}
	rep, err := loadgen.Run(loadgen.RunOptions{
		WorkerConns: conns,
		Spec: loadgen.WorkloadSpec{
			App:         opts.App,
			SpecSource:  tournament.SpecSource,
			Targets:     targets,
			Conns:       opts.Conns,
			Pipeline:    opts.Pipeline,
			RatePerSec:  opts.RatePerSec,
			Seed:        opts.Seed,
			Mix:         mix,
			SeedCalls:   seeds,
			ReportEvery: opts.ReportEvery,
		},
		Schedule:   sched,
		OnInterval: opts.OnInterval,
	})
	if err != nil {
		return nil, err
	}

	if !opts.SkipVerify {
		// The run is only a benchmark if the cluster it hammered is still
		// correct: settle, repair, stabilize, check invariants, compare
		// site digests — all over the same wire the load used.
		ctl, err := server.Dial(targets[0], 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("bench: loadgen verify dial: %w", err)
		}
		defer ctl.Close()
		if err := VerifyOverWire(ctl, opts.App); err != nil {
			return nil, fmt.Errorf("bench: loadgen post-run verification: %w", err)
		}
		logf("loadgen: post-run verification clean")
	}

	return loadgenExperiment(opts, rep), nil
}

// VerifyOverWire runs the harness's quiescence protocol against a live
// server: settle, two rounds of repair-reads + settle (a repair's own
// writes must replicate before the next read), a stability pass, then
// invariant checks and cross-replica digest convergence. Every loadgen
// run ends with it.
func VerifyOverWire(ctl *server.Client, app string) error {
	if err := ctl.DoOK("SETTLE"); err != nil {
		return err
	}
	for round := 0; round < 2; round++ {
		if err := ctl.DoOK("REPAIR", app); err != nil {
			return err
		}
		if err := ctl.DoOK("SETTLE"); err != nil {
			return err
		}
	}
	if err := ctl.DoOK("STABILIZE"); err != nil {
		return err
	}
	rp, err := ctl.Do("CHECK", app)
	if err != nil {
		return err
	}
	if err := rp.Err(); err != nil {
		return err
	}
	if v := rp.Strings(); len(v) > 0 {
		return fmt.Errorf("invariant violations after run: %s", strings.Join(v, "; "))
	}
	rp, err = ctl.Do("DIGEST", app)
	if err != nil {
		return err
	}
	if err := rp.Err(); err != nil {
		return err
	}
	if ds := rp.Strings(); len(ds) > 1 {
		base := digestBody(ds[0])
		for _, d := range ds[1:] {
			if digestBody(d) != base {
				return fmt.Errorf("replicas diverged after run:\n  %s", strings.Join(ds, "\n  "))
			}
		}
	}
	return nil
}

// digestBody strips the "<site> " prefix off a DIGEST reply line so
// replica digests compare on content.
func digestBody(line string) string {
	if _, rest, ok := strings.Cut(line, " "); ok {
		return rest
	}
	return line
}

// loadgenExperiment renders a merged report as the Experiment artifact.
func loadgenExperiment(opts LoadgenOptions, rep *loadgen.Report) *Experiment {
	mode := fmt.Sprintf("closed loop, %d conns x pipeline %d per worker", rep.ConnsPerWorker, rep.Pipeline)
	if rep.RatePerSec > 0 {
		mode = fmt.Sprintf("open loop, %d ops/s fleet-wide", rep.RatePerSec)
	}
	e := &Experiment{
		ID:     "loadgen",
		Title:  fmt.Sprintf("Sustained load, %d workers (%s)", rep.Workers, mode),
		XLabel: "phase",
		YLabel: "ops/sec",
		Perf:   map[string]Perf{},
		Load:   rep,
	}
	s := Series{Name: opts.App}
	for i, ps := range rep.Phases {
		e.XTicks = append(e.XTicks, ps.Phase)
		s.Points = append(s.Points, Point{X: float64(i), Y: ps.OpsPerSec, Aux: map[string]float64{
			"p50 ms": ps.P50Ms, "p99 ms": ps.P99Ms, "errors": float64(ps.Errors), "refusals": float64(ps.Refusals),
		}})
		e.Perf[opts.App+"/"+ps.Phase] = Perf{
			OpsPerSec: ps.OpsPerSec,
			P50Ms:     ps.P50Ms,
			P95Ms:     ps.P95Ms,
			P99Ms:     ps.P99Ms,
			P999Ms:    ps.P999Ms,
		}
	}
	e.Series = append(e.Series, s)
	steady := rep.Steady()
	e.Notes = append(e.Notes,
		fmt.Sprintf("steady window %.0fs: %.0f ops/s, p99 %.2f ms, error rate %.4f, %d refusals",
			steady.Seconds, steady.OpsPerSec, steady.P99Ms, rep.ErrorRate(), steady.Refusals),
		"only the steady window gates; ramp windows absorb start-up skew and drain",
	)
	if steady.Reconnects > 0 {
		e.Notes = append(e.Notes, fmt.Sprintf("steady window survived %d reconnects", steady.Reconnects))
	}
	return e
}
