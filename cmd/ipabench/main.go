// Command ipabench regenerates the tables and figures of the paper's
// evaluation (§5) on the simulated geo-replicated deployment, and runs
// the repository's own wall-clock benchmarks of its infrastructure.
//
// Usage:
//
//	ipabench -experiment all            # everything (takes a while)
//	ipabench -experiment fig4           # one figure
//	ipabench -experiment table1
//	ipabench -experiment fig7 -quick    # reduced parameters
//	ipabench -experiment engine -json artifacts   # write BENCH_engine.json
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8a, fig8b, fig9, the
// ablations beyond the paper: ablation-numeric, ablation-touch,
// ablation-stability, ablation-scope, and three wall-clock benchmarks of
// the repository's own infrastructure: `chaos` — the chaos harness's
// schedules-per-second rate on 3- and 5-replica sims — `engine` — the
// spec engine's compiled plans vs the reference interpreter on every
// application spec (cmd/benchgate gates the compiled/interpreted ratio
// against a committed baseline) — and `recovery` — kill -9 cold-start
// recovery times of a durable node, wal-only vs snapshot+tail.
//
// Serving is measured elsewhere: the benchmark/ package (bash
// benchmark/run.sh) drives the real `ipa serve` binary over loopback and
// reports end-to-end and per-layer numbers.
//
// The `loadgen` subcommand coordinates the distributed load generator
// (internal/loadgen): N workers — in-process by default, or `ipabench
// worker -listen` daemons named via -workers — drive `ipa serve`
// targets through the wire client under a synchronized ramp-up →
// steady-state → ramp-down schedule, and only the steady window is
// gated. BENCH_loadgen.json embeds the merged phase stats, per-worker
// breakdown, and host metadata:
//
//	ipabench worker -listen 127.0.0.1:7401               # on each load machine
//	ipabench loadgen -ramp-up 2s -run 5s -ramp-down 1s   # self-hosted workers+server
//	ipabench loadgen -target host:6390 -workers host1:7401,host2:7402 -rate 2000
//
// Every mode shares the unified gating flags: -baseline <file|auto>
// gates the fresh measurement in-process (benchgate's checks, same
// exit discipline), -save <file> refreshes a committed baseline, and
// -threshold sets the allowed regression in percent.
//
// -json writes each experiment as BENCH_<name>.json (ops/sec, p50/p99
// where measured) for CI to upload.
//
// The experiment runner takes -cpuprofile and -memprofile, writing pprof
// profiles of the measured run (the heap profile is taken after a final
// GC, so it shows live retention, not transient garbage).
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ipa/internal/analysis"
	"ipa/internal/bench"
	"ipa/internal/loadgen"
)

// errReported signals a failure already printed (flag usage): main exits
// non-zero without repeating it.
var errReported = errors.New("already reported")

// main is the single exit point; subcommands return errors here so
// deferred cleanup (cluster close, server shutdown, artifact flush) runs
// before the process exits.
func main() {
	if err := run(os.Args[1:]); err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "ipabench:", err)
		}
		os.Exit(1)
	}
}

// startProfiles starts a CPU profile and arranges a heap profile, per
// the -cpuprofile/-memprofile flags (empty path: off). The returned stop
// function finishes both; callers defer it so profiles cover the whole
// run and land even on error paths.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
			defer f.Close()
			// A final collection makes the profile show live retention
			// rather than garbage awaiting the next GC cycle.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("-memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

func run(args []string) (err error) {
	if len(args) > 0 {
		switch args[0] {
		case "worker":
			return runWorker(args[1:])
		case "loadgen":
			return runLoadgen(args[1:])
		}
	}

	fs := flag.NewFlagSet("ipabench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "which experiment to run (comma separated; default all)")
		quick      = fs.Bool("quick", false, "reduced parameters (faster, noisier)")
		seed       = fs.Int64("seed", 42, "simulation seed")
		jsonDir    = fs.String("json", "", "also write each experiment as BENCH_<name>.json into this directory")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (after final GC) to this file")
	)
	gates := gateFlags(fs)
	if err := fs.Parse(args); err != nil {
		return errReported
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && err == nil {
			err = perr
		}
	}()

	opts := bench.DefaultExpOptions()
	if *quick {
		opts = bench.QuickExpOptions()
	}
	opts.Seed = *seed

	all := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9",
		"ablation-numeric", "ablation-touch", "ablation-stability", "ablation-scope",
		"chaos", "engine", "recovery"}
	wanted := all
	if *experiment != "" && *experiment != "all" {
		wanted = strings.Split(*experiment, ",")
	}

	for _, name := range wanted {
		name = strings.TrimSpace(name)
		var (
			e   *bench.Experiment
			err error
		)
		switch name {
		case "table1":
			e, err = bench.Table1(analysis.Options{})
		case "fig4":
			e = bench.Fig4(opts)
		case "fig5":
			e = bench.Fig5(opts)
		case "fig6":
			e = bench.Fig6(opts)
		case "fig7":
			e = bench.Fig7(opts)
		case "fig8a":
			e = bench.Fig8a(opts)
		case "fig8b":
			e = bench.Fig8b(opts)
		case "fig9":
			e = bench.Fig9(opts)
		case "ablation-numeric":
			e = bench.AblationNumeric(opts)
		case "ablation-touch":
			e = bench.AblationTouch(opts)
		case "ablation-stability":
			e = bench.AblationStability(opts)
		case "ablation-scope":
			e = bench.AblationScope(opts)
		case "chaos":
			e, err = bench.Chaos(opts)
		case "engine":
			e, err = bench.EngineExecutors(opts)
		case "recovery":
			var recOpts bench.RecoveryOptions
			if *quick {
				recOpts.Ladder = []int{200, 1000}
			}
			e, err = bench.Recovery(recOpts)
		default:
			return fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(all, ", "))
		}
		if err != nil {
			return err
		}
		if err := emit(e, *jsonDir); err != nil {
			return err
		}
		if err := gates.apply(e); err != nil {
			return err
		}
	}
	return nil
}

// gateOpts are the unified baseline flags every ipabench mode shares:
// -baseline gates the fresh measurement in-process (no separate
// benchgate invocation needed), -save refreshes a baseline file, and
// -threshold is the allowed erosion in percent.
type gateOpts struct {
	baseline  *string
	save      *string
	threshold *float64
}

func gateFlags(fs *flag.FlagSet) gateOpts {
	return gateOpts{
		baseline:  fs.String("baseline", "", "gate the run against this BENCH_<id>.json baseline (\"auto\": the committed default for the experiment)"),
		save:      fs.String("save", "", "write the measured experiment JSON to exactly this path (refresh a baseline)"),
		threshold: fs.Float64("threshold", 20, "allowed regression in percent for -baseline (20 = fail below 80% of baseline)"),
	}
}

// apply saves and/or gates one freshly measured experiment per the
// unified flags. Gate failures surface as ordinary errors (exit 1).
func (g gateOpts) apply(e *bench.Experiment) error {
	if *g.save != "" {
		if err := writeExperimentTo(e, *g.save); err != nil {
			return err
		}
		fmt.Printf("saved %s\n", *g.save)
	}
	if *g.baseline == "" {
		return nil
	}
	basePath := *g.baseline
	if basePath == "auto" {
		var err error
		if basePath, err = bench.DefaultBaseline(e.ID); err != nil {
			return err
		}
	}
	base, err := bench.ReadExperimentJSON(basePath)
	if err != nil {
		return err
	}
	if err := bench.Gate(e, base, *g.threshold/100, os.Stdout); err != nil {
		return err
	}
	fmt.Printf("gate ok: %s vs %s (threshold %.0f%%)\n", e.ID, basePath, *g.threshold)
	return nil
}

// writeExperimentTo writes the artifact to an exact path (WriteJSON
// derives the name from the ID; -save wants full control, e.g.
// internal/bench/testdata/BENCH_loadgen_baseline.json).
func writeExperimentTo(e *bench.Experiment, path string) error {
	dir, err := os.MkdirTemp(filepath.Dir(path), ".bench-save-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tmp, err := e.WriteJSON(dir)
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runWorker is the `ipabench worker` subcommand: a load-generation
// worker daemon that serves coordinator sessions (from `ipabench
// loadgen -workers ...`) on a control socket, one at a time, until
// killed.
func runWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	var (
		listen = fs.String("listen", "127.0.0.1:7400", "control address to accept coordinator sessions on")
		quiet  = fs.Bool("quiet", false, "suppress per-session progress logging")
	)
	if err := fs.Parse(args); err != nil {
		return errReported
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, "worker: "+format+"\n", a...) }
	if *quiet {
		logf = nil
	}
	w := &loadgen.Worker{Log: logf}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	fmt.Printf("ipabench worker listening on %s\n", ln.Addr())
	return w.ListenAndServe(ln)
}

// runLoadgen is the `ipabench loadgen` subcommand: coordinate a
// multi-worker sustained-load run against `ipa serve` targets and
// write the merged, phase-windowed report.
func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		targets     = fs.String("target", "", "comma-separated `ipa serve` addresses (empty: self-host a netrepl-backed server)")
		workerAddrs = fs.String("workers", "", "comma-separated `ipabench worker` control addresses (empty: self-host -self-workers in-process workers)")
		selfWorkers = fs.Int("self-workers", 2, "in-process worker count when -workers is empty")
		app         = fs.String("app", "tournament", "application workload")
		conns       = fs.Int("conns", 2, "driving connections per worker")
		pipeline    = fs.Int("pipeline", 8, "closed-loop pipeline depth per connection")
		rate        = fs.Int("rate", 0, "open-loop CALLs/sec fleet-wide (0: closed loop)")
		rampUp      = fs.Duration("ramp-up", 2*time.Second, "ramp-up window (excluded from gating)")
		runFor      = fs.Duration("run", 5*time.Second, "steady-state window (the measured part)")
		rampDown    = fs.Duration("ramp-down", time.Second, "ramp-down window (excluded from gating)")
		seed        = fs.Int64("seed", 42, "workload seed")
		reportEvery = fs.Duration("report-every", time.Second, "worker progress-report period")
		noVerify    = fs.Bool("no-verify", false, "skip the post-run convergence verification")
		quiet       = fs.Bool("quiet", false, "suppress progress and interval logging")
		jsonDir     = fs.String("json", "", "also write BENCH_loadgen.json into this directory")
	)
	gates := gateFlags(fs)
	if err := fs.Parse(args); err != nil {
		return errReported
	}
	opts := bench.LoadgenOptions{
		Workers:     *selfWorkers,
		App:         *app,
		Conns:       *conns,
		Pipeline:    *pipeline,
		RatePerSec:  *rate,
		RampUp:      *rampUp,
		Run:         *runFor,
		RampDown:    *rampDown,
		Seed:        *seed,
		ReportEvery: *reportEvery,
		SkipVerify:  *noVerify,
	}
	if *targets != "" {
		opts.Targets = splitCSV(*targets)
	}
	if *workerAddrs != "" {
		opts.WorkerAddrs = splitCSV(*workerAddrs)
	}
	if !*quiet {
		opts.Log = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
		opts.OnInterval = func(iv loadgen.Interval) {
			fmt.Fprintf(os.Stderr, "worker %d %-9s %6d ops %4d errs %5d refusals\n",
				iv.Worker, iv.Phase, iv.Ops, iv.Errors, iv.Refusals)
		}
	}
	e, err := bench.Loadgen(opts)
	if err != nil {
		return err
	}
	if err := emit(e, *jsonDir); err != nil {
		return err
	}
	return gates.apply(e)
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// emit renders an experiment and optionally writes its JSON artifact.
func emit(e *bench.Experiment, jsonDir string) error {
	fmt.Println(e.Render())
	if jsonDir != "" {
		path, err := e.WriteJSON(jsonDir)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
