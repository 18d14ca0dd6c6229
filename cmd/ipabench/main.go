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
// -json writes each experiment as BENCH_<name>.json (ops/sec, p50/p99
// where measured) for CI to upload; `benchgate -current
// artifacts/BENCH_engine.json` then gates the engine artifact.
//
// The experiment runner takes -cpuprofile and -memprofile, writing pprof
// profiles of the measured run (the heap profile is taken after a final
// GC, so it shows live retention, not transient garbage).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ipa/internal/analysis"
	"ipa/internal/bench"
)

// errReported signals a failure already printed (flag usage): main exits
// non-zero without repeating it.
var errReported = errors.New("already reported")

// main is the single exit point; run returns errors here so deferred
// cleanup (profile flush) runs before the process exits.
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
	fs := flag.NewFlagSet("ipabench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "which experiment to run (comma separated; default all)")
		quick      = fs.Bool("quick", false, "reduced parameters (faster, noisier)")
		seed       = fs.Int64("seed", 42, "simulation seed")
		jsonDir    = fs.String("json", "", "also write each experiment as BENCH_<name>.json into this directory")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile (after final GC) to this file")
	)
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
	}
	return nil
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
