// Command benchgate compares a freshly measured benchmark artifact
// against its committed baseline and exits non-zero on regression. Two
// experiments are gated, selected by the artifact's ID:
//
//   - engine (BENCH_engine.json): the spec engine's compiled/interpreted
//     speed-up per application spec. A ratio, not raw ops/sec, so the
//     committed baseline stays meaningful across hardware: both
//     executors run on the same runner, and the variance cancels;
//   - loadgen (BENCH_loadgen.json): the coordinated sustained-load run —
//     steady-state throughput against the baseline, steady p99 under a
//     fixed headroom, and an absolute 1% error-rate ceiling. This gate
//     compares raw ops/sec, so benchgate prints a warning when the
//     current and baseline artifacts were measured on different hosts
//     (every BENCH_*.json records its host metadata).
//
// The serving benchmark (benchmark/) carries its own bounds in
// BENCHMARK.json and is not gated here.
//
// Usage:
//
//	benchgate -current artifacts/BENCH_engine.json \
//	          -baseline internal/bench/testdata/BENCH_engine_baseline.json
//	benchgate -current artifacts/BENCH_loadgen.json -tolerance 0.60
//
// Refresh a baseline after a deliberate change, e.g.:
//
//	go run ./cmd/ipabench -experiment engine -quick -json internal/bench/testdata
//	mv internal/bench/testdata/BENCH_engine.json internal/bench/testdata/BENCH_engine_baseline.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"ipa/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		code := 1
		var ue usageError
		if errors.As(err, &ue) {
			code = 2
		}
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(code)
	}
	fmt.Println("benchgate: ok")
}

// usageError marks invocation problems (exit 2) as opposed to gate
// failures (exit 1).
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func run(args []string) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		current   = fs.String("current", "", "freshly measured BENCH_<id>.json")
		baseline  = fs.String("baseline", "", "committed baseline (default per experiment ID)")
		tolerance = fs.Float64("tolerance", 0.20, "allowed ratio erosion (0.20 = fail below 80% of baseline)")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *current == "" {
		return usageError{errors.New("-current is required")}
	}
	cur, err := bench.ReadExperimentJSON(*current)
	if err != nil {
		return usageError{err}
	}

	basePath := *baseline
	if basePath == "" {
		var derr error
		basePath, derr = bench.DefaultBaseline(cur.ID)
		if derr != nil {
			return usageError{fmt.Errorf("%w; pass -baseline", derr)}
		}
	}
	base, err := bench.ReadExperimentJSON(basePath)
	if err != nil {
		return usageError{err}
	}

	return bench.Gate(cur, base, *tolerance, os.Stdout)
}
