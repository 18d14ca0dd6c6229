// Command benchgate compares a freshly measured engine artifact
// (BENCH_engine.json) against its committed baseline and exits non-zero
// on regression. What it gates is the spec engine's compiled/interpreted
// speed-up per application spec: a ratio, not raw ops/sec, so the
// committed baseline stays meaningful across hardware — both executors
// run on the same runner, and the variance cancels. A spec fails below
// 80% of its baseline ratio, or below 1x outright.
//
// The serving benchmark (benchmark/) carries its own bounds in
// BENCHMARK.json and is not gated here.
//
// Usage:
//
//	go run ./cmd/ipabench -experiment engine -quick -json artifacts
//	benchgate -current artifacts/BENCH_engine.json
//
// -baseline overrides the committed baseline path. Refresh the baseline
// after a deliberate change, e.g.:
//
//	go run ./cmd/ipabench -experiment engine -quick -json internal/bench/testdata
//	mv internal/bench/testdata/BENCH_engine.json internal/bench/testdata/BENCH_engine_baseline.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"ipa/internal/bench"
)

// defaultBaseline is the committed engine baseline, relative to the
// repository root.
const defaultBaseline = "internal/bench/testdata/BENCH_engine_baseline.json"

// tolerance is the allowed ratio erosion: fail below 80% of baseline.
const tolerance = 0.20

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
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

// run gates one artifact, printing a compiled/interpreted ratio line per
// spec to w before the verdict.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		current  = fs.String("current", "", "freshly measured BENCH_engine.json")
		baseline = fs.String("baseline", defaultBaseline, "committed baseline")
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
	if cur.ID != "engine" {
		return usageError{fmt.Errorf("%s is a %q artifact; only engine is gated", *current, cur.ID)}
	}
	base, err := bench.ReadExperimentJSON(*baseline)
	if err != nil {
		return usageError{err}
	}

	if ratios, err := bench.EngineSpeedups(cur); err == nil {
		baseRatios, _ := bench.EngineSpeedups(base)
		for _, n := range slices.Sorted(maps.Keys(ratios)) {
			fmt.Fprintf(w, "%-12s compiled/interpreted %.2fx (baseline %.2fx)\n", n, ratios[n], baseRatios[n])
		}
	}
	return bench.CheckEngineBaseline(cur, base, tolerance)
}
