package bench

// The engine regression gate: compares a freshly measured engine
// experiment (BENCH_engine.json) against the committed baseline and
// fails when the compiled executor's advantage over the interpreter has
// eroded. Gating on the compiled/interpreted ratio — not raw ops/sec —
// makes the check machine-independent: both executors run in the same
// process on the same runner, so hardware variance cancels and what
// remains is the compilation pass itself.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ipa/internal/loadgen"
)

// ReadExperimentJSON loads a BENCH_<id>.json artifact.
func ReadExperimentJSON(path string) (*Experiment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Experiment
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("bench: bad experiment file %s: %w", path, err)
	}
	return &e, nil
}

// EngineSpeedups extracts the per-spec compiled/interpreted throughput
// ratios from an engine experiment's Perf map.
func EngineSpeedups(e *Experiment) (map[string]float64, error) {
	out := map[string]float64{}
	for key, p := range e.Perf {
		name, ok := strings.CutSuffix(key, "/compiled")
		if !ok {
			continue
		}
		i, ok := e.Perf[name+"/interpreted"]
		if !ok || i.OpsPerSec <= 0 || p.OpsPerSec <= 0 {
			return nil, fmt.Errorf("bench: experiment %q has no usable executor pair for %q", e.ID, name)
		}
		out[name] = p.OpsPerSec / i.OpsPerSec
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: experiment %q carries no <spec>/compiled Perf entries", e.ID)
	}
	return out, nil
}

// Loadgen gate parameters. Unlike the engine's ratio gate, the loadgen
// gate compares raw steady-state throughput across runs, so it only means
// something when current and baseline ran on comparable hardware —
// HostWarnings flags the comparison when they did not, and CI runs it
// with a generous tolerance.
const (
	// loadgenP99Headroom is how far the steady p99 may drift above the
	// baseline before the gate fails; the effective ceiling is
	// baseline x headroom x (1 + tolerance). Tail latency under
	// contention is far noisier than throughput — back-to-back runs on
	// one machine swing 3x on p99 while throughput moves under 1% — so
	// the multiplier is wide and the caller's tolerance loosens it
	// further. The gate exists to catch order-of-magnitude tail
	// collapse (a lost pipelining path, a serialization stall), not
	// single-digit-percent drift.
	loadgenP99Headroom = 4.0
	// loadgenErrorRateCeiling is the absolute steady-state error-rate
	// ceiling: more than 1% of offered load failing is a broken run
	// regardless of what the baseline tolerated.
	loadgenErrorRateCeiling = 0.01
)

// LoadgenSteady extracts the steady-state phase from a loadgen
// experiment's embedded report.
func LoadgenSteady(e *Experiment) (loadgen.PhaseStats, error) {
	if e.Load == nil {
		return loadgen.PhaseStats{}, fmt.Errorf("bench: experiment %q carries no loadgen report", e.ID)
	}
	s := e.Load.Steady()
	if s.Phase == "" || s.Ops <= 0 {
		return loadgen.PhaseStats{}, fmt.Errorf("bench: experiment %q has no usable steady window", e.ID)
	}
	return s, nil
}

// CheckLoadgenBaseline compares a loadgen run against its baseline:
// steady-state throughput may not fall more than tolerance below the
// baseline, steady p99 may not exceed the baseline by more than the
// fixed headroom, and the steady error rate may not exceed the absolute
// ceiling. Ramp windows never gate.
func CheckLoadgenBaseline(current, baseline *Experiment, tolerance float64) error {
	cur, err := LoadgenSteady(current)
	if err != nil {
		return err
	}
	base, err := LoadgenSteady(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var failures []string
	if floor := base.OpsPerSec * (1 - tolerance); cur.OpsPerSec < floor {
		failures = append(failures,
			fmt.Sprintf("throughput: steady %.0f ops/s, below %.0f (baseline %.0f - %.0f%%)",
				cur.OpsPerSec, floor, base.OpsPerSec, tolerance*100))
	}
	if ceiling := base.P99Ms * loadgenP99Headroom * (1 + tolerance); base.P99Ms > 0 && cur.P99Ms > ceiling {
		failures = append(failures,
			fmt.Sprintf("latency: steady p99 %.2f ms, over %.2f (baseline %.2f x %.1f headroom x %.2f)",
				cur.P99Ms, ceiling, base.P99Ms, loadgenP99Headroom, 1+tolerance))
	}
	if rate := current.Load.ErrorRate(); rate > loadgenErrorRateCeiling {
		failures = append(failures,
			fmt.Sprintf("errors: steady error rate %.4f over the absolute %.2f ceiling", rate, loadgenErrorRateCeiling))
	}
	if len(failures) > 0 {
		return fmt.Errorf("sustained-load run regressed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// HostWarnings compares the hosts two experiments ran on and returns a
// human-readable warning per mismatched dimension. The engine's ratio
// gate cancels hardware variance, but the loadgen gate compares raw
// throughput, so a cross-host comparison deserves a loud flag even when
// it passes.
func HostWarnings(current, baseline *Experiment) []string {
	if current.Host == nil || baseline.Host == nil {
		return nil // pre-metadata artifacts: nothing to compare
	}
	c, b := current.Host, baseline.Host
	var warns []string
	if c.NumCPU != b.NumCPU || c.GOMAXPROCS != b.GOMAXPROCS {
		warns = append(warns, fmt.Sprintf("cpu: current %d cores / GOMAXPROCS %d vs baseline %d / %d",
			c.NumCPU, c.GOMAXPROCS, b.NumCPU, b.GOMAXPROCS))
	}
	if c.OS != b.OS || c.Arch != b.Arch {
		warns = append(warns, fmt.Sprintf("platform: current %s/%s vs baseline %s/%s", c.OS, c.Arch, b.OS, b.Arch))
	}
	if c.GoVersion != b.GoVersion {
		warns = append(warns, fmt.Sprintf("toolchain: current %s vs baseline %s", c.GoVersion, b.GoVersion))
	}
	return warns
}

// DefaultBaseline returns the committed baseline path for a gated
// experiment ID, relative to the repository root.
func DefaultBaseline(id string) (string, error) {
	switch id {
	case "engine", "loadgen":
		return "internal/bench/testdata/BENCH_" + id + "_baseline.json", nil
	}
	return "", fmt.Errorf("no default baseline for experiment %q", id)
}

// Gate dispatches an experiment to its baseline check by ID, writing a
// per-measure summary (and any cross-host warnings) to w first. This is
// the one entry point cmd/benchgate and ipabench's -baseline flag
// share, so a new gate lands in both by extending the switch here.
func Gate(current, baseline *Experiment, tolerance float64, w io.Writer) error {
	if w == nil {
		w = io.Discard
	}
	if current.ID != baseline.ID {
		return fmt.Errorf("bench: gating %q against a %q baseline", current.ID, baseline.ID)
	}
	for _, warn := range HostWarnings(current, baseline) {
		fmt.Fprintf(w, "warning: host mismatch — %s\n", warn)
	}
	switch current.ID {
	case "engine":
		if ratios, err := EngineSpeedups(current); err == nil {
			baseRatios, _ := EngineSpeedups(baseline)
			for _, n := range sortedRatioKeys(ratios) {
				fmt.Fprintf(w, "%-12s compiled/interpreted %.2fx (baseline %.2fx)\n", n, ratios[n], baseRatios[n])
			}
		}
		return CheckEngineBaseline(current, baseline, tolerance)
	case "loadgen":
		if cur, err := LoadgenSteady(current); err == nil {
			if base, err := LoadgenSteady(baseline); err == nil {
				fmt.Fprintf(w, "%-12s steady %.0f ops/s (baseline %.0f)\n", "throughput", cur.OpsPerSec, base.OpsPerSec)
				fmt.Fprintf(w, "%-12s steady p99 %.2f ms (baseline %.2f)\n", "latency", cur.P99Ms, base.P99Ms)
				fmt.Fprintf(w, "%-12s steady error rate %.4f (ceiling %.2f)\n", "errors", current.Load.ErrorRate(), loadgenErrorRateCeiling)
			}
		}
		return CheckLoadgenBaseline(current, baseline, tolerance)
	}
	return fmt.Errorf("experiment %q has no gate (want engine or loadgen)", current.ID)
}

// sortedRatioKeys orders a gate's measure names for stable output.
func sortedRatioKeys(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CheckEngineBaseline compares current against baseline speed-ups and
// returns an error naming every spec whose compiled/interpreted ratio
// regressed by more than tolerance (0.20 = fail below 80% of baseline).
// Specs present only in current pass (new specs need a baseline refresh,
// not a red build); specs missing from current fail — a silently dropped
// measurement must not read as green.
func CheckEngineBaseline(current, baseline *Experiment, tolerance float64) error {
	cur, err := EngineSpeedups(current)
	if err != nil {
		return err
	}
	base, err := EngineSpeedups(baseline)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		c, ok := cur[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current run (baseline %.2fx)", name, base[name]))
			continue
		}
		floor := base[name] * (1 - tolerance)
		if c < floor {
			failures = append(failures,
				fmt.Sprintf("%s: compiled/interpreted %.2fx, below %.2fx (baseline %.2fx - %.0f%%)",
					name, c, floor, base[name], tolerance*100))
		} else if c < 1 {
			// Absolute floor, independent of the baseline: the compiled
			// executor being slower than the reference interpreter means
			// the compilation pass has stopped paying for itself.
			failures = append(failures,
				fmt.Sprintf("%s: compiled executor slower than the interpreter (%.2fx)", name, c))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("engine speed-up regressed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}
