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
	"os"
	"sort"
	"strings"
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
