package bench

import (
	"path/filepath"
	"strings"
	"testing"

	"ipa/internal/loadgen"
)

func engineExp(perf map[string]Perf) *Experiment {
	return &Experiment{ID: "engine", Perf: perf}
}

func pair(compiled, interpreted float64) map[string]Perf {
	return map[string]Perf{
		"app/compiled":    {OpsPerSec: compiled},
		"app/interpreted": {OpsPerSec: interpreted},
	}
}

func TestEngineSpeedups(t *testing.T) {
	r, err := EngineSpeedups(engineExp(pair(200, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if r["app"] != 2.0 {
		t.Fatalf("speedup = %v, want 2.0", r["app"])
	}
	if _, err := EngineSpeedups(engineExp(map[string]Perf{"app/compiled": {OpsPerSec: 200}})); err == nil {
		t.Fatal("missing interpreted entry not detected")
	}
	if _, err := EngineSpeedups(engineExp(map[string]Perf{"serve": {OpsPerSec: 200}})); err == nil {
		t.Fatal("experiment without executor pairs not detected")
	}
}

func TestCheckEngineBaseline(t *testing.T) {
	base := engineExp(pair(200, 100)) // 2.0x baseline

	// Within tolerance: 1.7x against 2.0x at 20% (floor 1.6x) passes.
	if err := CheckEngineBaseline(engineExp(pair(170, 100)), base, 0.20); err != nil {
		t.Fatalf("within-tolerance run failed the gate: %v", err)
	}
	// Regressed: 1.5x is below the 1.6x floor.
	err := CheckEngineBaseline(engineExp(pair(150, 100)), base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "app") {
		t.Fatalf("regression not caught: %v", err)
	}
	// Absolute floor: slower than the interpreter fails even when the
	// baseline ratio is low enough that the relative check would pass.
	lowBase := engineExp(pair(110, 100)) // 1.1x baseline, floor 0.88x
	err = CheckEngineBaseline(engineExp(pair(90, 100)), lowBase, 0.20)
	if err == nil || !strings.Contains(err.Error(), "slower than the interpreter") {
		t.Fatalf("sub-1x ratio not caught: %v", err)
	}
	// A spec missing from the current run must fail, not silently pass.
	err = CheckEngineBaseline(engineExp(pair(200, 100)), engineExp(map[string]Perf{
		"app/compiled": {OpsPerSec: 200}, "app/interpreted": {OpsPerSec: 100},
		"gone/compiled": {OpsPerSec: 200}, "gone/interpreted": {OpsPerSec: 100},
	}), 0.20)
	if err == nil || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("missing spec not caught: %v", err)
	}
	// Specs only in current (new spec, baseline not yet refreshed) pass.
	cur := engineExp(map[string]Perf{
		"app/compiled": {OpsPerSec: 200}, "app/interpreted": {OpsPerSec: 100},
		"new/compiled": {OpsPerSec: 120}, "new/interpreted": {OpsPerSec: 100},
	})
	if err := CheckEngineBaseline(cur, base, 0.20); err != nil {
		t.Fatalf("new spec without baseline failed the gate: %v", err)
	}
}

// TestEngineBaselineFile pins the committed baseline artifact: it must
// parse, carry an executor pair for every spec the engine experiment
// measures, and hold a compiled advantage on each — so the CI gate
// compares against real, current data.
func TestEngineBaselineFile(t *testing.T) {
	e, err := ReadExperimentJSON(filepath.Join("testdata", "BENCH_engine_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	ratios, err := EngineSpeedups(e)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := engineSpecs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		r, ok := ratios[s.name]
		if !ok {
			t.Errorf("baseline has no executor pair for %s — refresh it (see cmd/benchgate)", s.name)
			continue
		}
		if r <= 1 {
			t.Errorf("baseline records no compiled advantage for %s (%.2fx)", s.name, r)
		}
	}
}

// loadgenExp builds a minimal loadgen experiment with the given steady
// window; the ramp phases are present but deliberately terrible, since
// they must never gate.
func loadgenExp(opsPerSec, p99Ms float64, ops, errs int64) *Experiment {
	return &Experiment{
		ID: "loadgen",
		Load: &loadgen.Report{Phases: []loadgen.PhaseStats{
			{Phase: loadgen.PhaseRampUp, OpsPerSec: 1, P99Ms: 1e9},
			{Phase: loadgen.PhaseSteady, OpsPerSec: opsPerSec, P99Ms: p99Ms, Ops: ops, Errors: errs},
			{Phase: loadgen.PhaseRampDown, OpsPerSec: 1, P99Ms: 1e9},
		}},
	}
}

func TestCheckLoadgenBaseline(t *testing.T) {
	base := loadgenExp(1000, 10, 5000, 0)

	// Within tolerance on every axis.
	if err := CheckLoadgenBaseline(loadgenExp(900, 12, 4500, 0), base, 0.20); err != nil {
		t.Fatalf("within-tolerance run failed the gate: %v", err)
	}
	// Throughput below the floor.
	err := CheckLoadgenBaseline(loadgenExp(700, 10, 3500, 0), base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "throughput") {
		t.Fatalf("throughput regression not caught: %v", err)
	}
	// p99 over baseline x headroom x (1 + tolerance).
	err = CheckLoadgenBaseline(loadgenExp(1000, 10*loadgenP99Headroom*1.2+1, 5000, 0), base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "latency") {
		t.Fatalf("p99 blow-up not caught: %v", err)
	}
	// Error rate over the absolute ceiling: 100 errors on 5000 ops = 2%.
	err = CheckLoadgenBaseline(loadgenExp(1000, 10, 5000, 100), base, 0.20)
	if err == nil || !strings.Contains(err.Error(), "error rate") {
		t.Fatalf("error-rate ceiling not enforced: %v", err)
	}
	// The terrible ramp windows never gate: identical steady passes.
	if err := CheckLoadgenBaseline(loadgenExp(1000, 10, 5000, 0), base, 0.0); err != nil {
		t.Fatalf("ramp windows leaked into the gate: %v", err)
	}
	// An artifact without an embedded report is unusable, not green.
	if err := CheckLoadgenBaseline(&Experiment{ID: "loadgen"}, base, 0.20); err == nil {
		t.Fatal("reportless artifact passed the gate")
	}
}

func TestHostWarnings(t *testing.T) {
	h := func(cpus int, gov string) *Experiment {
		return &Experiment{ID: "loadgen", Host: &loadgen.HostMeta{
			GoVersion: gov, OS: "linux", Arch: "amd64", NumCPU: cpus, GOMAXPROCS: cpus,
		}}
	}
	if w := HostWarnings(h(8, "go1.24.0"), h(8, "go1.24.0")); len(w) != 0 {
		t.Fatalf("identical hosts warned: %v", w)
	}
	w := HostWarnings(h(8, "go1.24.0"), h(64, "go1.23.1"))
	if len(w) != 2 {
		t.Fatalf("expected cpu + toolchain warnings, got %v", w)
	}
	// Pre-metadata artifacts (old baselines) compare silently.
	if w := HostWarnings(&Experiment{}, h(8, "go1.24.0")); len(w) != 0 {
		t.Fatalf("nil host warned: %v", w)
	}
}

// TestGateDispatch pins the shared entry point: every gated ID routes to
// its check, mismatched IDs and ungated IDs are refused.
func TestGateDispatch(t *testing.T) {
	base := loadgenExp(1000, 10, 5000, 0)
	var out strings.Builder
	if err := Gate(loadgenExp(950, 11, 4800, 0), base, 0.20, &out); err != nil {
		t.Fatalf("loadgen dispatch failed: %v", err)
	}
	if !strings.Contains(out.String(), "throughput") {
		t.Errorf("gate summary missing throughput line:\n%s", out.String())
	}
	if err := Gate(engineExp(pair(200, 100)), engineExp(pair(200, 100)), 0.20, nil); err != nil {
		t.Fatalf("engine dispatch failed: %v", err)
	}
	if err := Gate(loadgenExp(1000, 10, 5000, 0), engineExp(pair(200, 100)), 0.20, nil); err == nil {
		t.Fatal("cross-ID gating accepted")
	}
	if err := Gate(&Experiment{ID: "fig4"}, &Experiment{ID: "fig4"}, 0.20, nil); err == nil {
		t.Fatal("ungated experiment accepted")
	}
}

// TestLoadgenBaselineFile pins the committed baseline artifact: it must
// parse, hold a real steady window with a clean error rate, record its
// host, and pass its own gate.
func TestLoadgenBaselineFile(t *testing.T) {
	e, err := ReadExperimentJSON(filepath.Join("testdata", "BENCH_loadgen_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	steady, err := LoadgenSteady(e)
	if err != nil {
		t.Fatal(err)
	}
	if steady.OpsPerSec <= 0 || steady.P99Ms <= 0 {
		t.Errorf("baseline steady window is empty: %+v", steady)
	}
	if e.Load.ErrorRate() > loadgenErrorRateCeiling {
		t.Errorf("baseline error rate %.4f over the ceiling — refresh it", e.Load.ErrorRate())
	}
	if e.Host == nil {
		t.Errorf("baseline records no host metadata")
	}
	if err := CheckLoadgenBaseline(e, e, 0.20); err != nil {
		t.Errorf("baseline does not pass its own gate: %v", err)
	}
}
