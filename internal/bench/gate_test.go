package bench

import (
	"path/filepath"
	"strings"
	"testing"
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
