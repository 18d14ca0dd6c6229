package main

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"ipa/internal/bench"
)

// writeArtifact writes an experiment as BENCH_<id>.json under its own
// temp dir and returns the path.
func writeArtifact(t *testing.T, e *bench.Experiment) string {
	t.Helper()
	path, err := e.WriteJSON(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// engineArtifact is an engine experiment with one spec at the given
// compiled/interpreted ratio.
func engineArtifact(t *testing.T, ratio float64) string {
	return writeArtifact(t, &bench.Experiment{ID: "engine", Perf: map[string]bench.Perf{
		"app/compiled":    {OpsPerSec: 100 * ratio},
		"app/interpreted": {OpsPerSec: 100},
	}})
}

func TestRun(t *testing.T) {
	base := engineArtifact(t, 2.0)

	var out strings.Builder
	if err := run([]string{"-current", engineArtifact(t, 1.9), "-baseline", base}, &out); err != nil {
		t.Fatalf("good artifact failed the gate: %v", err)
	}
	if want := "compiled/interpreted 1.90x (baseline 2.00x)"; !strings.Contains(out.String(), want) {
		t.Errorf("ratio line missing %q:\n%s", want, out.String())
	}

	// 1.5x is below 80% of 2.0x: a gate failure (exit 1), not misuse.
	err := run([]string{"-current", engineArtifact(t, 1.5), "-baseline", base}, &out)
	var ue usageError
	if err == nil || errors.As(err, &ue) {
		t.Fatalf("regressed artifact: got %v, want a gate error", err)
	}

	// Only the engine experiment is gated.
	fig := writeArtifact(t, &bench.Experiment{ID: "fig4"})
	if err := run([]string{"-current", fig, "-baseline", base}, &out); !errors.As(err, &ue) {
		t.Fatalf("non-engine artifact: got %v, want a usage error", err)
	}

	if err := run(nil, &out); !errors.As(err, &ue) {
		t.Fatalf("missing -current: got %v, want a usage error", err)
	}
	if err := run([]string{"-current", filepath.Join(t.TempDir(), "absent.json")}, &out); !errors.As(err, &ue) {
		t.Fatalf("unreadable artifact: got %v, want a usage error", err)
	}
}
