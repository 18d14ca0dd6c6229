package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/timeline.golden from the current executor")

// timelineSeeds are the fixed seeds the timeline golden runs per app,
// variant and shape.
var timelineSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// alignedFaults is the fault count of the aligned shape: dense enough
// that crash and pause windows often open or close on the instant a
// check point reads a violating site.
const alignedFaults = 48

// alignFaults moves every fault window's start and end onto a mid-flight
// check instant. Generated schedules put faults at arbitrary microseconds,
// so a check and a fault step almost never share an instant; aligned ones
// always do, which pins the order of the steps at equal instants (ops,
// then each fault's inject and heal, then the check point).
func alignFaults(s *Schedule) {
	step := s.Cfg.Horizon / midChecks
	for i := range s.Faults {
		f := &s.Faults[i]
		at := (f.At/step + 1) * step
		dur := max(f.Dur/step, 1) * step
		f.At, f.Dur = at, dur
	}
}

// timelineOutcomes runs every sim app under both of its variants (ipa
// and causal, or ipa and interp for a spec-driven app) and both
// shapes (as generated; alignedFaults windows on check instants) for each of
// timelineSeeds, and renders one line per run: the violation, or a hash
// of the site-0 digest at clean quiescence.
func timelineOutcomes(t *testing.T) string {
	var b strings.Builder
	for _, app := range Apps() {
		variants := []string{"ipa", "causal"}
		if strings.HasSuffix(app, "-spec") {
			variants[1] = "interp"
		}
		for _, variant := range variants {
			for _, aligned := range []bool{false, true} {
				for _, seed := range timelineSeeds {
					cfg := Defaults(app)
					cfg.Variant = variant
					if aligned {
						cfg.Faults = alignedFaults
					}
					s, err := Generate(cfg, seed)
					if err != nil {
						t.Fatal(err)
					}
					shape := "generated"
					if aligned {
						alignFaults(s)
						shape = "aligned"
					}
					digest, v, err := ExecuteDigest(s)
					if err != nil {
						t.Fatalf("%s %s %s seed %d: %v", app, variant, shape, seed, err)
					}
					out := fmt.Sprintf("digest %x", sha256.Sum256([]byte(digest)))
					if v != nil {
						out = fmt.Sprintf("violation %q", v.String())
					}
					fmt.Fprintf(&b, "%s %s %s %d: %s\n", app, variant, shape, seed, out)
				}
			}
		}
	}
	return b.String()
}

// TestTimelineGolden holds the sim executor's outcomes to the checked-in
// record, line for line: any change to the order in which a schedule's
// ops, fault steps and check points run, or to what a check point does,
// moves some line. After a deliberate change, regenerate the file with
//
//	go test ./internal/harness -run TestTimelineGolden -update
//
// and review the diff.
func TestTimelineGolden(t *testing.T) {
	path := filepath.Join("testdata", "timeline.golden")
	got := timelineOutcomes(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d outcomes, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("outcome moved:\n  got:  %s\n  want: %s", gotLines[i], wantLines[i])
		}
	}
}
