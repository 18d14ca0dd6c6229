package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// shortSchedules is the per-app campaign size in -short mode; fullSchedules
// in a regular `go test` run. Nightly CI raises it via IPA_CHAOS_SCHEDULES.
const (
	shortSchedules = 60
	fullSchedules  = 400
)

func campaignSize(t *testing.T) int {
	if testing.Short() {
		return shortSchedules
	}
	return fullSchedules
}

// TestGenerateDeterministic: one seed, one schedule — bit-identical.
func TestGenerateDeterministic(t *testing.T) {
	for _, app := range Apps() {
		a, err := Generate(Defaults(app), 1234)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(Defaults(app), 1234)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: Generate not deterministic", app)
		}
		c, err := Generate(Defaults(app), 1235)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.Ops, c.Ops) {
			t.Fatalf("%s: different seeds produced identical op streams", app)
		}
	}
}

// TestExecuteDeterministic: executing the same schedule twice yields the
// same outcome — the property seed replay and shrinking rest on.
func TestExecuteDeterministic(t *testing.T) {
	cfg := Defaults("tournament")
	cfg.Variant = "causal"
	res, err := Run(cfg, 7, 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("causal tournament survived 200 chaos schedules — detection broken")
	}
	again, err := Execute(res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation.Equal(again) {
		t.Fatalf("replay diverged:\n  first:  %s\n  second: %s", res.Violation, again)
	}
}

// TestChaosIPAAppsClean is the main regression net: the IPA variant of
// every app must survive randomized chaos schedules with all invariants
// intact and all replicas converged.
func TestChaosIPAAppsClean(t *testing.T) {
	n := campaignSize(t)
	for _, app := range Apps() {
		app := app
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Defaults(app), 42, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("invariant violation under chaos:\n%s\nreplay: ipa chaos -app %s -seed %#x",
					res.Summary(), app, res.Seed)
			}
		})
	}
}

// TestChaosFiveReplicas runs a reduced campaign on the larger cluster.
func TestChaosFiveReplicas(t *testing.T) {
	n := campaignSize(t) / 2
	for _, app := range Apps() {
		cfg := Defaults(app)
		cfg.Replicas = 5
		res, err := Run(cfg, 99, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("%s on 5 replicas:\n%s", app, res.Summary())
		}
	}
}

// TestChaosCatchesCausal: the unrepaired applications must be caught
// violating their invariants — otherwise the harness checks nothing.
func TestChaosCatchesCausal(t *testing.T) {
	for _, app := range []string{"tournament", "ticket", "tpcw"} {
		cfg := Defaults(app)
		cfg.Variant = "causal"
		res, err := Run(cfg, 7, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation == nil {
			t.Fatalf("causal %s survived 1000 chaos schedules — checks are vacuous", app)
		}
		if res.Shrunk == nil || res.ShrunkViolation == nil {
			t.Fatalf("causal %s: violation found but not shrunk", app)
		}
		t.Logf("causal %s: caught at schedule %d, shrunk %d->%d ops",
			app, res.FoundAt, len(res.Schedule.Ops), len(res.Shrunk.Ops))
	}
}

// TestChaosCatchesBrokenRepair is the acceptance drill: disable exactly
// one repair (enroll loses its Fig. 3 ensure-effects) and require the
// harness to catch the resulting invariant bug within 1000 schedules,
// shrink it, and replay it deterministically from the printed seed.
func TestChaosCatchesBrokenRepair(t *testing.T) {
	cfg := Defaults("tournament")
	cfg.BreakOp = "enroll"
	res, err := Run(cfg, 7, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("broken enroll repair survived 1000 chaos schedules")
	}

	// The printed seed command must reproduce the identical violation.
	_, replayed, err := Replay(cfg, res.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation.Equal(replayed) {
		t.Fatalf("seed replay diverged:\n  found:    %s\n  replayed: %s", res.Violation, replayed)
	}

	// Shrinking must reduce the schedule and stay failing.
	if len(res.Shrunk.Ops) >= len(res.Schedule.Ops) {
		t.Fatalf("shrink did not reduce ops: %d -> %d", len(res.Schedule.Ops), len(res.Shrunk.Ops))
	}
	if res.ShrunkViolation == nil {
		t.Fatal("shrunk schedule does not fail")
	}

	// The shrunk schedule must replay identically — twice, and through
	// its serialized form.
	for i := 0; i < 2; i++ {
		v, err := Execute(res.Shrunk)
		if err != nil {
			t.Fatal(err)
		}
		if !res.ShrunkViolation.Equal(v) {
			t.Fatalf("shrunk replay %d diverged:\n  want: %s\n  got:  %s", i, res.ShrunkViolation, v)
		}
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := res.Shrunk.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadScheduleFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Execute(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShrunkViolation.Equal(v) {
		t.Fatalf("serialized replay diverged:\n  want: %s\n  got:  %s", res.ShrunkViolation, v)
	}
	t.Logf("caught at schedule %d (seed %#x), shrunk %d ops -> %d, %d faults -> %d",
		res.FoundAt, res.Seed, len(res.Schedule.Ops), len(res.Shrunk.Ops),
		len(res.Schedule.Faults), len(res.Shrunk.Faults))
}

// TestShrinkCleanScheduleIsNoop: shrinking a passing schedule returns it
// unchanged with no violation.
func TestShrinkCleanScheduleIsNoop(t *testing.T) {
	s, err := Generate(Defaults("tournament"), 5)
	if err != nil {
		t.Fatal(err)
	}
	shrunk, v, err := Shrink(s)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		t.Fatalf("clean schedule shrank to a violation: %s", v)
	}
	if len(shrunk.Ops) != len(s.Ops) || len(shrunk.Faults) != len(s.Faults) {
		t.Fatal("clean schedule was modified by shrinking")
	}
}

// TestConfigValidation rejects unusable configurations.
func TestConfigValidation(t *testing.T) {
	if _, err := (Config{App: "nope"}).Norm(); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := (Config{App: "tournament", Replicas: 1}).Norm(); err == nil {
		t.Fatal("single-replica cluster accepted")
	}
	if _, err := (Config{App: "tournament", Variant: "weird"}).Norm(); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := (Config{App: "twitter", BreakOp: "tweet"}).Norm(); err == nil {
		t.Fatal("break-op accepted for twitter (layouts differ)")
	}
}

// TestChaosNightly is the thousands-of-schedules campaign the nightly CI
// job runs (IPA_CHAOS_NIGHTLY=1, optionally IPA_CHAOS_SCHEDULES=N).
func TestChaosNightly(t *testing.T) {
	if os.Getenv("IPA_CHAOS_NIGHTLY") == "" {
		t.Skip("nightly campaign; set IPA_CHAOS_NIGHTLY=1 to run")
	}
	n := 3000
	if s := os.Getenv("IPA_CHAOS_SCHEDULES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			n = v
		}
	}
	for _, replicas := range []int{3, 5} {
		for _, app := range Apps() {
			app, replicas := app, replicas
			t.Run(app+"-"+strconv.Itoa(replicas), func(t *testing.T) {
				t.Parallel()
				cfg := Defaults(app)
				cfg.Replicas = replicas
				res, err := Run(cfg, 0x816417, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Violation != nil {
					t.Fatalf("nightly violation:\n%s", res.Summary())
				}
			})
		}
	}
}

// TestHealAfterHealAllIsNoop: the sim runs the heals of windows that end
// past the horizon while Quiesce drains its event loop, after healAll has
// closed every window. Those heals must leave every fault depth at 0.
func TestHealAfterHealAllIsNoop(t *testing.T) {
	ctx := newCtx(&Schedule{Seed: 1, Cfg: Defaults("tournament")})
	faults := []Fault{
		{Kind: FaultPartition, A: 0, B: 1},
		{Kind: FaultDelay, A: 0, B: 2, Factor: 4},
		{Kind: FaultPause, A: 1},
		{Kind: FaultStall},
		{Kind: FaultCrash, A: 2},
	}
	for _, f := range faults {
		ctx.inject(f)
	}
	ctx.healAll()
	for _, f := range faults {
		ctx.heal(f)
	}
	for k, d := range ctx.part {
		if d != 0 {
			t.Errorf("partition depth of link %v = %d, want 0", k, d)
		}
	}
	for k, d := range ctx.delay {
		t.Errorf("delay factor of link %v = %v, want none", k, d)
	}
	for i := range ctx.Sites {
		if ctx.paused[i] != 0 || ctx.crashed[i] != 0 {
			t.Errorf("site %d: pause depth %d, crash depth %d, want 0 and 0", i, ctx.paused[i], ctx.crashed[i])
		}
	}
	if ctx.stalls != 0 {
		t.Errorf("stall depth = %d, want 0", ctx.stalls)
	}
}
