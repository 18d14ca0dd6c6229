package main

// The chaos subcommand: drive the deterministic chaos harness from the
// command line — seeded campaigns and schedule replay.
//
//	ipa chaos -app tournament -schedules 1000       # seeded campaign
//	ipa chaos -app tournament -variant causal       # watch the unrepaired app fail
//	ipa chaos -app tournament -break enroll         # disable one repair, catch it
//	ipa chaos -app tournament-spec                  # the engine-executed analyzed spec
//	ipa chaos -app spec:path/to/app.spec            # fuzz ANY mounted specification
//	ipa chaos -app tournament -seed 0xdeadbeef      # replay one schedule exactly
//	ipa chaos -app ticket -backend netrepl          # same campaign on real TCP sockets
//	ipa chaos -replay chaos-repro.json              # replay a shrunk repro file
//
// On violation the harness shrinks the failing schedule to a minimal
// repro, writes it as JSON, and prints both replay commands (full seed
// and shrunk file). Exit status 1 signals a violation.

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ipa/internal/harness"
	"ipa/internal/runtime"
	"ipa/internal/wan"
)

// errViolation signals that the campaign (or replay) reproduced an
// invariant violation: the details are already printed, the process
// must exit 1.
var errViolation = fmt.Errorf("chaos violation: %w", errReported)

func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	var (
		app       = fs.String("app", "tournament", "application to drive: "+strings.Join(harness.Apps(), ", ")+", or spec:<file> to mount and fuzz any specification")
		backend   = fs.String("backend", "sim", "replication backend: sim (deterministic, replayable) or netrepl (real TCP sockets)")
		variant   = fs.String("variant", "ipa", "application variant: ipa (repairs on) or causal (repairs off)")
		breakOp   = fs.String("break", "", "run exactly this op kind without its repair (self-test the harness)")
		replicas  = fs.Int("replicas", 3, "simulated replica sites")
		seedStr   = fs.String("seed", "", "replay exactly one schedule seed (hex or decimal) instead of a campaign")
		campaign  = fs.Uint64("campaign", 42, "campaign seed the per-schedule seeds derive from")
		schedules = fs.Int("schedules", 1000, "schedules to run before declaring the app clean")
		ops       = fs.Int("ops", 0, "ops per schedule (default 60)")
		faults    = fs.Int("faults", 0, "fault windows per schedule (default 6)")
		horizonMs = fs.Float64("horizon", 0, "workload horizon in virtual milliseconds (default 3000)")
		conc      = fs.Int("concurrency", 1, "parallel client workers per schedule (netrepl backend only)")
		replay    = fs.String("replay", "", "replay a schedule JSON file (from a previous shrink)")
		out       = fs.String("out", "", "path for the shrunk repro JSON (default chaos-repro-<seed>.json)")
		noShrink  = fs.Bool("no-shrink", false, "skip shrinking on violation")
		verbose   = fs.Bool("v", false, "print progress every 100 schedules")
	)
	if err := fs.Parse(args); err != nil {
		return errReported
	}

	switch {
	case *replay != "":
		s, err := harness.ReadScheduleFile(*replay)
		if err != nil {
			return err
		}
		v, err := harness.Execute(s)
		if err != nil {
			return err
		}
		if v == nil {
			fmt.Printf("schedule %s: no violation (%d ops, %d faults)\n", *replay, len(s.Ops), len(s.Faults))
			return nil
		}
		fmt.Printf("schedule %s reproduces:\n  %s\n", *replay, v)
		return errViolation

	default:
		cfg, err := harness.Config{
			App:      *app,
			Backend:  *backend,
			Variant:  *variant,
			BreakOp:  *breakOp,
			Replicas: *replicas,
			Ops:      *ops,
			Faults:   *faults,
			Horizon:  wan.Ms(*horizonMs),

			Concurrency: *conc,
		}.Norm()
		if err != nil {
			return err
		}

		if *seedStr != "" {
			seed, err := parseSeed(*seedStr)
			if err != nil {
				return err
			}
			s, v, err := harness.Replay(cfg, seed)
			if err != nil {
				return err
			}
			if v == nil {
				fmt.Printf("seed %#x: no violation (%d ops, %d faults)\n", seed, len(s.Ops), len(s.Faults))
				return nil
			}
			fmt.Printf("seed %#x reproduces:\n  %s\n", seed, v)
			return errViolation
		}

		var progress func(int, *harness.Schedule, *harness.Violation)
		if *verbose {
			progress = func(i int, _ *harness.Schedule, _ *harness.Violation) {
				if (i+1)%100 == 0 {
					fmt.Fprintf(os.Stderr, "  ... %d/%d schedules clean\n", i+1, *schedules)
				}
			}
		}
		// harness.RunWithShrink itself disables shrinking on the netrepl
		// backend (ddmin needs deterministic reproduction); this only
		// tells the user up front.
		if cfg.Backend == runtime.BackendNet && !*noShrink {
			fmt.Fprintln(os.Stderr, "chaos: shrinking disabled on the netrepl backend (runs are not bit-deterministic)")
		}
		res, err := harness.RunWithShrink(cfg, *campaign, *schedules, !*noShrink, progress)
		if err != nil {
			return err
		}
		if res.Violation == nil {
			fmt.Printf("%s/%s: %s\n", cfg.App, cfg.Variant, res.Summary())
			return nil
		}
		fmt.Print(res.Summary())
		fmt.Printf("\nreplay (full schedule):\n  ipa chaos %s -seed %#x\n", cfgFlags(cfg), res.Seed)
		if res.Shrunk != nil {
			path := *out
			if path == "" {
				path = fmt.Sprintf("chaos-repro-%#x.json", res.Seed)
			}
			if err := res.Shrunk.WriteFile(path); err != nil {
				return err
			}
			fmt.Printf("replay (shrunk, exact violation):\n  ipa chaos -replay %s\n", path)
		} else if res.Schedule != nil {
			// No shrunk repro (netrepl runs are not bit-deterministic):
			// ship the full failing schedule so CI can upload it and a
			// human can replay the workload exactly.
			path := *out
			if path == "" {
				path = fmt.Sprintf("chaos-repro-%#x.json", res.Seed)
			}
			if err := res.Schedule.WriteFile(path); err != nil {
				return err
			}
			fmt.Printf("replay (full schedule, workload-exact):\n  ipa chaos -replay %s\n", path)
		}
		return errViolation
	}
}

// cfgFlags renders the non-default flags that reproduce cfg.
func cfgFlags(cfg harness.Config) string {
	parts := []string{"-app " + cfg.App}
	if cfg.Backend != "" && cfg.Backend != "sim" {
		parts = append(parts, "-backend "+cfg.Backend)
	}
	if cfg.Variant != "ipa" {
		parts = append(parts, "-variant "+cfg.Variant)
	}
	if cfg.BreakOp != "" {
		parts = append(parts, "-break "+cfg.BreakOp)
	}
	d := harness.Defaults(cfg.App)
	if cfg.Replicas != d.Replicas {
		parts = append(parts, fmt.Sprintf("-replicas %d", cfg.Replicas))
	}
	if cfg.Ops != d.Ops {
		parts = append(parts, fmt.Sprintf("-ops %d", cfg.Ops))
	}
	if cfg.Faults != d.Faults {
		parts = append(parts, fmt.Sprintf("-faults %d", cfg.Faults))
	}
	if cfg.Horizon != d.Horizon {
		parts = append(parts, fmt.Sprintf("-horizon %g", cfg.Horizon.Millis()))
	}
	return strings.Join(parts, " ")
}

func parseSeed(s string) (uint64, error) {
	ls := strings.ToLower(s)
	var v uint64
	var err error
	if strings.HasPrefix(ls, "0x") {
		v, err = strconv.ParseUint(ls[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad seed %q (want decimal or 0x-hex)", s)
	}
	return v, nil
}
