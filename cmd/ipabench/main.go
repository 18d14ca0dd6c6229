// Command ipabench regenerates the tables and figures of the paper's
// evaluation (§5) on the simulated geo-replicated deployment.
//
// Usage:
//
//	ipabench -experiment all            # everything (takes a while)
//	ipabench -experiment fig4           # one figure
//	ipabench -experiment table1
//	ipabench -experiment fig7 -quick    # reduced parameters
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8a, fig8b, fig9, and
// the ablations beyond the paper: ablation-numeric, ablation-touch,
// ablation-stability, ablation-scope.
//
// Nothing else is measured here. The served system is measured by the
// benchmark/ package (bash benchmark/run.sh), which drives the real
// `ipa serve` binary over loopback; the infrastructure's own costs
// (engine executors, chaos schedules, crash recovery) are Go benchmarks
// next to the code they time (go test -run '^$' -bench .).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"ipa/internal/analysis"
	"ipa/internal/bench"
)

// errReported signals a failure already printed (flag usage): main exits
// non-zero without repeating it.
var errReported = errors.New("already reported")

func main() {
	if err := run(os.Args[1:]); err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "ipabench:", err)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ipabench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "", "which experiment to run (comma separated; default all)")
		quick      = fs.Bool("quick", false, "reduced parameters (faster, noisier)")
		seed       = fs.Int64("seed", 42, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return errReported
	}

	opts := bench.DefaultExpOptions()
	if *quick {
		opts = bench.QuickExpOptions()
	}
	opts.Seed = *seed

	all := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8a", "fig8b", "fig9",
		"ablation-numeric", "ablation-touch", "ablation-stability", "ablation-scope"}
	wanted := all
	if *experiment != "" && *experiment != "all" {
		wanted = strings.Split(*experiment, ",")
	}

	for _, name := range wanted {
		name = strings.TrimSpace(name)
		var (
			e   *bench.Experiment
			err error
		)
		switch name {
		case "table1":
			e, err = bench.Table1(analysis.Options{})
		case "fig4":
			e = bench.Fig4(opts)
		case "fig5":
			e = bench.Fig5(opts)
		case "fig6":
			e = bench.Fig6(opts)
		case "fig7":
			e = bench.Fig7(opts)
		case "fig8a":
			e = bench.Fig8a(opts)
		case "fig8b":
			e = bench.Fig8b(opts)
		case "fig9":
			e = bench.Fig9(opts)
		case "ablation-numeric":
			e = bench.AblationNumeric(opts)
		case "ablation-touch":
			e = bench.AblationTouch(opts)
		case "ablation-stability":
			e = bench.AblationStability(opts)
		case "ablation-scope":
			e = bench.AblationScope(opts)
		default:
			return fmt.Errorf("unknown experiment %q (want one of %s)", name, strings.Join(all, ", "))
		}
		if err != nil {
			return err
		}
		fmt.Println(e.Render())
	}
	return nil
}
