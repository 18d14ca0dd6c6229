// Command ipa is the IPA analysis tool (paper §4.1) and server: it reads
// an application specification, detects the operation pairs that can
// violate invariants under concurrency, proposes repairs, and prints the
// patched, invariant-preserving specification together with the
// synthesised compensations — or serves analyzed applications to network
// clients.
//
// Usage:
//
//	ipa -app tournament                 # analyse a bundled application
//	ipa -spec path/to/app.spec          # analyse a spec file
//	ipa -app twitter -conflicts         # only list conflicts
//	ipa -app tournament -interactive    # choose repairs by hand
//	ipa -app ticket -classify           # Table-1 style classification
//	ipa -list                           # list bundled applications
//	ipa -netrepl 3                      # TCP replication smoke ring + metrics
//	ipa serve -app tournament           # serve over TCP (see serve.go)
//	ipa chaos -app tournament           # deterministic chaos campaign (see chaos.go)
//	ipa chaos -app spec:app.spec        # mount and fuzz any specification file
//	ipa chaos -replay repro.json        # replay a shrunk failure exactly
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"ipa/internal/analysis"
	"ipa/internal/apps/ticket"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/tpcw"
	"ipa/internal/apps/twitter"
	"ipa/internal/spec"
)

var bundled = map[string]func() *spec.Spec{
	"tournament": tournament.Spec,
	"twitter":    twitter.Spec,
	"ticket":     ticket.Spec,
	"tpcw":       tpcw.Spec,
}

// errReported signals a failure whose message is already on the user's
// terminal (flag usage, chaos violation summaries): main should exit
// non-zero without printing anything more.
var errReported = errors.New("already reported")

// main is the single exit point: every subcommand returns its error here
// so deferred cleanup (cluster close, listener release, artifact flush)
// has run by the time the process exits.
func main() {
	if err := run(os.Args[1:]); err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "ipa:", err)
		}
		os.Exit(1)
	}
}

func run(args []string) error {
	// Subcommand dispatch precedes flag parsing: `ipa chaos ...` and
	// `ipa serve ...` own their flag sets.
	if len(args) > 0 {
		switch args[0] {
		case "chaos":
			return runChaos(args[1:])
		case "serve":
			return runServe(args[1:])
		}
	}

	fs := flag.NewFlagSet("ipa", flag.ContinueOnError)
	var (
		specPath    = fs.String("spec", "", "path to a specification file")
		appName     = fs.String("app", "", "bundled application to analyse")
		list        = fs.Bool("list", false, "list bundled applications")
		onlyConf    = fs.Bool("conflicts", false, "only detect and print conflicts")
		classify    = fs.Bool("classify", false, "classify invariants (Table 1 style)")
		interactive = fs.Bool("interactive", false, "choose repairs interactively")
		scope       = fs.Int("scope", 0, "domain elements per sort (default 2)")
		maxPreds    = fs.Int("max-preds", 0, "max extra effects per repair (default 2)")

		netreplN    = fs.Int("netrepl", 0, "run a TCP replication smoke ring with this many nodes and print transport metrics")
		netreplTxns = fs.Int("netrepl-txns", 1000, "transactions per node in the smoke ring")
	)
	if err := fs.Parse(args); err != nil {
		return errReported // the flag package already printed usage
	}

	if *netreplN > 0 {
		return runNetrepl(*netreplN, *netreplTxns)
	}

	if *list {
		names := make([]string, 0, len(bundled))
		for n := range bundled {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	}

	s, err := loadSpec(*specPath, *appName)
	if err != nil {
		return err
	}

	opts := analysis.Options{Scope: *scope, MaxRepairPreds: *maxPreds}
	if *interactive {
		opts.Chooser = promptChooser(os.Stdin, os.Stdout)
	}

	switch {
	case *onlyConf:
		conflicts, err := analysis.FindConflicts(s, opts)
		if err != nil {
			return err
		}
		if len(conflicts) == 0 {
			fmt.Println("no conflicting operation pairs: the specification is I-confluent")
			return nil
		}
		for _, c := range conflicts {
			fmt.Println(c)
			fmt.Print(c.Example)
			fmt.Println()
		}

	case *classify:
		ccs, err := analysis.Classify(s, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s %-10s %-6s  %s\n", "class", "I-Conf.", "IPA", "clause")
		for _, cc := range ccs {
			clause := ""
			if cc.Clause != nil {
				clause = cc.Clause.String()
			}
			iconf := "No"
			if cc.IConfluent {
				iconf = "Yes"
			}
			fmt.Printf("%-18s %-10s %-6s  %s\n", cc.Class, iconf, cc.IPASupport, clause)
		}

	default:
		res, err := analysis.Run(s, opts)
		if err != nil {
			return err
		}
		fmt.Print(res.Summary())
		fmt.Println()
		fmt.Println("---- patch recipe ----")
		fmt.Print(res.Diff(s))
		fmt.Println()
		fmt.Println("---- patched specification ----")
		fmt.Print(res.Spec.String())
	}
	return nil
}

func loadSpec(path, app string) (*spec.Spec, error) {
	switch {
	case path != "":
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return spec.Parse(string(data))
	case app != "":
		mk, ok := bundled[app]
		if !ok {
			return nil, fmt.Errorf("unknown application %q (try -list)", app)
		}
		return mk(), nil
	}
	return nil, fmt.Errorf("one of -spec or -app is required")
}

// promptChooser implements the paper's interactive pickResolution: the
// programmer sees every proposed repair and selects the semantics that
// fits the application.
func promptChooser(in io.Reader, out io.Writer) func(*analysis.Conflict, []analysis.Repair) int {
	reader := bufio.NewReader(in)
	return func(c *analysis.Conflict, repairs []analysis.Repair) int {
		fmt.Fprintf(out, "\n%s\n", c)
		for i, r := range repairs {
			fmt.Fprintf(out, "  [%d] %s\n", i, r)
		}
		fmt.Fprintf(out, "choose resolution [0-%d, default 0]: ", len(repairs)-1)
		line, err := reader.ReadString('\n')
		if err != nil {
			return 0
		}
		line = strings.TrimSpace(line)
		if line == "" {
			return 0
		}
		n, err := strconv.Atoi(line)
		if err != nil || n < 0 || n >= len(repairs) {
			fmt.Fprintln(out, "invalid choice, using 0")
			return 0
		}
		return n
	}
}
