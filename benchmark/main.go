// Command benchmark is the repository's one serving benchmark: it builds
// and spawns the real `ipa serve` binary, drives it over loopback with a
// closed loop of 2 connections × 8 pipelined CALLs, verifies the outcome
// and prints every metric by name and unit. See README.md beside this
// file for why each workload exists and how to read the numbers.
//
//	go run ./benchmark                                   # all five workloads, end-to-end metrics
//	go run ./benchmark -workload serve-steady,serve-wide # a subset
//	go run ./benchmark -trace 1 -workload serve-steady   # the per-layer ledger, spans on
//
// BENCHMARK.json at the repository root names benchmark/run.sh, which
// keeps the go build cache inside the checkout and then runs this
// program with the driver's arguments.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	var (
		workloadCSV = flag.String("workload", "", "workloads to run, comma separated (default: all five)")
		seed        = flag.Int64("seed", 42, "workload seed; connection i generates from seed + 7919·i")
		seconds     = flag.Int("seconds", 6, "measured window in seconds (serve-unattended: one 8,000-call episode per second of it)")
		trace       = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics — the wire run with spans on, then the in-process ledger")
	)
	flag.Parse()
	if err := run(*workloadCSV, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of standard output for each workload: the
// shape the driver's contract fixes.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is benchmark/out/results.json: every workload's numbers with
// the host they were measured on.
type report struct {
	Host      hostStamp                    `json:"host"`
	Seed      int64                        `json:"seed"`
	Seconds   int                          `json:"seconds"`
	Trace     bool                         `json:"trace"`
	Claim     *string                      `json:"claim"` // this benchmark claims no gain: null
	Workloads map[string]map[string]sample `json:"workloads"`
}

type sample struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

type hostStamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func run(workloadCSV string, seed int64, seconds int, traced bool) error {
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("-seconds %d: want 1 to 60", seconds)
	}
	selected := workloads
	if workloadCSV != "" {
		selected = nil
		for _, name := range strings.Split(workloadCSV, ",") {
			w, ok := workloadByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown workload %q", name)
			}
			selected = append(selected, w)
		}
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	outDir := filepath.Join(root, "benchmark", "out")
	scratch := filepath.Join(root, buildDir)
	for _, dir := range []string{outDir, scratch} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}

	// A signal, like the watchdog below, takes the children down first.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLiveServers()
		fmt.Fprintln(os.Stderr, "benchmark: interrupted; server killed")
		os.Exit(1)
	}()

	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	rep := report{Host: stampHost(root), Seed: seed, Seconds: seconds, Trace: traced, Workloads: map[string]map[string]sample{}}
	catalogue := endToEnd
	if traced {
		catalogue = perLayer()
	}

	for _, w := range selected {
		var tr *tracer
		if traced {
			tr = newTracer() // one trace per workload; trace.json holds the last one run
		}
		wr, err := measure(bin, scratch, w, seed, seconds, tr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if traced {
			if err := tr.write(filepath.Join(outDir, "trace.json")); err != nil {
				return err
			}
		}

		res := result{Correct: true, Attempted: wr.attempted, Failed: wr.failed, Metrics: map[string]metricValue{}}
		rep.Workloads[w.name] = map[string]sample{}
		for _, m := range catalogue {
			v, ok := wr.v[m.name]
			if !ok {
				return fmt.Errorf("%s: metric %s was not measured", w.name, m.name)
			}
			n := wr.samples[m.name]
			if n > 0 {
				fmt.Printf("%-18s %-36s %14.4f %-6s n=%d\n", w.name, m.name, v, m.unit, n)
			} else {
				fmt.Printf("%-18s %-36s %14.4f %s\n", w.name, m.name, v, m.unit)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
			rep.Workloads[w.name][m.name] = sample{v, m.unit, n}
		}
		if traced {
			// The end-to-end numbers of a traced run are not results (the
			// spans cost something); they go to stderr for comparison.
			for _, m := range endToEnd {
				fmt.Fprintf(os.Stderr, "  (traced) %-28s %14.4f %s\n", m.name, wr.v[m.name], m.unit)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}

	name := "results.json"
	if traced {
		name = "ledger.json"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
}

// measure runs one workload under a watchdog: the wire run and, when
// traced, the in-process ledger. A run whose sites diverged is void — it
// proves a defect of the store, not a number — and is repeated once on a
// fresh server; see README.md, "Known defect".
func measure(bin, scratch string, w workload, seed int64, seconds int, tr *tracer) (wireRun, error) {
	diverged := 0
	for {
		// A decayed or wedged server must fail loudly, not hang: past
		// three times the expected wall time (and always before the
		// driver's own 180 s limit) the child is killed, and the run
		// fails on the broken connections.
		limit := min(3*expectedWall(w, seconds, tr != nil), 170*time.Second)
		var timedOut atomic.Bool
		watchdog := time.AfterFunc(limit, func() {
			timedOut.Store(true)
			killLiveServers()
		})
		fmt.Fprintf(os.Stderr, "%s: seed %d, %d s, trace %v\n", w.name, seed, seconds, tr != nil)
		wr, err := runWire(bin, scratch, w, seed, seconds, tr)
		if err == nil && tr != nil {
			var ledger *values
			if ledger, err = runLedger(seed, scratch, tr); err == nil {
				for k, v := range ledger.v {
					wr.v[k] = v
				}
				for k, n := range ledger.samples {
					wr.samples[k] = n
				}
			}
		}
		watchdog.Stop()
		switch {
		case err == nil:
			wr.set("store.diverged_runs", float64(diverged))
			return wr, nil
		case timedOut.Load():
			return wr, fmt.Errorf("aborted after %v (3× the expected time): %w", limit, err)
		case errors.Is(err, errDiverged) && diverged == 0:
			diverged++
			fmt.Fprintf(os.Stderr, "%s: VOID RUN, repeating once on a fresh server: %v\n", w.name, err)
		default:
			return wr, err
		}
	}
}

// expectedWall is what one workload should take on the reference host
// (2 cores): ≈ 6.5 s of set-up, the warm-up, the window, verification,
// and for the traced run the in-process ledger.
func expectedWall(w workload, seconds int, traced bool) time.Duration {
	d := 8*time.Second + 2*time.Second + time.Duration(seconds)*time.Second + 4*time.Second
	if w.episodeCalls > 0 {
		d += time.Duration(seconds) * time.Second // an 8,000-call episode takes ≈ 1.3 s
	}
	if w.durable {
		d += 8 * time.Second // the restart analyses again
	}
	if w.pools.seedPlayers > 64 {
		d += 12 * time.Second // the warm-up's transient; CHECK and DIGEST over the wide state
	}
	if traced {
		d += 35 * time.Second
	}
	return d
}

func stampHost(root string) hostStamp {
	h := hostStamp{NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0), GoVersion: goruntime.Version(), Commit: "unknown"}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	// The driver's checkout is not a git repository; "unknown" is then
	// the honest stamp.
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
