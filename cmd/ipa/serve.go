package main

// The serve subcommand: put an ipa database on the network. It opens a
// cluster on either backend, mounts the requested applications (bundled
// ones from their checked-in analysis output, or any spec file, analyzed
// in full), serves the RESP-style wire protocol, and drains gracefully on
// SIGINT/SIGTERM — stop accepting, finish in-flight calls, ack nothing
// after close, then settle replication and close the cluster, so every
// acknowledged CALL is durably applied at shutdown.
//
//	ipa serve -app tournament                       # netrepl cluster on :6390
//	ipa serve -addr :7000 -app tournament,twitter   # several bundled apps
//	ipa serve -spec path/to/app.spec                # analyze + serve any spec
//	ipa serve -backend sim -seed 7                  # deterministic sim backend
//	ipa serve -app tournament -data-dir /var/ipa    # durable sites; restart recovers
//	redis-cli -p 6390 PING                          # inline commands round-trip
//
// See DESIGN.md ("The serving layer") for the protocol.

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ipa"
	"ipa/internal/analysis"
	"ipa/internal/apps/tournament"
	"ipa/internal/apps/twitter"
	"ipa/internal/server"
	"ipa/internal/spec"
	"ipa/internal/wan"
)

// bundledAnalysis maps the bundled applications with recorded repair
// choices (the paper's figures) to their checked-in analysis output: the
// patched specification those choices derive. The rest analyze fresh
// with default options.
var bundledAnalysis = map[string]func() *spec.Spec{
	"tournament": tournament.PatchedSpec,
	"twitter":    twitter.PatchedSpec,
}

// bundledResult returns the bundled application name's original
// specification and the analysis result serving mounts it with. The
// analysis starts from the checked-in patched spec where there is one,
// else from the original. A patched spec is the output of the full
// repair search, so Alg. 1 run on it finds every pair repaired and
// applies nothing: what it still does is derive the compensations and the
// unsolved conflicts, and check the file. If it applies a repair, the
// file is not the analysis's output, and serving refuses it.
func bundledResult(name string) (*spec.Spec, *analysis.Result, error) {
	mk, ok := bundled[name]
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown application %q (try ipa -list)", name)
	}
	orig := mk()
	start := orig
	if patched, ok := bundledAnalysis[name]; ok {
		start = patched()
	}
	res, err := analysis.Run(start, analysis.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("serve: analyze %s: %w", name, err)
	}
	if len(res.Applied) > 0 && start != orig {
		a := res.Applied[0]
		return nil, nil, fmt.Errorf("serve: %s: the checked-in patched spec is not a fixed point of the analysis (a run from it applied %d repair(s), the first for %s ∥ %s)",
			name, len(res.Applied), a.Conflict.Op1.Name, a.Conflict.Op2.Name)
	}
	return orig, res, nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:6390", "listen address")
		backend  = fs.String("backend", ipa.BackendNet, "replication backend: sim or netrepl")
		appsCSV  = fs.String("app", "", "bundled applications to mount, comma separated (those with recorded repair choices are served from their checked-in patched spec, re-checked at start)")
		specPath = fs.String("spec", "", "specification file to analyze and mount")
		sites    = fs.Int("sites", 3, "replica sites in the cluster")
		seed     = fs.Int64("seed", 42, "simulation seed (sim backend)")
		dataDir  = fs.String("data-dir", "", "durability root (netrepl backend): per-site WAL + snapshots under <dir>/<site>; restart recovers")
		drain    = fs.Duration("drain", 10*time.Second, "graceful drain timeout on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return errReported
	}
	if *appsCSV == "" && *specPath == "" {
		return fmt.Errorf("serve: nothing to serve — pass -app and/or -spec (clients can also MOUNT over the wire)")
	}
	if *sites < 1 {
		return fmt.Errorf("serve: -sites must be at least 1")
	}

	db, err := ipa.Open(ipa.ClusterOptions{Backend: *backend, Sites: serveSites(*sites), Seed: *seed, DataDir: *dataDir})
	if err != nil {
		return err
	}
	defer db.Close()

	srv := server.New(db.Cluster(), server.Config{DrainTimeout: *drain})
	var mounted []string
	if *appsCSV != "" {
		for _, name := range strings.Split(*appsCSV, ",") {
			name = strings.TrimSpace(name)
			orig, res, err := bundledResult(name)
			if err != nil {
				return err
			}
			// The original spec tells mount which effects the analysis
			// injected: those run as payload-preserving touches.
			got, err := srv.MountAnalyzed(orig, res)
			if err != nil {
				return fmt.Errorf("serve: mount %s: %w", name, err)
			}
			mounted = append(mounted, got)
		}
	}
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		got, err := srv.Mount(string(data))
		if err != nil {
			return fmt.Errorf("serve: mount %s: %w", *specPath, err)
		}
		mounted = append(mounted, got)
	}

	// Catch SIGTERM before serving: a client may act on the listening line
	// and stop the server before this goroutine runs again.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := srv.Start(*addr); err != nil {
		return err
	}
	fmt.Printf("ipa serve: listening on %s (%s backend, %d sites, apps: %s)\n",
		srv.Addr(), db.Cluster().Backend(), *sites, strings.Join(mounted, ", "))

	got := <-sig
	signal.Stop(sig)
	fmt.Fprintf(os.Stderr, "ipa serve: %s: draining (%v timeout)...\n", got, *drain)

	// The exit ordering that makes acks durable: drain connections (every
	// acked CALL has executed), settle replication (every executed CALL is
	// delivered at every site), then the deferred Close releases the
	// cluster.
	if err := srv.Shutdown(); err != nil {
		return err
	}
	if err := db.Settle(); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "ipa serve: drained clean (%d conns served, %d commands, %d calls, %d refusals)\n",
		st.ConnsAccepted, st.Commands, st.Calls, st.Refusals)
	return nil
}

// serveSites names n replica sites: the paper's three WAN sites first,
// then synthetic ones (the harness's naming).
func serveSites(n int) []ipa.ReplicaID {
	base := wan.Sites()
	ids := make([]ipa.ReplicaID, 0, n)
	for i := 0; i < n; i++ {
		if i < len(base) {
			ids = append(ids, ipa.ReplicaID(base[i]))
		} else {
			ids = append(ids, ipa.ReplicaID(fmt.Sprintf("site-%d", i)))
		}
	}
	return ids
}
