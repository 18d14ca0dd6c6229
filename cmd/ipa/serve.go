package main

// The serve subcommand: put an ipa database on the network. It opens a
// socket cluster (runtime.NetCluster), mounts the requested applications
// (bundled ones from their checked-in analysed spec, which is re-checked,
// and any spec file, analysed in full — both through Server.Mount, as
// MOUNT does), serves the RESP-style wire protocol, and drains gracefully on
// SIGINT/SIGTERM — stop accepting, finish in-flight calls, ack nothing
// after close, then settle replication and close the cluster, so every
// acknowledged CALL is durably applied at shutdown.
//
//	ipa serve -app tournament                       # netrepl cluster on :6390
//	ipa serve -addr :7000 -app tournament,twitter   # several bundled apps
//	ipa serve -spec path/to/app.spec                # analyze + serve any spec
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

	"ipa/internal/apps"
	"ipa/internal/runtime"
	"ipa/internal/server"
	"ipa/internal/wan"
)

// mountApp mounts the bundled application name from src, its embedded
// analysed spec. That text is the analysis's output by construction,
// marked or not, so the re-check at start must apply no repair: an edit
// that introduced a conflict is refused, not silently repaired.
func mountApp(srv *server.Server, name, src string) (string, error) {
	got, err := srv.Mount(src, true)
	if err != nil {
		return "", fmt.Errorf("serve: mount %s: %w", name, err)
	}
	return got, nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:6390", "listen address")
		backend  = fs.String("backend", runtime.BackendNet, "replication backend: netrepl, the only one ipa serve runs on")
		appsCSV  = fs.String("app", "", "bundled applications to mount, comma separated (each from its checked-in analysed spec, re-checked at start)")
		specPath = fs.String("spec", "", "specification file to analyze and mount")
		sites    = fs.Int("sites", 3, "replica sites in the cluster")
		dataDir  = fs.String("data-dir", "", "durability root: per-site WAL + snapshots under <dir>/<site>; restart recovers")
		drain    = fs.Duration("drain", 10*time.Second, "graceful drain timeout on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return errReported
	}
	if *backend != runtime.BackendNet {
		return fmt.Errorf("serve: -backend %q: ipa serve runs on the %s backend only", *backend, runtime.BackendNet)
	}
	if *appsCSV == "" && *specPath == "" {
		return fmt.Errorf("serve: nothing to serve — pass -app and/or -spec (clients can also MOUNT over the wire)")
	}
	if *sites < 1 {
		return fmt.Errorf("serve: -sites must be at least 1")
	}

	cluster, err := runtime.NewNetCluster(wan.SiteIDs(*sites), runtime.NetConfig{DataDir: *dataDir})
	if err != nil {
		return err
	}
	defer cluster.Close()

	srv := server.New(cluster, server.Config{DrainTimeout: *drain})
	var mounted []string
	if *appsCSV != "" {
		for _, name := range strings.Split(*appsCSV, ",") {
			name = strings.TrimSpace(name)
			src, ok := apps.Patched(name)
			if !ok {
				return fmt.Errorf("serve: unknown application %q (try ipa -list)", name)
			}
			got, err := mountApp(srv, name, src)
			if err != nil {
				return err
			}
			mounted = append(mounted, got)
		}
	}
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			return err
		}
		got, err := srv.Mount(string(data), false)
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
		srv.Addr(), runtime.BackendNet, *sites, strings.Join(mounted, ", "))

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
	if err := cluster.Settle(); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "ipa serve: drained clean (%d conns served, %d commands, %d calls, %d refusals)\n",
		st.ConnsAccepted, st.Commands, st.Calls, st.Refusals)
	return nil
}
