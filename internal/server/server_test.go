package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ipa/internal/apps/tournament"
	"ipa/internal/clock"
	"ipa/internal/netrepl"
	"ipa/internal/runtime"
	"ipa/internal/wan"
)

func siteIDs() []clock.ReplicaID {
	var ids []clock.ReplicaID
	for _, s := range wan.Sites() {
		ids = append(ids, clock.ReplicaID(s))
	}
	return ids
}

// newTestCluster builds a 3-site socket cluster.
func newTestCluster(t *testing.T) *runtime.NetCluster {
	t.Helper()
	c, err := runtime.NewNetCluster(siteIDs(), runtime.NetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startServer boots a server with the tournament app mounted.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	cluster := newTestCluster(t)
	srv := New(cluster, Config{DrainTimeout: 30 * time.Second})
	if _, err := srv.MountAnalyzed(nil, tournament.Analysis()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	return srv, srv.Addr()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// quiesceRemote runs the harness's quiescence protocol over the wire and
// fails the test on invariant violations or digest divergence.
func quiesceRemote(t *testing.T, c *Client, app string) {
	t.Helper()
	if err := c.DoOK("SETTLE"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := c.DoOK("REPAIR", app); err != nil {
			t.Fatal(err)
		}
		if err := c.DoOK("SETTLE"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.DoOK("STABILIZE"); err != nil {
		t.Fatal(err)
	}
	rp, err := c.Do("CHECK", app)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	if v := rp.Strings(); len(v) > 0 {
		t.Fatalf("invariant violations: %v", v)
	}
	rp, err = c.Do("DIGEST", app)
	if err != nil {
		t.Fatal(err)
	}
	ds := rp.Strings()
	if len(ds) < 2 {
		t.Fatalf("DIGEST returned %v", ds)
	}
	strip := func(s string) string {
		_, rest, _ := strings.Cut(s, " ")
		return rest
	}
	for _, d := range ds[1:] {
		if strip(d) != strip(ds[0]) {
			t.Fatalf("replicas diverged:\n%s", strings.Join(ds, "\n"))
		}
	}
}

// callOK sends one CALL and accepts +OK or a PRECONDITION refusal.
func callOK(t *testing.T, c *Client, args ...string) {
	t.Helper()
	rp, err := c.Do(args...)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Kind == '-' && !strings.HasPrefix(rp.Str, "PRECONDITION") {
		t.Fatalf("%v: %s", args, rp.Str)
	}
}

// TestServeEndToEnd names the backend it serves in its subtest, as it did
// when the server also served the simulator.
func TestServeEndToEnd(t *testing.T) {
	t.Run("netrepl", serveEndToEnd)
}

func serveEndToEnd(t *testing.T) {
	_, addr := startServer(t)
	ctl := dialT(t, addr)

	// Basic command surface.
	if rp, err := ctl.Do("PING"); err != nil || rp.Str != "PONG" {
		t.Fatalf("PING = %+v, %v", rp, err)
	}
	if rp, err := ctl.Do("APPS"); err != nil || strings.Join(rp.Strings(), ",") != "tournament" {
		t.Fatalf("APPS = %+v, %v", rp, err)
	}
	rp, err := ctl.Do("OPS", "tournament")
	if err != nil || len(rp.Strings()) == 0 {
		t.Fatalf("OPS = %+v, %v", rp, err)
	}
	if rp, _ := ctl.Do("CALL", "tournament", "nosuch"); rp.Kind != '-' {
		t.Fatalf("unknown op must error, got %+v", rp)
	}
	if rp, _ := ctl.Do("NOSUCHCMD"); rp.Kind != '-' {
		t.Fatalf("unknown command must error, got %+v", rp)
	}

	// Site affinity: default is deterministic, SITE pins.
	rp, err = ctl.Do("SITE")
	if err != nil || rp.Str == "" {
		t.Fatalf("SITE = %+v, %v", rp, err)
	}
	if err := ctl.DoOK("SITE", wan.Sites()[1]); err != nil {
		t.Fatal(err)
	}
	if rp, _ := ctl.Do("SITE", "mars"); rp.Kind != '-' {
		t.Fatalf("bad site must error, got %+v", rp)
	}

	// Seed the domain.
	for i := 0; i < 6; i++ {
		callOK(t, ctl, "CALL", "tournament", "add_player", fmt.Sprintf("p%d", i))
	}
	callOK(t, ctl, "CALL", "tournament", "add_tourn", "t0")
	callOK(t, ctl, "CALL", "tournament", "begin_tourn", "t0")
	if err := ctl.DoOK("SETTLE"); err != nil {
		t.Fatal(err)
	}

	// Concurrent pipelined clients, each pinned to a site.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for w := 0; w < 3; w++ {
		c := dialT(t, addr)
		if err := c.DoOK("SITE", wan.Sites()[w%3]); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, c *Client) {
			defer wg.Done()
			const depth = 8
			for batch := 0; batch < 10; batch++ {
				for i := 0; i < depth; i++ {
					p := fmt.Sprintf("p%d", (batch+i)%6)
					switch i % 3 {
					case 0:
						c.Send("CALL", "tournament", "enroll", p, "t0")
					case 1:
						c.Send("CALL", "tournament", "do_match", p, fmt.Sprintf("p%d", (batch+i+1)%6), "t0")
					default:
						c.Send("CALL", "tournament", "disenroll", p, "t0")
					}
				}
				if err := c.Flush(); err != nil {
					errs[w] = err
					return
				}
				for i := 0; i < depth; i++ {
					rp, err := c.Recv()
					if err != nil {
						errs[w] = err
						return
					}
					if rp.Kind == '-' && !strings.HasPrefix(rp.Str, "PRECONDITION") {
						errs[w] = errors.New(rp.Str)
						return
					}
				}
			}
		}(w, c)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", w, err)
		}
	}

	// Kill a client mid-stream: write half a command and vanish.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write([]byte("*3\r\n$4\r\nCALL\r\n$10\r\ntourn")); err != nil {
		t.Fatal(err)
	}
	raw.Close()
	// A malformed frame gets an error reply, then a hangup.
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw2.Write([]byte("*abc\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	raw2.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, _ := raw2.Read(buf)
	if n == 0 || buf[0] != '-' {
		t.Fatalf("malformed frame reply = %q", buf[:n])
	}
	raw2.Close()

	// Reconnect and keep working: the server survived both.
	c2 := dialT(t, addr)
	callOK(t, c2, "CALL", "tournament", "enroll", "p0", "t0")

	quiesceRemote(t, ctl, "tournament")
}

// TestServeInline drives the server exactly like a redis-cli-style tool:
// inline space-separated commands, one per line.
func TestServeInline(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	c.SendInline("PING")
	c.SendInline("CALL tournament add_player alice")
	c.SendInline("CALL tournament add_tourn cup")
	c.SendInline("CALL tournament enroll alice cup")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{'+', '+', '+', '+'} {
		rp, err := c.Recv()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if rp.Kind != want {
			t.Fatalf("reply %d = %+v, want kind %q", i, rp, want)
		}
	}
	quiesceRemote(t, c, "tournament")
}

// TestServeMountOverWire mounts a fresh spec through the MOUNT command
// and calls it.
func TestServeMountOverWire(t *testing.T) {
	cluster := newTestCluster(t)
	srv := New(cluster, Config{})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	c := dialT(t, srv.Addr())

	src := "spec scratch\noperation put(Key: k) {\n    present(k) := true\n}\n"
	rp, err := c.Do("MOUNT", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Err(); err != nil {
		t.Fatal(err)
	}
	if rp.Str != "scratch" {
		t.Fatalf("MOUNT = %+v", rp)
	}
	if rp, _ := c.Do("MOUNT", src); rp.Kind != '-' {
		t.Fatalf("double mount must error, got %+v", rp)
	}
	callOK(t, c, "CALL", "scratch", "put", "k1")
	if err := c.DoOK("SETTLE"); err != nil {
		t.Fatal(err)
	}
}

// TestServeGracefulShutdown is the acked-implies-applied test: clients
// hammer CALLs while the server shuts down mid-stream; afterwards every
// CALL that was acknowledged on the wire must be durably applied on
// every replica. Un-acked in-flight commands may be dropped — but
// nothing acked may be lost.
func TestServeGracefulShutdown(t *testing.T) {
	cluster := newTestCluster(t)
	srv := New(cluster, Config{DrainTimeout: 30 * time.Second})
	// A two-op probe spec: add(x) asserts p(x); probe(x) requires p(x).
	// An acked add that probe refuses afterwards was acked-but-lost.
	src := "spec acks\noperation add(Item: x) {\n    p(x) := true\n}\noperation probe(Item: x) {\n    requires p(x)\n    q(x) := true\n}\n"
	if _, err := srv.Mount(src, false); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	const clients = 4
	acked := make([][]string, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		c, err := Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.DoOK("SITE", wan.Sites()[w%3]); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(w int, c *Client) {
			defer wg.Done()
			defer c.Close()
			// Pipelined in small batches so shutdown lands mid-pipeline
			// for some client: replies already read are acked; the rest
			// of the batch legitimately dies with the connection.
			const depth = 4
			for seq := 0; ; seq += depth {
				for i := 0; i < depth; i++ {
					c.Send("CALL", "acks", "add", fmt.Sprintf("c%d-%d", w, seq+i))
				}
				if err := c.Flush(); err != nil {
					return
				}
				for i := 0; i < depth; i++ {
					rp, err := c.Recv()
					if err != nil {
						return
					}
					if rp.Kind == '-' {
						return
					}
					acked[w] = append(acked[w], fmt.Sprintf("c%d-%d", w, seq+i))
				}
			}
		}(w, c)
	}

	// Let load build, then drain. Shutdown returns only after every
	// handler finished its in-flight command and flushed.
	time.Sleep(100 * time.Millisecond)
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// The drain contract continues: settle replication so every acked
	// (= executed) CALL is delivered at every site, then verify.
	if err := cluster.Settle(); err != nil {
		t.Fatal(err)
	}

	app, ok := srv.App("acks")
	if !ok {
		t.Fatal("app lost")
	}
	total := 0
	for w := range acked {
		total += len(acked[w])
	}
	if total == 0 {
		t.Fatal("no CALLs were acked before shutdown — the test raced to nothing")
	}
	for _, id := range cluster.Replicas() {
		r := cluster.Replica(id)
		for w := range acked {
			for _, x := range acked[w] {
				if err := app.Call(r, "probe", x); err != nil {
					t.Fatalf("acked add(%s) not applied at %s: %v", x, id, err)
				}
			}
		}
	}
	t.Logf("verified %d acked ops durably applied on %d replicas", total, len(cluster.Replicas()))

	// No lingering connections, and new ones are refused.
	if st := srv.Stats(); st.ConnsActive != 0 {
		t.Fatalf("%d connections still active after Shutdown", st.ConnsActive)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestServeBackpressure floods one connection with pipelined commands
// whose replies add up to four times maxWriteBuffer: the server must
// neither grow its reply buffer unboundedly nor stall — it flushes
// mid-batch and the client eventually reads every reply. The commands go
// out on their own goroutine while the replies are read, as a pipelining
// client's must once replies outgrow the socket buffers.
func TestServeBackpressure(t *testing.T) {
	cluster := newTestCluster(t)
	srv := New(cluster, Config{})
	if _, err := srv.MountAnalyzed(nil, tournament.Analysis()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	c := dialT(t, srv.Addr())
	c.conn.SetDeadline(time.Now().Add(30 * time.Second))

	const n = 3000
	pad := strings.Repeat("x", 4*maxWriteBuffer/n)
	arg := func(i int) string { return fmt.Sprintf("%06d", i) + pad }
	sent := make(chan error, 1)
	go func() {
		var cmds []byte
		for i := 0; i < n; i++ {
			cmds = AppendCommand(cmds, "PING", arg(i))
		}
		_, err := c.conn.Write(cmds)
		sent <- err
	}()
	for i := 0; i < n; i++ {
		rp, err := c.Recv()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if rp.Str != arg(i) {
			t.Fatalf("reply %d = %.6q…: replies out of order", i, rp.Str)
		}
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
}

// TestServeDurablePipelinedCallsShareOneFsync is the acked ⇒ durable
// check through the server: one connection writes 64 pipelined CALLs in a
// single write, and the flush that carries their replies is their
// acknowledgement point. The site's log must show the batch sharing
// fsyncs (at least four appends per sync), and a kill -9 of the site the
// moment the replies are read must lose none of them. The transport's
// flush interval is raised so peer senders, which also fsync before they
// ship, do not sync mid-batch: the fsyncs counted are the connection's.
func TestServeDurablePipelinedCallsShareOneFsync(t *testing.T) {
	nc, err := runtime.NewNetCluster(siteIDs(), runtime.NetConfig{
		Transport: netrepl.Config{FlushInterval: 200 * time.Millisecond},
		DataDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	srv := New(nc, Config{})
	if _, err := srv.MountAnalyzed(nil, tournament.Analysis()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	c := dialT(t, srv.Addr())
	site := siteIDs()[0]
	if err := c.DoOK("SITE", string(site)); err != nil {
		t.Fatal(err)
	}

	before := nc.Node(site).Stats()
	const n = 64
	for i := 0; i < n; i++ {
		c.Send("CALL", "tournament", "add_player", fmt.Sprintf("p%02d", i))
	}
	c.Send("DIGEST", "tournament")
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rp, err := c.Recv()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if err := rp.Err(); err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
	}
	rp, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	acked := siteDigest(t, rp.Strings(), site)
	after := nc.Node(site).Stats()
	appends, syncs := after.WALAppends-before.WALAppends, after.WALSyncs-before.WALSyncs
	if appends != n {
		t.Fatalf("batch appended %d log records, want %d", appends, n)
	}
	if syncs == 0 || appends < 4*syncs {
		t.Fatalf("batch: %d appends in %d syncs, want ≥ 4 appends per sync (one group commit per flush)", appends, syncs)
	}
	t.Logf("batch: %d appends in %d syncs", appends, syncs)

	// Every reply is on the wire: kill -9 the site, then recover it from
	// its log alone. All 64 acked calls must be there.
	if err := nc.Crash(site); err != nil {
		t.Fatal(err)
	}
	if err := nc.Recover(site); err != nil {
		t.Fatal(err)
	}
	rp, err = c.Do("DIGEST", "tournament")
	if err != nil {
		t.Fatal(err)
	}
	if got := siteDigest(t, rp.Strings(), site); got != acked {
		t.Fatalf("site %s after kill -9 and recovery: digest %s, want the acked %s", site, got, acked)
	}
}

// siteDigest picks one site's digest out of a DIGEST reply.
func siteDigest(t *testing.T, lines []string, site clock.ReplicaID) string {
	t.Helper()
	for _, l := range lines {
		if id, d, ok := strings.Cut(l, " "); ok && id == string(site) {
			return d
		}
	}
	t.Fatalf("DIGEST %v has no line for site %s", lines, site)
	return ""
}

// TestDefaultSiteDeterministic pins the consistent-hash site choice:
// same client host, same site.
func TestDefaultSiteDeterministic(t *testing.T) {
	cluster := newTestCluster(t)
	srv := New(cluster, Config{})
	a := srv.defaultSite("10.1.2.3:5555")
	b := srv.defaultSite("10.1.2.3:6666")
	if a != b {
		t.Fatalf("same host mapped to different sites: %s vs %s", a, b)
	}
	found := false
	for _, id := range cluster.Replicas() {
		if id == a {
			found = true
		}
	}
	if !found {
		t.Fatalf("site %s not in cluster", a)
	}
}

// TestInfoReplicationCounters pins the INFO surface on a 3-site socket
// cluster: the reply's keys, in order (the serving benchmark parses
// them), and the replication transport's counters. After real replicated
// traffic the aggregate counters must show frames on the wire, no dropped
// transactions (a nonzero repl_txns_dropped is an operator alarm — it
// means a permanent causal gap) and, once settled, nothing retained for
// a peer.
func TestInfoReplicationCounters(t *testing.T) {
	_, addr := startServer(t)
	ctl := dialT(t, addr)
	for i := 0; i < 5; i++ {
		callOK(t, ctl, "CALL", "tournament", "add_player", fmt.Sprintf("p%d", i))
	}
	if err := ctl.DoOK("SETTLE"); err != nil {
		t.Fatal(err)
	}
	rp, err := ctl.Do("INFO")
	if err != nil {
		t.Fatal(err)
	}
	info := map[string]string{}
	var keys []string
	for _, line := range strings.Split(rp.Str, "\r\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			info[k] = v
			keys = append(keys, k)
		}
	}
	want := []string{
		"backend", "sites", "apps",
		"conns_accepted", "conns_active", "commands", "calls", "refusals",
		"engine_fallback_calls", "engine_domain_enum_calls",
		"repl_frames_sent", "repl_txns_sent", "repl_bytes_sent",
		"repl_frames_recv", "repl_txns_recv", "repl_bytes_recv",
		"repl_send_errors", "repl_txns_dropped", "repl_retained_txns", "repl_reconnects",
		"repl_wal_appends", "repl_wal_syncs", "repl_wal_bytes", "repl_wal_segments",
		"repl_snapshots", "repl_stalled_origins",
	}
	if strings.Join(keys, " ") != strings.Join(want, " ") {
		t.Fatalf("INFO keys:\n got %v\nwant %v", keys, want)
	}
	if info["backend"] != "netrepl" || info["sites"] != joinSites(siteIDs()) || info["apps"] != "tournament" {
		t.Fatalf("INFO backend/sites/apps = %q/%q/%q", info["backend"], info["sites"], info["apps"])
	}
	for _, key := range []string{"repl_frames_sent", "repl_txns_sent", "repl_txns_recv", "repl_bytes_sent"} {
		if info[key] == "" || info[key] == "0" {
			t.Fatalf("INFO %s = %q, want nonzero after replicated traffic\nINFO:\n%s", key, info[key], rp.Str)
		}
	}
	for _, key := range []string{"repl_txns_dropped", "repl_send_errors", "repl_retained_txns"} {
		if info[key] != "0" {
			t.Fatalf("INFO %s = %q, want 0 on a settled healthy mesh\nINFO:\n%s", key, info[key], rp.Str)
		}
	}
}

// TestInfoEngineSlowPaths pins the engine's slow-path counters: every
// tournament operation is join-planned, so a mix of all of them leaves
// both at 0; a spec whose guard has a variable no generator covers
// (nothing must be true for a disjunction to be false) shows up in
// engine_domain_enum_calls the first time that guard runs.
func TestInfoEngineSlowPaths(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)
	info := func() map[string]string {
		t.Helper()
		rp, err := c.Do("INFO")
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, line := range strings.Split(rp.Str, "\r\n") {
			if k, v, ok := strings.Cut(line, ":"); ok {
				out[k] = v
			}
		}
		return out
	}
	for _, call := range [][]string{
		{"add_player", "p0"}, {"add_player", "p1"}, {"add_tourn", "t0"},
		{"enroll", "p0", "t0"}, {"enroll", "p1", "t0"}, {"begin_tourn", "t0"},
		{"do_match", "p0", "p1", "t0"}, {"finish_tourn", "t0"}, {"begin_tourn", "t0"},
		{"disenroll", "p0", "t0"}, {"rem_tourn", "t0"}, {"disenroll", "p1", "t0"}, {"rem_tourn", "t0"},
	} {
		callOK(t, c, append([]string{"CALL", "tournament"}, call...)...)
	}
	if got := info(); got["engine_fallback_calls"] != "0" || got["engine_domain_enum_calls"] != "0" {
		t.Fatalf("tournament mix took a slow path: fallback=%q domain_enum=%q",
			got["engine_fallback_calls"], got["engine_domain_enum_calls"])
	}
	rp, err := c.Do("MOUNT", `spec nogen
invariant forall (A: x, B: y) :- p(x) or q(y)
operation mkq(B: y) {
 q(y) := true
}
operation rmq(B: y) {
 q(y) := false
}`)
	if err != nil || rp.Err() != nil {
		t.Fatalf("MOUNT: %v %v", err, rp.Err())
	}
	callOK(t, c, "CALL", "nogen", "mkq", "y0")
	callOK(t, c, "CALL", "nogen", "rmq", "y0")
	if got := info(); got["engine_fallback_calls"] != "0" || got["engine_domain_enum_calls"] != "1" {
		t.Fatalf("after one generator-less guard: fallback=%q domain_enum=%q, want 0 and 1",
			got["engine_fallback_calls"], got["engine_domain_enum_calls"])
	}
}

// TestClientName pins the CLIENT SETNAME/GETNAME round-trip that standard
// RESP clients send on connect.
func TestClientName(t *testing.T) {
	_, addr := startServer(t)
	c := dialT(t, addr)

	rp, err := c.Do("CLIENT", "GETNAME")
	if err != nil || rp.Err() != nil || rp.Str != "" {
		t.Fatalf("GETNAME before SETNAME = %q (%v %v), want empty", rp.Str, err, rp.Err())
	}
	if err := c.DoOK("CLIENT", "SETNAME", "ops-probe"); err != nil {
		t.Fatal(err)
	}
	rp, err = c.Do("CLIENT", "GETNAME")
	if err != nil || rp.Str != "ops-probe" {
		t.Fatalf("GETNAME = %q (%v), want ops-probe", rp.Str, err)
	}

	// Malformed CLIENT is an error reply, not a hangup.
	rp, err = c.Do("CLIENT")
	if err != nil || rp.Kind != '-' {
		t.Fatalf("bare CLIENT = kind %q (%v), want error reply", rp.Kind, err)
	}
	if err := c.DoOK("PING"); err == nil {
		t.Log("connection still serving after CLIENT usage error")
	} else {
		t.Fatalf("connection died after CLIENT usage error: %v", err)
	}
}
