package server

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/analysis"
	"ipa/internal/clock"
	"ipa/internal/engine"
	"ipa/internal/netrepl"
	"ipa/internal/runtime"
	"ipa/internal/spec"
	"ipa/internal/store"
)

// Config tunes a Server. The zero value selects the default noted on
// its field.
type Config struct {
	// DrainTimeout bounds how long Shutdown waits for in-flight commands
	// to finish before force-closing connections. Default 10s.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// maxWriteBuffer bounds the per-connection reply buffer. A pipelined
// burst whose replies exceed it flushes to the socket mid-batch, so a
// client that stops reading eventually blocks its own connection
// (backpressure) instead of growing server memory.
const maxWriteBuffer = 256 << 10

// Stats is a point-in-time snapshot of the server's counters.
type Stats struct {
	// ConnsAccepted / ConnsActive count client connections.
	ConnsAccepted, ConnsActive int64
	// Commands counts every executed command; Calls the CALL subset;
	// Refusals the CALLs that returned ErrPrecondition (guarded no-ops).
	Commands, Calls, Refusals int64
}

// Server exposes a socket cluster (runtime.NetCluster) over TCP with the
// RESP-style protocol. Mount applications, Start the listener, Shutdown
// to drain.
//
// Concurrency: connections execute commands concurrently; each replica
// runs their transactions one at a time under its lock, while parsing,
// replies and replication overlap.
type Server struct {
	cfg     Config
	cluster *runtime.NetCluster
	sites   []clock.ReplicaID

	appsMu sync.RWMutex
	apps   map[string]*engine.App

	ln       net.Listener
	draining chan struct{}
	drainOne sync.Once
	wg       sync.WaitGroup // accept loop + connection handlers

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	accepted, active, commands, calls, refusals atomic.Int64
}

// New creates a server over an open cluster. The caller keeps ownership
// of the cluster: Shutdown drains the server's connections but does not
// close the cluster (the serve command settles replication and closes it
// after the drain, so every acked CALL also reaches every site). On a
// durable cluster a CALL's reply is its acknowledgement: the connection
// fsyncs the CALL's log record at its origin before the flush that
// carries the reply, and all the CALLs of one flush share that fsync.
func New(cluster *runtime.NetCluster, cfg Config) *Server {
	return &Server{
		cfg:      cfg.withDefaults(),
		cluster:  cluster,
		sites:    cluster.Replicas(),
		apps:     map[string]*engine.App{},
		draining: make(chan struct{}),
		conns:    map[net.Conn]struct{}{},
	}
}

// Mount parses a specification, runs the IPA analysis, compiles the
// result, and registers it under the spec's own name — the full loop of
// the paper, server-side. It is what the MOUNT command executes, and
// `ipa serve -app` and `-spec` too. A spec the analysis already patched
// — output, as a bundled application's embedded text is by construction,
// or a spec whose injected effects are marked — is re-checked, not
// searched again, and refused if the check applies a repair
// (analysis.RunForMount).
func (s *Server) Mount(src string, output bool) (string, error) {
	sp, err := spec.Parse(src)
	if err != nil {
		return "", err
	}
	res, err := analysis.RunForMount(sp, output)
	if err != nil {
		return "", err
	}
	return s.MountAnalyzed(nil, res)
}

// MountAnalyzed registers an already-analyzed specification (callers
// that record explicit repair choices, like the bundled applications).
// orig is ignored, as in engine.Mount: res.Spec marks what the analysis
// injected. The benchmark ledger still passes it.
func (s *Server) MountAnalyzed(orig *spec.Spec, res *analysis.Result) (string, error) {
	eng, err := engine.Mount(nil, res, s.cluster)
	if err != nil {
		return "", err
	}
	name := eng.Spec().Name
	s.appsMu.Lock()
	defer s.appsMu.Unlock()
	if _, ok := s.apps[name]; ok {
		return "", fmt.Errorf("server: app %q already mounted", name)
	}
	s.apps[name] = eng
	return name, nil
}

// App returns a mounted application.
func (s *Server) App(name string) (*engine.App, bool) {
	s.appsMu.RLock()
	defer s.appsMu.RUnlock()
	a, ok := s.apps[name]
	return a, ok
}

// AppNames lists the mounted applications, sorted.
func (s *Server) AppNames() []string {
	s.appsMu.RLock()
	defer s.appsMu.RUnlock()
	names := make([]string, 0, len(s.apps))
	for n := range s.apps {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Start listens on addr and serves connections until Shutdown. It
// returns once the listener is bound; use Addr for the chosen port.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		ConnsAccepted: s.accepted.Load(),
		ConnsActive:   s.active.Load(),
		Commands:      s.commands.Load(),
		Calls:         s.calls.Load(),
		Refusals:      s.refusals.Load(),
	}
}

// Shutdown drains gracefully: stop accepting, let every connection
// finish the command it is executing (and flush the replies it has
// already earned), then close the connections. Nothing is acknowledged
// after the drain: a command acked before Shutdown returned was executed
// before it; commands still in flight on the wire are dropped un-acked
// and un-applied, which clients observe as a clean connection close.
// Safe to call more than once; later calls wait for the same drain.
func (s *Server) Shutdown() error {
	s.drainOne.Do(func() {
		close(s.draining)
		if s.ln != nil {
			s.ln.Close()
		}
		// Kick handlers parked in a blocking read: an expired read
		// deadline fails the pending Read, the handler sees the drain
		// flag, flushes what it owes, and exits. Handlers mid-execution
		// are untouched — they finish their command first.
		s.connMu.Lock()
		for c := range s.conns {
			c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
	})
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(s.cfg.DrainTimeout):
		// A handler is stuck (a command wedged against the backend).
		// Force-close its connection — the write path fails, nothing
		// more is acked — and wait for the teardown.
		s.connMu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.connMu.Unlock()
		<-done
		return fmt.Errorf("server: drain timed out after %v; connections force-closed", s.cfg.DrainTimeout)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.draining:
				return
			default:
				if errors.Is(err, net.ErrClosed) {
					return
				}
				continue
			}
		}
		s.connMu.Lock()
		select {
		case <-s.draining:
			s.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.connMu.Unlock()
		s.accepted.Add(1)
		s.active.Add(1)
		go s.handle(conn)
	}
}

// replyBufPool recycles per-connection reply buffers across the
// connection population — short-lived bench and client connections would
// otherwise pay a fresh write buffer each. maxPooledReply bounds what a
// returned buffer may retain.
const maxPooledReply = 64 << 10

var replyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// session is one connection's state: the replica site its CALLs execute
// at, and the client-declared name (CLIENT SETNAME). The default site is
// sticky-by-client: a consistent hash of the client's host picks the
// site, so one client keeps hitting the same replica (session
// guarantees) while a client population spreads across sites. The SITE
// command pins it explicitly.
//
// waits holds the durability waits of the CALLs whose replies sit in the
// connection's unflushed reply buffer; the flush runs them all before it
// writes (see handle). rep is the replica view CALL hands the engine.
type session struct {
	site  clock.ReplicaID
	name  string
	waits []func()
	rep   deferringReplica
}

// deferringReplica is a replica whose transactions hand their
// durability wait to the owning session instead of blocking in Commit.
type deferringReplica struct {
	runtime.Replica
	waits *[]func()
}

// Begin implements runtime.Replica.
func (d *deferringReplica) Begin() *store.Txn {
	tx := d.Replica.Begin()
	tx.DeferDurability(d.waits)
	return tx
}

// replica returns the session's site with durability deferred to the
// session. The site is resolved per call: a recovered site is a new
// replica instance.
func (sess *session) replica(c *runtime.NetCluster) runtime.Replica {
	sess.rep = deferringReplica{Replica: c.Replica(sess.site), waits: &sess.waits}
	return &sess.rep
}

// awaitDurable runs every pending durability wait: after it returns,
// every CALL this connection has executed is on disk at its origin.
// Waits on one log are group-committed, so the first pays the fsync and
// the rest find their record already synced.
func (sess *session) awaitDurable() {
	for _, wait := range sess.waits {
		wait()
	}
	clear(sess.waits)
	sess.waits = sess.waits[:0]
}

// defaultSite consistent-hashes the client's host across the replicas.
func (s *Server) defaultSite(remote string) clock.ReplicaID {
	host := remote
	if h, _, err := net.SplitHostPort(remote); err == nil {
		host = h
	}
	f := fnv.New64a()
	f.Write([]byte(host))
	return s.sites[f.Sum64()%uint64(len(s.sites))]
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		conn.Close()
		s.active.Add(-1)
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	bufp := replyBufPool.Get().(*[]byte)
	out := (*bufp)[:0]
	defer func() {
		// Keep steady-size buffers warm; let one-off giants (a pipelined
		// burst that grew toward maxWriteBuffer) be collected instead of
		// pinning their memory in the pool.
		if cap(out) <= maxPooledReply {
			*bufp = out
			replyBufPool.Put(bufp)
		}
	}()
	sess := &session{site: s.defaultSite(conn.RemoteAddr().String())}

	// flush is the acknowledgement point: the CALLs whose replies are in
	// out become durable first, so a whole pipelined batch shares one
	// group commit and no reply leaves before its record is on disk.
	flush := func() bool {
		sess.awaitDurable()
		if len(out) == 0 {
			return true
		}
		_, err := conn.Write(out)
		out = out[:0]
		return err == nil
	}
	for {
		// Between commands: once draining, flush what this connection is
		// owed and close. Commands already executed have their replies in
		// out (or on the wire); commands not yet read are never acked.
		select {
		case <-s.draining:
			flush()
			return
		default:
		}
		args, err := ParseCommand(r)
		if err != nil {
			if errors.Is(err, ErrProtocol) {
				// Framing is lost; report and hang up.
				out = appendError(out, "ERR "+err.Error())
			}
			flush()
			return
		}
		if len(args) == 0 {
			continue // bare CRLF keep-alive
		}
		s.commands.Add(1)
		var quit bool
		out, quit = s.dispatch(sess, out, args)
		// Pipelining: batch replies while more input is already buffered,
		// flush at the batch boundary — but never hold more than the
		// write-buffer bound (backpressure on the client).
		if quit || r.Buffered() == 0 || len(out) >= maxWriteBuffer {
			if !flush() || quit {
				return
			}
		}
	}
}

// dispatch executes one command and appends its reply to out.
func (s *Server) dispatch(sess *session, out []byte, args []string) ([]byte, bool) {
	switch strings.ToUpper(args[0]) {
	case "PING":
		if len(args) > 1 {
			return appendBulk(out, args[1]), false
		}
		return appendSimple(out, "PONG"), false

	case "QUIT":
		return appendSimple(out, "OK"), true

	case "SITE":
		if len(args) == 1 {
			return appendBulk(out, string(sess.site)), false
		}
		want := clock.ReplicaID(args[1])
		for _, id := range s.sites {
			if id == want {
				sess.site = want
				return appendSimple(out, "OK"), false
			}
		}
		return appendError(out, fmt.Sprintf("ERR unknown site %q (sites: %s)", args[1], joinSites(s.sites))), false

	case "CLIENT":
		if len(args) >= 2 && strings.EqualFold(args[1], "GETNAME") {
			return appendBulk(out, sess.name), false
		}
		if len(args) == 3 && strings.EqualFold(args[1], "SETNAME") {
			sess.name = args[2]
			return appendSimple(out, "OK"), false
		}
		return appendError(out, "ERR usage: CLIENT SETNAME <name> | CLIENT GETNAME"), false

	case "APPS":
		return appendBulkArray(out, s.AppNames()), false

	case "OPS":
		if len(args) != 2 {
			return appendError(out, "ERR usage: OPS <app>"), false
		}
		app, ok := s.App(args[1])
		if !ok {
			return appendError(out, fmt.Sprintf("ERR app %q not mounted", args[1])), false
		}
		return appendBulkArray(out, app.Operations()), false

	case "MOUNT":
		if len(args) != 2 {
			return appendError(out, "ERR usage: MOUNT <spec-source>"), false
		}
		name, err := s.Mount(args[1], false)
		if err != nil {
			return appendError(out, "ERR mount: "+err.Error()), false
		}
		return appendBulk(out, name), false

	case "CALL":
		if len(args) < 3 {
			return appendError(out, "ERR usage: CALL <app> <op> [args...]"), false
		}
		app, ok := s.App(args[1])
		if !ok {
			return appendError(out, fmt.Sprintf("ERR app %q not mounted", args[1])), false
		}
		s.calls.Add(1)
		err := app.Call(sess.replica(s.cluster), args[2], args[3:]...)
		switch {
		case err == nil:
			return appendSimple(out, "OK"), false
		case errors.Is(err, engine.ErrPrecondition):
			// A guarded no-op, exactly like the hand-coded apps: the
			// distinct prefix lets clients treat it as an outcome, not a
			// failure.
			s.refusals.Add(1)
			return appendError(out, "PRECONDITION "+err.Error()), false
		default:
			return appendError(out, "ERR call: "+err.Error()), false
		}

	case "CHECK":
		apps := args[1:]
		if len(apps) == 0 {
			apps = s.AppNames()
		}
		var violations []string
		for _, name := range apps {
			app, ok := s.App(name)
			if !ok {
				return appendError(out, fmt.Sprintf("ERR app %q not mounted", name)), false
			}
			for _, id := range s.sites {
				for _, v := range app.CheckInvariants(s.cluster.Replica(id)) {
					violations = append(violations, fmt.Sprintf("%s: %s: %s", name, id, v))
				}
			}
		}
		return appendBulkArray(out, violations), false

	case "DIGEST":
		if len(args) != 2 {
			return appendError(out, "ERR usage: DIGEST <app>"), false
		}
		app, ok := s.App(args[1])
		if !ok {
			return appendError(out, fmt.Sprintf("ERR app %q not mounted", args[1])), false
		}
		var digests []string
		for _, id := range s.sites {
			digests = append(digests, fmt.Sprintf("%s %s", id, app.Digest(s.cluster.Replica(id))))
		}
		return appendBulkArray(out, digests), false

	case "REPAIR":
		apps := args[1:]
		if len(apps) == 0 {
			apps = s.AppNames()
		}
		for _, name := range apps {
			app, ok := s.App(name)
			if !ok {
				return appendError(out, fmt.Sprintf("ERR app %q not mounted", name)), false
			}
			for _, id := range s.sites {
				app.Repair(s.cluster.Replica(id))
			}
		}
		return appendSimple(out, "OK"), false

	case "SETTLE":
		if err := s.cluster.Settle(); err != nil {
			return appendError(out, "ERR settle: "+err.Error()), false
		}
		return appendSimple(out, "OK"), false

	case "STABILIZE":
		s.cluster.Stabilize()
		return appendSimple(out, "OK"), false

	case "INFO":
		st := s.Stats()
		info := fmt.Sprintf(
			"backend:%s\r\nsites:%s\r\napps:%s\r\nconns_accepted:%d\r\nconns_active:%d\r\ncommands:%d\r\ncalls:%d\r\nrefusals:%d\r\n",
			runtime.BackendNet, joinSites(s.sites), strings.Join(s.AppNames(), ","),
			st.ConnsAccepted, st.ConnsActive, st.Commands, st.Calls, st.Refusals)
		// The engine's slow paths, summed over the mounted apps: calls an
		// operation's plan handed to the whole-state reference executor,
		// and compiled calls whose guard enumerated a sort's domain for
		// want of a generator. Both stay 0 on a fully join-planned spec.
		var slow engine.Stats
		for _, name := range s.AppNames() {
			if app, ok := s.App(name); ok {
				as := app.Stats()
				slow.FallbackCalls += as.FallbackCalls
				slow.DomainEnumCalls += as.DomainEnumCalls
			}
		}
		info += fmt.Sprintf("engine_fallback_calls:%d\r\nengine_domain_enum_calls:%d\r\n",
			slow.FallbackCalls, slow.DomainEnumCalls)
		// The replication transport's health counters —
		// repl_txns_dropped in particular: a dropped transaction opens a
		// permanent causal gap that stalls receivers (see DESIGN.md), and
		// an operator should see it here rather than in a node's process
		// log. repl_retained_txns is what outbound logs keep for a peer
		// that is behind (0 once all caught up).
		var agg netrepl.Metrics
		for _, id := range s.sites {
			agg = agg.Add(s.cluster.Node(id).Stats())
		}
		info += fmt.Sprintf(
			"repl_frames_sent:%d\r\nrepl_txns_sent:%d\r\nrepl_bytes_sent:%d\r\nrepl_frames_recv:%d\r\nrepl_txns_recv:%d\r\nrepl_bytes_recv:%d\r\nrepl_send_errors:%d\r\nrepl_txns_dropped:%d\r\nrepl_retained_txns:%d\r\nrepl_reconnects:%d\r\n",
			agg.FramesSent, agg.TxnsSent, agg.BytesSent,
			agg.FramesRecv, agg.TxnsRecv, agg.BytesRecv,
			agg.SendErrors, agg.TxnsDropped, agg.QueueDepth, agg.Reconnects)
		// Durability counters: repl_stalled_origins is the one to alert
		// on — a persistent stall means a causal gap that only
		// crash-recovery (state transfer from the WAL of a peer that
		// still has the record) will close. The WAL counters show group
		// commit working: appends well above syncs.
		info += fmt.Sprintf(
			"repl_wal_appends:%d\r\nrepl_wal_syncs:%d\r\nrepl_wal_bytes:%d\r\nrepl_wal_segments:%d\r\nrepl_snapshots:%d\r\nrepl_stalled_origins:%d\r\n",
			agg.WALAppends, agg.WALSyncs, agg.WALBytes,
			agg.WALSegments, agg.Snapshots, agg.StalledOrigins)
		return appendBulk(out, info), false

	default:
		return appendError(out, fmt.Sprintf("ERR unknown command %q", args[0])), false
	}
}

func joinSites(ids []clock.ReplicaID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ",")
}
