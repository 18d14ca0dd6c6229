package main

// The in-process ledger: the workload's call stream driven cumulatively
// through each layer, one goroutine, each stage a fresh cluster —
//
//	S0 bare       engine.App.Call on a 1-site sim cluster (*store.Replica, no transport)
//	S1 node1      1-site runtime.NetCluster
//	S2 mesh3      3-site NetCluster, calls at one site
//	S3 mesh3-wal  S2 with a DataDir
//	S4 server     S2 behind server.New + loopback TCP + server.Client.Do
//
// so a layer's cost is the difference between neighbours. Everything is
// measured from the benchmark's own code around calls into public
// functions; there are no hooks inside the program.
//
// Per stage, wall ns/call is the sum of the calls' own durations (what a
// caller waits for); process CPU, allocations and bytes are deltas over
// the whole loop including its Stabilize passes and the final Settle, so
// they count the asynchronous work that wall time does not.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"slices"
	"syscall"
	"time"

	"ipa/internal/analysis"
	"ipa/internal/apps/tournament"
	"ipa/internal/clock"
	"ipa/internal/engine"
	"ipa/internal/runtime"
	"ipa/internal/server"
	"ipa/internal/spec"
	"ipa/internal/store"
	"ipa/internal/wan"
)

const (
	ledgerCalls     = 20_000 // per stage: the first calls of conn 0's stream
	ledgerWideCalls = 2_000  // warm-up and measured calls of the serve-wide stream, ≈ 10× dearer per call
	ledgerWALCalls  = 2_000  // S3 waits for an fsync per call
	ledgerStabilize = 256    // calls between Stabilize passes
	visibilityEvery = 4      // S2 visibility pass: probe every 4th of visibilityCalls
	visibilityCalls = 4_096
	frameCalls      = 4_000 // calls whose transactions the codec timings capture
	frameTxns       = 4     // transactions per frame there
	walProbes       = 200
	pingProbes      = 2_000
)

var ledgerSites = []clock.ReplicaID{"us-east", "us-west", "eu-west"}

// stage is one way of executing a call. stabilize and settle may be nil.
type stage struct {
	call      func(call []string) error
	stabilize func()
	settle    func() error
}

// stageStats is what driving a stream through a stage measured.
type stageStats struct {
	calls                        int
	wallNs, cpuNs, allocs, bytes float64             // per call
	durations                    []int64             // each call's own duration
	byOp                         map[string][2]int64 // op → total ns, calls
	stabilize                    []int64
	settle                       time.Duration
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// drive runs the calls through the stage and measures them.
func drive(st stage, calls [][]string) (stageStats, error) {
	s := stageStats{calls: len(calls), durations: make([]int64, 0, len(calls)), byOp: map[string][2]int64{}}
	goruntime.GC()
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	cpu0 := processCPU()
	var wall int64
	for i, call := range calls {
		t0 := time.Now()
		err := st.call(call)
		d := int64(time.Since(t0))
		if err != nil && !errors.Is(err, engine.ErrPrecondition) {
			return s, fmt.Errorf("call %d %v: %w", i, call, err)
		}
		wall += d
		s.durations = append(s.durations, d)
		op := s.byOp[call[0]]
		s.byOp[call[0]] = [2]int64{op[0] + d, op[1] + 1}
		if st.stabilize != nil && (i+1)%ledgerStabilize == 0 {
			t0 := time.Now()
			st.stabilize()
			s.stabilize = append(s.stabilize, int64(time.Since(t0)))
		}
	}
	if st.settle != nil {
		t0 := time.Now()
		if err := st.settle(); err != nil {
			return s, err
		}
		s.settle = time.Since(t0)
	}
	cpu := processCPU() - cpu0
	goruntime.ReadMemStats(&m1)
	n := float64(len(calls))
	s.wallNs = float64(wall) / n
	s.cpuNs = float64(cpu) / n
	s.allocs = float64(m1.Mallocs-m0.Mallocs) / n
	s.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	return s, nil
}

// seedThrough applies the seed calls through a stage, untimed.
func seedThrough(st stage, p pools) error {
	for _, call := range p.seedCalls() {
		if err := st.call(call); err != nil {
			return fmt.Errorf("seed %v: %w", call, err)
		}
	}
	if st.settle != nil {
		return st.settle()
	}
	return nil
}

func stream(p pools, seed int64, n int) [][]string {
	gen := newCallGen(p, seed, 0)
	calls := make([][]string, n)
	for i := range calls {
		calls[i] = gen.next()
	}
	return calls
}

// simStage is S0: the engine on a bare single-site sim cluster.
func simStage(orig *spec.Spec, res *analysis.Result) (stage, *store.Cluster, error) {
	sc := store.NewCluster(wan.NewSim(1), wan.NewLatency(0), ledgerSites[:1])
	cluster := runtime.NewSimCluster(sc)
	app, err := engine.Mount(orig, res, cluster)
	if err != nil {
		return stage{}, nil, err
	}
	r := cluster.Replica(ledgerSites[0])
	return stage{
		call:      func(call []string) error { return app.Call(r, call[0], call[1:]...) },
		stabilize: func() { cluster.Stabilize() },
	}, sc, nil
}

// netStage is S1–S3: the engine on a NetCluster, calls at the first site.
func netStage(orig *spec.Spec, res *analysis.Result, sites int, dataDir string) (stage, *runtime.NetCluster, error) {
	cluster, err := runtime.NewNetCluster(ledgerSites[:sites], runtime.NetConfig{DataDir: dataDir})
	if err != nil {
		return stage{}, nil, err
	}
	app, err := engine.Mount(orig, res, cluster)
	if err != nil {
		cluster.Close()
		return stage{}, nil, err
	}
	r := cluster.Replica(ledgerSites[0])
	return stage{
		call:      func(call []string) error { return app.Call(r, call[0], call[1:]...) },
		stabilize: func() { cluster.Stabilize() },
		settle:    cluster.Settle,
	}, cluster, nil
}

// handcodedCall dispatches the stream to the hand-written application.
func handcodedCall(app *tournament.App, r runtime.Replica) func(call []string) error {
	return func(c []string) error {
		switch c[0] {
		case "enroll":
			app.Enroll(r, c[1], c[2])
		case "do_match":
			app.DoMatch(r, c[1], c[2], c[3])
		case "disenroll":
			app.Disenroll(r, c[1], c[2])
		case "begin_tourn":
			app.Begin(r, c[1])
		case "finish_tourn":
			app.Finish(r, c[1])
		case "add_player":
			app.AddPlayer(r, c[1])
		case "add_tourn":
			app.AddTournament(r, c[1])
		default:
			return fmt.Errorf("hand-coded tournament has no op %q", c[0])
		}
		return nil
	}
}

// ledger carries what the stages share: the analysed application, the
// call stream, and the stages' results that later stages subtract from.
type ledger struct {
	orig  *spec.Spec
	res   *analysis.Result
	seed  int64
	calls [][]string // the first ledgerCalls of conn 0's stream, default mix
	out   *values

	s0, s1, s2 stageStats
}

// runLedger measures every ledger metric. scratch is a directory for
// the WAL stages; tr records the spans of the traced S4 pass.
func runLedger(seed int64, scratch string, tr *tracer) (*values, error) {
	root := tr.begin("ledger", -1, 0)
	defer tr.end(root)
	l := &ledger{seed: seed, calls: stream(smallPools, seed, ledgerCalls), out: newValues()}

	t0 := time.Now()
	l.res = tournament.Analysis()
	l.out.set("analysis.run_s", time.Since(t0).Seconds())
	l.orig = tournament.Spec()
	t0 = time.Now()
	if _, err := engine.Mount(l.orig, l.res, nil); err != nil {
		return nil, err
	}
	l.out.set("engine.mount_ms", ms(int64(time.Since(t0))))

	walDir, err := os.MkdirTemp(scratch, "ledger-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	for _, stage := range []func() error{
		l.bare, l.handcoded, l.unstable, l.wide, l.node1, l.mesh3,
		func() error { return l.wal(walDir) },
		func() error { return l.server(tr, root) },
	} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

func progress(name string, s stageStats) {
	fmt.Fprintf(os.Stderr, "  ledger %-14s %8.0f ns/call wall %8.0f ns/call cpu %7.1f allocs/call %8.0f B/call (%d calls)\n",
		name, s.wallNs, s.cpuNs, s.allocs, s.bytes, s.calls)
}

// seedAndDrive seeds the default state through the stage, then drives
// the calls.
// bare is S0, plus store.txn_ns on a replica of the same kind.
func (l *ledger) bare() error {
	st, sc, err := simStage(l.orig, l.res)
	if err != nil {
		return err
	}
	if l.s0, err = seedAndDrive(st, l.calls); err != nil {
		return fmt.Errorf("S0: %w", err)
	}
	progress("S0 bare", l.s0)
	l.out.setN("engine.ns_per_call", l.s0.wallNs, l.s0.calls)
	l.out.set("engine.allocs_per_call", l.s0.allocs)
	l.out.set("engine.bytes_per_call", l.s0.bytes)
	for _, m := range mix {
		op := l.s0.byOp[m.op]
		l.out.setN("engine."+m.op+"_ns", ratio(float64(op[0]), float64(op[1])), int(op[1]))
	}

	r := sc.Replica(ledgerSites[0])
	t0 := time.Now()
	for i := 0; i < ledgerCalls; i++ {
		r.Begin().Commit()
	}
	l.out.setN("store.txn_ns", float64(time.Since(t0))/ledgerCalls, ledgerCalls)
	return nil
}

// handcoded drives S0's stream through the hand-written application,
// both variants.
func (l *ledger) handcoded() error {
	wall := map[tournament.Variant]float64{}
	for _, variant := range []tournament.Variant{tournament.Causal, tournament.IPA} {
		sc := store.NewCluster(wan.NewSim(1), wan.NewLatency(0), ledgerSites[:1])
		st := stage{call: handcodedCall(tournament.New(variant), sc.Replica(ledgerSites[0])), stabilize: func() { sc.Stabilize() }}
		s, err := seedAndDrive(st, l.calls)
		if err != nil {
			return fmt.Errorf("hand-coded %s: %w", variant, err)
		}
		progress("apps "+variant.String(), s)
		wall[variant] = s.wallNs
	}
	l.out.setN("apps.causal_ns_per_call", wall[tournament.Causal], ledgerCalls)
	l.out.setN("apps.ipa_ns_per_call", wall[tournament.IPA], ledgerCalls)
	l.out.set("apps.ipa_over_causal_ratio", ratio(wall[tournament.IPA], wall[tournament.Causal]))
	l.out.set("engine.over_handcoded_ratio", ratio(l.s0.wallNs, wall[tournament.IPA]))
	return nil
}

// unstable is S0 again with nobody stabilising: what the unstable
// history costs in time per call and in live heap.
func (l *ledger) unstable() error {
	st, sc, err := simStage(l.orig, l.res)
	if err != nil {
		return err
	}
	st.stabilize = nil
	if err := seedThrough(st, smallPools); err != nil {
		return err
	}
	heap0 := liveHeap()
	s, err := drive(st, l.calls)
	if err != nil {
		return fmt.Errorf("S0 unstable: %w", err)
	}
	heap1 := liveHeap()
	goruntime.KeepAlive(sc) // the history is the cluster's; it must survive the second reading
	progress("S0 unstable", s)
	tenth := len(s.durations) / 10
	l.out.set("engine.unstable_slowdown_ratio", ratio(mean(s.durations[len(s.durations)-tenth:]), mean(s.durations[:tenth])))
	l.out.set("store.unstable_heap_bytes_per_call", (float64(heap1)-float64(heap0))/float64(s.calls))
	return nil
}

// wide is S0 on serve-wide's state and stream.
func (l *ledger) wide() error {
	st, _, err := simStage(l.orig, l.res)
	if err != nil {
		return err
	}
	if err := seedThrough(st, widePools); err != nil {
		return err
	}
	// The first calls on the wide state pay a transient no window sees
	// (each tournament's first finish_tourn costs ≈ 14 ms); drive it
	// untimed, as the wire run's warm-up does.
	calls := stream(widePools, l.seed, 2*ledgerWideCalls)
	if _, err := drive(st, calls[:ledgerWideCalls]); err != nil {
		return fmt.Errorf("S0 wide warm-up: %w", err)
	}
	s, err := drive(st, calls[ledgerWideCalls:])
	if err != nil {
		return fmt.Errorf("S0 wide: %w", err)
	}
	progress("S0 wide", s)
	l.out.setN("engine.wide_ns_per_call", s.wallNs, s.calls)
	return nil
}

// node1 is S1.
func (l *ledger) node1() error {
	st, cluster, err := netStage(l.orig, l.res, 1, "")
	if err != nil {
		return err
	}
	defer cluster.Close()
	if l.s1, err = seedAndDrive(st, l.calls); err != nil {
		return fmt.Errorf("S1: %w", err)
	}
	progress("S1 node1", l.s1)
	l.out.set("netrepl.commit_ns_per_call", l.s1.wallNs-l.s0.wallNs)
	return nil
}

// mesh3 is S2, then the visibility pass on the same mesh.
func (l *ledger) mesh3() error {
	st, cluster, err := netStage(l.orig, l.res, 3, "")
	if err != nil {
		return err
	}
	defer cluster.Close()
	if l.s2, err = seedAndDrive(st, l.calls); err != nil {
		return fmt.Errorf("S2: %w", err)
	}
	progress("S2 mesh3", l.s2)
	l.out.set("netrepl.repl_cpu_ns_per_call", l.s2.cpuNs-l.s1.cpuNs)
	l.out.set("netrepl.repl_allocs_per_call", l.s2.allocs-l.s1.allocs)
	l.out.set("netrepl.settle_ms", ms(int64(l.s2.settle)))
	slices.Sort(l.s2.stabilize)
	l.out.setN("runtime.stabilize_ns", float64(percentile(l.s2.stabilize, 50)), len(l.s2.stabilize))

	// Visibility, in a pass of its own so the polling does not count as
	// replication CPU: commit at site A, then poll site B's clock until
	// it covers A's.
	vis := make([]int64, 0, visibilityCalls/visibilityEvery)
	a, b := cluster.Replica(ledgerSites[0]), cluster.Replica(ledgerSites[1])
	for i, call := range stream(smallPools, l.seed+1, visibilityCalls) {
		if err := st.call(call); err != nil && !errors.Is(err, engine.ErrPrecondition) {
			return fmt.Errorf("S2 visibility: %w", err)
		}
		if (i+1)%visibilityEvery == 0 {
			t0 := time.Now()
			for cut := a.Clock(); !cut.LEq(b.Clock()); {
				goruntime.Gosched()
			}
			vis = append(vis, int64(time.Since(t0)))
		}
		if (i+1)%ledgerStabilize == 0 {
			st.stabilize()
		}
	}
	slices.Sort(vis)
	l.out.setN("netrepl.visibility_p50_us", us(percentile(vis, 50)), len(vis))
	l.out.setN("netrepl.visibility_p99_us", us(percentile(vis, 99)), len(vis))
	return nil
}

// wal is S3, with the frame codec and the log timed directly on the
// transactions the stream commits.
func (l *ledger) wal(dir string) error {
	frames, txns, err := frameCodec(l.orig, l.res, l.calls[:frameCalls], l.out)
	if err != nil {
		return err
	}
	st, cluster, err := netStage(l.orig, l.res, 3, filepath.Join(dir, "mesh"))
	if err != nil {
		return err
	}
	s3, err := seedAndDrive(st, l.calls[:ledgerWALCalls])
	cluster.Close()
	if err != nil {
		return fmt.Errorf("S3: %w", err)
	}
	progress("S3 mesh3-wal", s3)
	l.out.setN("store.wal_ns_per_call", s3.wallNs-l.s2.wallNs, s3.calls)
	return walDirect(filepath.Join(dir, "direct"), frames, txns, l.out)
}

// server is S4, spans off then on, and the wire codecs directly.
func (l *ledger) server(tr *tracer, parent int) error {
	s4, replies, ping, err := serverStage(l.orig, l.res, l.calls, nil, -1)
	if err != nil {
		return fmt.Errorf("S4: %w", err)
	}
	progress("S4 server", s4)
	s4t, _, _, err := serverStage(l.orig, l.res, l.calls, tr, parent)
	if err != nil {
		return fmt.Errorf("S4 traced: %w", err)
	}
	progress("S4 traced", s4t)
	l.out.setN("server.ns_per_call", s4.wallNs-l.s2.wallNs, s4.calls)
	l.out.set("server.allocs_per_call", s4.allocs-l.s2.allocs)
	l.out.setN("server.ping_rtt_us", us(ping), pingProbes)
	l.out.set("trace.overhead_share", (s4t.wallNs-s4.wallNs)/s4.wallNs)
	codecs, err := wireCodecs(l.calls, replies, l.out)
	if err != nil {
		return err
	}
	l.out.set("ledger.residual_share", (s4.wallNs-l.s2.wallNs-float64(ping)-codecs)/s4.wallNs)
	return nil
}

func liveHeap() uint64 {
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.HeapAlloc
}

func seedAndDrive(st stage, calls [][]string) (stageStats, error) {
	if err := seedThrough(st, smallPools); err != nil {
		return stageStats{}, err
	}
	return drive(st, calls)
}

func mean(v []int64) float64 {
	var sum int64
	for _, x := range v {
		sum += x
	}
	return ratio(float64(sum), float64(len(v)))
}

// frameCodec captures the transactions the stream commits (through
// store.Cluster.SetOnCommit) and times the replication frame codec on
// them directly. It returns the frames for the WAL timing.
func frameCodec(orig *spec.Spec, res *analysis.Result, calls [][]string, out *values) (frames [][]byte, txns [][]store.WireTxn, err error) {
	st, sc, err := simStage(orig, res)
	if err != nil {
		return nil, nil, err
	}
	var captured []store.WireTxn
	sc.SetOnCommit(func(w store.WireTxn) { captured = append(captured, w) })
	if err := seedThrough(st, smallPools); err != nil {
		return nil, nil, err
	}
	if _, err := drive(st, calls); err != nil {
		return nil, nil, fmt.Errorf("frame capture: %w", err)
	}
	for len(captured) >= frameTxns {
		txns = append(txns, captured[:frameTxns])
		captured = captured[frameTxns:]
	}
	n := float64(len(txns) * frameTxns)
	if n == 0 {
		return nil, nil, errors.New("frame capture: the stream committed no transaction")
	}

	enc := store.NewFrameEncoder(store.WireVersionV2)
	var total int
	t0 := time.Now()
	for _, batch := range txns {
		frame, err := enc.Encode(batch)
		if err != nil {
			return nil, nil, fmt.Errorf("frame encode: %w", err)
		}
		total += len(frame)
		frames = append(frames, bytes.Clone(frame)) // the encoder reuses its buffer
	}
	out.setN("store.frame_encode_ns_per_txn", float64(time.Since(t0))/n, int(n))
	out.set("store.frame_bytes_per_txn", float64(total)/n)

	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	t0 = time.Now()
	for _, frame := range frames {
		if _, err := store.DecodeFrame(frame); err != nil {
			return nil, nil, fmt.Errorf("frame decode: %w", err)
		}
	}
	elapsed := time.Since(t0)
	goruntime.ReadMemStats(&m1)
	out.setN("store.frame_decode_ns_per_txn", float64(elapsed)/n, int(n))
	out.set("store.frame_decode_allocs_per_txn", float64(m1.Mallocs-m0.Mallocs)/n)
	return frames, txns, nil
}

// walDirect times one record's Append + WaitSynced on a fresh log.
func walDirect(dir string, frames [][]byte, txns [][]store.WireTxn, out *values) error {
	wal, err := store.OpenWAL(dir, nil)
	if err != nil {
		return err
	}
	probes := make([]int64, 0, walProbes)
	for i := 0; i < walProbes && i < len(frames); i++ {
		t0 := time.Now()
		seq, err := wal.Append(frames[i], txns[i])
		if err == nil {
			err = wal.WaitSynced(seq)
		}
		if err != nil {
			wal.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		probes = append(probes, int64(time.Since(t0)))
	}
	slices.Sort(probes)
	out.setN("store.wal_append_sync_us", us(percentile(probes, 50)), len(probes))
	return wal.Close()
}

// serverStage is S4: the S2 mesh behind a server, one call per round
// trip. With a tracer it records a span per call and per client step.
func serverStage(orig *spec.Spec, res *analysis.Result, calls [][]string, tr *tracer, parent int) (s stageStats, replies []server.Reply, pingNs int64, err error) {
	cluster, err := runtime.NewNetCluster(ledgerSites, runtime.NetConfig{})
	if err != nil {
		return s, nil, 0, err
	}
	defer cluster.Close()
	srv := server.New(cluster, server.Config{})
	if _, err := srv.MountAnalyzed(orig, res); err != nil {
		return s, nil, 0, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return s, nil, 0, err
	}
	defer srv.Shutdown()
	c, err := server.Dial(srv.Addr(), dialTimeout)
	if err != nil {
		return s, nil, 0, err
	}
	defer c.Close()
	if err := c.DoOK("SITE", string(ledgerSites[0])); err != nil {
		return s, nil, 0, err
	}

	stageSpan := tr.begin("S4.server", parent, 0)
	defer tr.end(stageSpan)
	replies = make([]server.Reply, 0, len(calls))
	var callID int64
	st := stage{
		call: func(call []string) error {
			callID++
			callSpan := tr.begin("call", stageSpan, callID)
			defer tr.end(callSpan)
			sp := tr.begin("client.append_command", callSpan, callID)
			c.Send(callCommand(call)...)
			tr.end(sp)
			sp = tr.begin("client.flush", callSpan, callID)
			err := c.Flush()
			tr.end(sp)
			if err != nil {
				return err
			}
			sp = tr.begin("client.recv", callSpan, callID)
			rp, err := c.Recv()
			tr.end(sp)
			if err != nil {
				return err
			}
			replies = append(replies, rp)
			switch {
			case rp.Kind == '+':
				return nil
			case refused(rp):
				return engine.ErrPrecondition
			default:
				return rp.Err()
			}
		},
		stabilize: func() { cluster.Stabilize() },
		settle:    cluster.Settle,
	}
	if err := seedThrough(st, smallPools); err != nil {
		return s, nil, 0, err
	}
	replies = replies[:0]
	if s, err = drive(st, calls); err != nil {
		return s, nil, 0, err
	}
	pings := make([]int64, pingProbes)
	for i := range pings {
		t0 := time.Now()
		if err := c.DoOK("PING"); err != nil {
			return s, nil, 0, err
		}
		pings[i] = int64(time.Since(t0))
	}
	slices.Sort(pings)
	return s, replies, percentile(pings, 50), nil
}

// wireCodecs times the three RESP codecs a call crosses, directly, over
// the stream's own commands and replies, and returns their sum in ns.
func wireCodecs(calls [][]string, replies []server.Reply, out *values) (float64, error) {
	n := float64(len(calls))
	var buf, all []byte
	t0 := time.Now()
	for _, call := range calls {
		buf = server.AppendCommand(buf[:0], callCommand(call)...)
	}
	appendNs := float64(time.Since(t0)) / n
	out.setN("client.append_command_ns", appendNs, len(calls))
	for _, call := range calls {
		all = server.AppendCommand(all, callCommand(call)...)
	}

	r := bufio.NewReaderSize(bytes.NewReader(all), 64<<10)
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	t0 = time.Now()
	for range calls {
		if _, err := server.ParseCommand(r); err != nil {
			return 0, fmt.Errorf("ParseCommand rejected AppendCommand's output: %w", err)
		}
	}
	parseNs := float64(time.Since(t0)) / n
	goruntime.ReadMemStats(&m1)
	out.setN("server.parse_command_ns", parseNs, len(calls))
	out.set("server.parse_command_allocs", float64(m1.Mallocs-m0.Mallocs)/n)

	all = all[:0]
	for _, rp := range replies {
		all = append(append(append(all, rp.Kind), rp.Str...), '\r', '\n')
	}
	r = bufio.NewReaderSize(bytes.NewReader(all), 64<<10)
	t0 = time.Now()
	for range replies {
		if _, err := server.ParseReply(r); err != nil {
			return 0, fmt.Errorf("ParseReply rejected a reply it parsed before: %w", err)
		}
	}
	replyNs := ratio(float64(time.Since(t0)), float64(len(replies)))
	out.setN("client.parse_reply_ns", replyNs, len(replies))
	return appendNs + parseNs + replyNs, nil
}
