package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"ipa/internal/server"
)

const (
	// warmupCalls is untimed load before the window, as a fleet-wide call
	// count: connections established, heap at its working size, the
	// mix's state (enrolments, finished tournaments) at its steady
	// composition. A count, not a time, so the state the window starts
	// from does not depend on host speed — and serve-wide needs the
	// calls: every tournament's first finish_tourn over 512 players costs
	// ≈ 14 ms, a transient of some 4,000 calls that no window should see.
	warmupCalls = 8000
	dialTimeout = 5 * time.Second
)

// values is what one run measured: metric name → value. samples carries
// the sample count behind the timings that have one.
type values struct {
	v       map[string]float64
	samples map[string]int
}

func newValues() *values { return &values{v: map[string]float64{}, samples: map[string]int{}} }

func (m *values) set(name string, v float64) { m.v[name] = v }
func (m *values) setN(name string, v float64, n int) {
	m.v[name] = v
	m.samples[name] = n
}

// wireRun is the outcome of one workload against one spawned server.
type wireRun struct {
	*values
	attempted, failed int64
}

// episode is one stretch of load the connections drive together: a timed
// window, or a fixed number of calls per connection. A workload is a
// warm-up episode followed by one or more measured ones.
type episode struct {
	measure bool
	window  time.Duration // timed episode; 0 when calls says how long
	calls   int           // calls per connection
	start   time.Time
}

// conn is one load connection and everything its goroutine records. The
// coordinator reads it only between episodes.
type conn struct {
	id        int
	c         *server.Client
	gen       *callGen
	stabilize bool // this connection is the operator (conn 0 of a stabilised workload)
	tr        *tracer
	parent    int // span the batches hang under

	work chan episode
	done chan error

	lat     []int64 // flush → reply, per completed call of the measured episodes
	at      []int64 // completion time of the same call, since its episode's start
	stab    []int64 // STABILIZE round trips in measured episodes
	batches int

	attempted, failed, refused, untimed int64
}

// serve drives episodes as the coordinator hands them out.
func (cn *conn) serve() {
	for ep := range cn.work {
		cn.done <- cn.drive(ep)
	}
}

func (cn *conn) drive(ep episode) error {
	for calls := 0; ; calls += pipelineDepth {
		if ep.calls > 0 && calls >= ep.calls {
			return nil
		}
		if ep.calls == 0 && time.Since(ep.start) >= ep.window {
			return nil
		}
		if err := cn.batch(ep); err != nil {
			return err
		}
		if cn.stabilize && cn.batches%stabilizeEvery == 0 {
			// The operator's part: one STABILIZE round trip between
			// batches. It is not a CALL and is in no latency sample.
			span := -1
			if ep.measure {
				span = cn.tr.begin("runtime.stabilize", cn.parent, 0)
			}
			t0 := time.Now()
			if err := cn.c.DoOK("STABILIZE"); err != nil {
				return err
			}
			if ep.measure {
				cn.stab = append(cn.stab, int64(time.Since(t0)))
				cn.tr.end(span)
			}
		}
	}
}

// batch sends pipelineDepth calls in one flush and reads their replies.
// A transport error ends the run; an error reply other than
// -PRECONDITION is a failed call.
func (cn *conn) batch(ep episode) error {
	for i := 0; i < pipelineDepth; i++ {
		cn.c.Send(callCommand(cn.gen.next())...)
	}
	span := -1
	if ep.measure {
		// The span's id is the batch's first call, numbered per connection.
		span = cn.tr.begin("client.batch", cn.parent, int64(cn.id)<<32|cn.attempted)
		cn.attempted += pipelineDepth
	}
	t0 := time.Now()
	if err := cn.c.Flush(); err != nil {
		return fmt.Errorf("conn %d: flush: %w", cn.id, err)
	}
	for i := 0; i < pipelineDepth; i++ {
		rp, err := cn.c.Recv()
		if err != nil {
			return fmt.Errorf("conn %d: reply %d of a batch of %d unanswered: %w", cn.id, i+1, pipelineDepth, err)
		}
		if !ep.measure {
			continue
		}
		now := time.Now()
		switch {
		case rp.Kind == '+':
		case refused(rp):
			cn.refused++
		default:
			cn.failed++
			fmt.Fprintf(os.Stderr, "conn %d: failed call: %c%s\n", cn.id, rp.Kind, rp.Str)
			continue
		}
		if len(cn.lat) == cap(cn.lat) {
			cn.untimed++
			continue
		}
		cn.lat = append(cn.lat, int64(now.Sub(t0)))
		cn.at = append(cn.at, int64(now.Sub(ep.start)))
	}
	cn.tr.end(span)
	cn.batches++
	return nil
}

// episodeStats is one measured episode, all connections together.
type episodeStats struct {
	elapsed time.Duration
	lat, at []int64
}

// runEpisode releases the connections into ep and waits for all of them.
func runEpisode(conns []*conn, ep episode) (time.Duration, error) {
	ep.start = time.Now()
	for _, cn := range conns {
		cn.work <- ep
	}
	var errs []error
	for _, cn := range conns {
		errs = append(errs, <-cn.done)
	}
	return time.Since(ep.start), errors.Join(errs...)
}

// loadResult is what the load phase measured, before any arithmetic.
type loadResult struct {
	episodes []episodeStats
	stab     []int64 // every STABILIZE round trip between the window's edges
	wall     time.Duration
	cpuTicks int64 // server utime+stime between the window's edges
	rssMB    float64
	info0    map[string]int64 // INFO at the window's start

	attempted, failed, refused, untimed int64
}

// load dials the connections and drives the warm-up and the measured
// episodes. The server's counters are read while the connections stand
// between episodes (the window's start) and right after the last reply.
func load(srv *serverProc, ctl *server.Client, sites []string, w workload, seed int64, seconds int, tr *tracer, span int) (ld loadResult, err error) {
	conns := make([]*conn, connections)
	for i := range conns {
		c, err := server.Dial(srv.addr, dialTimeout)
		if err != nil {
			return ld, err
		}
		defer c.Close()
		if err := c.DoOK("SITE", sites[i%len(sites)]); err != nil {
			return ld, err
		}
		conns[i] = &conn{
			id: i, c: c, gen: newCallGen(w.pools, seed, i), stabilize: w.stabilize && i == 0,
			tr: tr, parent: span,
			work: make(chan episode), done: make(chan error),
			lat: make([]int64, 0, maxSamples), at: make([]int64, 0, maxSamples),
		}
		go conns[i].serve()
		defer close(conns[i].work)
	}

	// After the warm-up episode a timed workload is one measured window. A
	// workload that fixes the call count runs one episode per second of
	// -seconds, each from a compacted store, and reports the median
	// episode: the history every episode builds is set by its call count
	// and not by the host's speed, and no single garbage-collection
	// cycle over it decides the result.
	warm := episode{calls: warmupCalls / connections}
	measured := []episode{{measure: true, window: time.Duration(seconds) * time.Second}}
	if w.episodeCalls > 0 {
		measured = make([]episode, seconds)
		for i := range measured {
			measured[i] = episode{measure: true, calls: w.episodeCalls / connections}
		}
	}
	// compact returns an episodic workload's store to its compacted
	// state. Two passes: a remove-wins tombstone is fenced by the first
	// horizon that covers it and discarded by the next.
	compact := func(measure bool) error {
		for pass := 0; pass < 2 && w.episodeCalls > 0; pass++ {
			if err := ctl.DoOK("SETTLE"); err != nil {
				return err
			}
			id := tr.begin("runtime.stabilize", span, 0)
			t0 := time.Now()
			if err := ctl.DoOK("STABILIZE"); err != nil {
				return err
			}
			tr.end(id)
			if measure {
				ld.stab = append(ld.stab, int64(time.Since(t0)))
			}
		}
		return nil
	}

	if _, err := runEpisode(conns, warm); err != nil {
		return ld, err
	}
	if err := compact(false); err != nil {
		return ld, err
	}
	if ld.info0, _, err = serverInfo(ctl); err != nil {
		return ld, err
	}
	cpu0, err := srv.cpuTicks()
	if err != nil {
		return ld, err
	}
	windowStart := time.Now()
	for i, ep := range measured {
		if i > 0 {
			if err := compact(true); err != nil {
				return ld, err
			}
		}
		from := make([]int, len(conns))
		for j, cn := range conns {
			from[j] = len(cn.lat)
		}
		elapsed, err := runEpisode(conns, ep)
		if err != nil {
			return ld, err
		}
		es := episodeStats{elapsed: elapsed}
		for j, cn := range conns {
			es.lat = append(es.lat, cn.lat[from[j]:]...)
			es.at = append(es.at, cn.at[from[j]:]...)
		}
		ld.episodes = append(ld.episodes, es)
	}
	ld.wall = time.Since(windowStart)
	cpu1, err := srv.cpuTicks()
	if err != nil {
		return ld, err
	}
	ld.cpuTicks = cpu1 - cpu0
	if ld.rssMB, err = srv.peakRSSMB(); err != nil {
		return ld, err
	}
	for _, cn := range conns {
		ld.stab = append(ld.stab, cn.stab...)
		ld.attempted += cn.attempted
		ld.failed += cn.failed
		ld.refused += cn.refused
		ld.untimed += cn.untimed
	}
	return ld, nil
}

// runWire runs one workload end to end: spawn, seed, warm up, measure,
// verify, stop. tr is nil for the untraced (end-to-end) run.
func runWire(bin, scratch string, w workload, seed int64, seconds int, tr *tracer) (run wireRun, err error) {
	run.values = newValues()
	rootSpan := tr.begin("workload."+w.name, -1, 0)
	defer tr.end(rootSpan)

	dataDir := ""
	if w.durable {
		if dataDir, err = os.MkdirTemp(scratch, "data-"); err != nil {
			return run, err
		}
		defer os.RemoveAll(dataDir)
	}

	// Set-up: spawn → listening → seed calls → SETTLE.
	setupSpan := tr.begin("setup", rootSpan, 0)
	setupStart := time.Now()
	srv, err := spawnServer(bin, w.sites, dataDir)
	if err != nil {
		return run, err
	}
	// Whatever happens below, the child does not outlive this function.
	defer func() {
		if err != nil {
			srv.kill()
		}
	}()
	ctl, err := server.Dial(srv.addr, dialTimeout)
	if err != nil {
		return run, err
	}
	defer ctl.Close()
	if err = seedState(ctl, w.pools); err != nil {
		return run, err
	}
	run.set("setup_s", time.Since(setupStart).Seconds())
	tr.end(setupSpan)

	_, sites, err := serverInfo(ctl)
	if err != nil {
		return run, err
	}
	if len(sites) != w.sites {
		return run, fmt.Errorf("server reports %d sites, workload wants %d", len(sites), w.sites)
	}

	loadSpan := tr.begin("load", rootSpan, 0)
	ld, err := load(srv, ctl, sites, w, seed, seconds, tr, loadSpan)
	tr.end(loadSpan)
	if err != nil {
		return run, err
	}

	verifySpan := tr.begin("verify", rootSpan, 0)
	ver, err := verify(ctl, tr, verifySpan)
	tr.end(verifySpan)
	if err != nil {
		return run, err
	}
	info1, _, err := serverInfo(ctl)
	if err != nil {
		return run, err
	}
	if err = run.record(w, ld, ver, info1); err != nil {
		return run, err
	}

	// Stop; serve-durable first crashes and recovers. Every acked call
	// was settled (and so fsynced at every site) before this point, so
	// kill -9 may lose nothing.
	run.set("store.recover_s", 0)
	if w.durable {
		crashSpan := tr.begin("store.recover", rootSpan, 0)
		srv.kill()
		again, err := spawnServer(bin, w.sites, dataDir)
		if err != nil {
			return run, fmt.Errorf("restart over %s: %w", dataDir, err)
		}
		tr.end(crashSpan)
		run.set("store.recover_s", (again.listening - srv.listening).Seconds())
		srv = again // the deferred kill now guards the restarted child
		ctl2, err := server.Dial(srv.addr, dialTimeout)
		if err != nil {
			return run, err
		}
		defer ctl2.Close()
		lines, err := digests(ctl2, tr, rootSpan)
		if err != nil {
			return run, err
		}
		for _, line := range lines {
			if _, got := splitDigest(line); got != ver.digest {
				return run, fmt.Errorf("state after kill -9 + restart differs from the verified state:\n%s",
					digestDiff(append([]string{"before-crash " + ver.digest}, lines...)))
			}
		}
	}
	if err = srv.stop(); err != nil {
		return run, err
	}
	return run, nil
}

// record turns what the load and the verification measured into the
// run's metrics.
func (run *wireRun) record(w workload, ld loadResult, ver verification, info1 map[string]int64) error {
	run.attempted, run.failed = ld.attempted, ld.failed
	completed := ld.attempted - ld.failed
	if completed == 0 {
		return errors.New("no call completed in the window")
	}
	if ld.untimed > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d completed calls past the %d-sample bound were counted but not timed\n", w.name, ld.untimed, maxSamples)
	}
	// Per episode, then the median episode (with one episode, itself).
	var ops, p50, p99, p999, decay []float64
	samples := 0
	for _, es := range ld.episodes {
		slices.Sort(es.lat)
		n := len(es.lat)
		samples += n
		if beyond := samplesBeyond(n, 99); beyond < 10 {
			fmt.Fprintf(os.Stderr, "%s: only %d samples beyond p99 (n=%d); the episode is too short to support it\n", w.name, beyond, n)
		}
		ops = append(ops, float64(n)/es.elapsed.Seconds())
		p50 = append(p50, ms(percentile(es.lat, 50)))
		p99 = append(p99, ms(percentile(es.lat, 99)))
		p999 = append(p999, ms(percentile(es.lat, 99.9)))
		decay = append(decay, decayRatio(es.at, int64(es.elapsed)))
	}
	if len(ld.episodes) > 1 {
		fmt.Fprintf(os.Stderr, "%s: per episode: ops/s %.0f, p50 ms %.2f, p99 ms %.1f\n", w.name, ops, p50, p99)
	}
	run.setN("call_ops_per_s", median(ops), samples)
	run.setN("call_p50_ms", median(p50), samples)
	run.setN("call_p99_ms", median(p99), samples)
	run.set("server_cpu_us_per_call", float64(ld.cpuTicks)*(1e6/userHz)/float64(completed))
	run.set("server_peak_rss_mb", ld.rssMB)

	run.set("client.completed_share", float64(completed)/float64(ld.attempted))
	run.setN("client.call_p999_ms", median(p999), samples)
	run.set("engine.refused_share", float64(ld.refused)/float64(completed))
	run.set("server.decay_ratio", median(decay))
	d := func(key string) float64 { return float64(info1[key] - ld.info0[key]) }
	run.set("netrepl.txns_per_frame", ratio(d("repl_txns_sent"), d("repl_frames_sent")))
	run.set("netrepl.bytes_per_txn", ratio(d("repl_bytes_sent"), d("repl_txns_sent")))
	run.set("netrepl.backpressure_waits", d("repl_backpressure_waits"))
	run.set("netrepl.send_errors", d("repl_send_errors"))
	run.set("store.wal_appends_per_sync", ratio(d("repl_wal_appends"), d("repl_wal_syncs")))
	run.set("store.wal_bytes_per_call", ratio(d("repl_wal_bytes"), d("calls")))
	run.set("store.snapshots", d("repl_snapshots"))
	slices.Sort(ld.stab)
	var stabTotal int64
	for _, s := range ld.stab {
		stabTotal += s
	}
	run.setN("runtime.stabilize_p50_ms", ms(percentile(ld.stab, 50)), len(ld.stab))
	run.setN("runtime.stabilize_max_ms", ms(percentile(ld.stab, 100)), len(ld.stab))
	run.set("runtime.stabilize_time_share", float64(stabTotal)/float64(ld.wall))
	run.set("runtime.drain_ms", ms(int64(ver.drain)))
	run.set("engine.check_s", ver.check.Seconds())
	run.set("engine.repair_rounds", float64(ver.repairRounds))
	return nil
}

// seedState issues the seed calls pipelined on the control connection,
// requires every one to succeed, and settles.
func seedState(ctl *server.Client, p pools) error {
	calls := p.seedCalls()
	const chunk = 64 // replies of one chunk fit the server's write buffer many times over
	for len(calls) > 0 {
		n := min(chunk, len(calls))
		for _, call := range calls[:n] {
			ctl.Send(callCommand(call)...)
		}
		if err := ctl.Flush(); err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		for _, call := range calls[:n] {
			rp, err := ctl.Recv()
			if err == nil {
				err = rp.Err()
			}
			if err != nil {
				return fmt.Errorf("seed call %v: %w", call, err)
			}
		}
		calls = calls[n:]
	}
	return ctl.DoOK("SETTLE")
}

// callCommand is the wire form of one generated call.
func callCommand(call []string) []string {
	return append([]string{"CALL", appName}, call...)
}

// refused reports a guarded no-op: an outcome, not a failure.
func refused(rp server.Reply) bool {
	return rp.Kind == '-' && strings.HasPrefix(rp.Str, "PRECONDITION")
}

// serverInfo reads INFO: the numeric counters, and the site names.
func serverInfo(ctl *server.Client) (counters map[string]int64, sites []string, err error) {
	rp, err := ctl.Do("INFO")
	if err == nil {
		err = rp.Err()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("INFO: %w", err)
	}
	counters = map[string]int64{}
	for _, line := range strings.Split(rp.Str, "\r\n") {
		k, v, _ := strings.Cut(line, ":")
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			counters[k] = n
		} else if k == "sites" && v != "" {
			sites = strings.Split(v, ",")
		}
	}
	return counters, sites, nil
}

// decayRatio is completions in the last quarter of the window over
// completions in the first: ≈ 1 for a server in steady state, below 1
// for one that slows as its history grows.
func decayRatio(done []int64, elapsed int64) float64 {
	var first, last float64
	for _, t := range done {
		switch {
		case t < elapsed/4:
			first++
		case t >= elapsed-elapsed/4:
			last++
		}
	}
	return ratio(last, first)
}

// ratio is a/b, and 0 when the layer did no work at all (b = 0): a
// single-site server sends no frames, an in-memory one never syncs.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
