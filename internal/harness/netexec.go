package harness

import (
	"os"
	"sort"
	"sync"
	"time"

	"ipa/internal/netrepl"
	"ipa/internal/runtime"
	"ipa/internal/wan"
)

// netPace converts the schedule's virtual time into real time on the
// netrepl backend: one virtual millisecond sleeps netPace of a real one.
// The schedule's 3-second default horizon becomes ~60ms of wall clock —
// long enough for replication, partitions, and retries to genuinely
// interleave with the workload on real sockets, short enough to run
// campaigns. Pacing shapes the run, it does not gate correctness: every
// check below is valid in any causally consistent state.
const netPace = 0.02

// chaosNetConfig tunes the socket cluster for chaos runs: a low backoff
// ceiling so partitioned senders re-probe quickly after heal, and a tight
// flush interval so replication lands inside the compressed horizon.
// dataDir, when non-empty, makes every node durable — the schedule has
// lifecycle faults, so crash/recover and join must round-trip through
// real write-ahead logs and snapshots. SnapshotEvery is tiny on purpose:
// chaos traffic is a few kilobytes, and the snapshot/truncation cycle is
// one of the two subtle recovery paths the fuzzing exists to cover.
func chaosNetConfig(dataDir string) runtime.NetConfig {
	return runtime.NetConfig{
		DataDir: dataDir,
		Transport: netrepl.Config{
			FlushInterval: 200 * time.Microsecond,
			BackoffMin:    time.Millisecond,
			BackoffMax:    25 * time.Millisecond,
			// A violation returns with faults still live; keep the
			// senders' post-Close flush window short so teardown does not
			// stall against a still-blocked receiver.
			DrainTimeout:  200 * time.Millisecond,
			SnapshotEvery: 4096,
		},
	}
}

// hasLifecycleFaults reports whether the schedule crashes or joins
// sites — the faults that need durable nodes to mean anything.
func hasLifecycleFaults(s *Schedule) bool {
	for _, f := range s.Faults {
		if f.Kind == FaultCrash || f.Kind == FaultJoin {
			return true
		}
	}
	return false
}

// executeNet runs one schedule on the netrepl backend: the same workload
// ops, fault windows, and check points as the simulator, executed in
// virtual-time order against real TCP nodes with the gaps compressed by
// netPace. Replication runs concurrently on the transport's goroutines,
// so runs are not bit-reproducible — but every assertion the engine makes
// (mid-flight invariants in causally consistent local states, quiescence
// invariants after repair, cross-replica digest convergence) must hold
// under any interleaving; that is exactly the paper's claim, now checked
// against real sockets.
//
// With Config.Concurrency > 1 the workload additionally fans out to a
// pool of client workers: the timeline thread still paces dispatch in
// schedule order, but Concurrency ops may be mid-Apply at once, racing
// each other and the receive path for each replica's lock. Mid-flight
// checks run alongside them: a check reads in one transaction, which sees
// every local and remote transaction whole. Crash and join faults
// quiesce the pool first (lifecycleGate); the quiescence protocol is
// unchanged — workers join before Quiesce runs.
func executeNet(s *Schedule) (string, *Violation, error) {
	app, err := newApp(s.Cfg)
	if err != nil {
		return "", nil, err
	}
	sites := wan.SiteIDs(s.Cfg.Replicas)
	// Durable nodes only when the schedule exercises lifecycle faults:
	// every commit then fsyncs (group commit), which is the contract
	// crash/recover is checked against, and dead weight otherwise.
	var dataDir string
	if hasLifecycleFaults(s) {
		var err error
		if dataDir, err = os.MkdirTemp("", "ipa-chaos-*"); err != nil {
			return "", nil, err
		}
		defer os.RemoveAll(dataDir)
	}
	cluster, err := runtime.NewNetCluster(sites, chaosNetConfig(dataDir))
	if err != nil {
		return "", nil, err
	}
	defer cluster.Close()
	ctx := NewCtx(s.Cfg, cluster, sites)

	// Seed state and let it replicate everywhere before chaos starts.
	app.Setup(ctx)
	if err := cluster.Settle(); err != nil {
		return "", nil, err
	}
	// Durable runs snapshot the seeded state before any crash can hit:
	// objects created out-of-band (comp-set bounds via Replica.Object)
	// exist in no WAL record, so only a snapshot makes them recoverable.
	if dataDir != "" {
		if err := cluster.SnapshotAll(); err != nil {
			return "", nil, err
		}
	}

	// Client worker pool (Concurrency > 1). Workers hold
	// lifecycleGate.RLock around each op; crash and join faults take the
	// write lock to quiesce the pool (see below).
	var (
		lifecycleGate sync.RWMutex
		opCh          chan Op
		workers       sync.WaitGroup
	)
	conc := s.Cfg.Concurrency
	if conc > 1 {
		opCh = make(chan Op)
		for w := 0; w < conc; w++ {
			workers.Add(1)
			go func() {
				defer workers.Done()
				for op := range opCh {
					lifecycleGate.RLock()
					app.Apply(ctx, op)
					lifecycleGate.RUnlock()
				}
			}()
		}
	}
	dispatch := func(op Op) {
		if conc > 1 {
			opCh <- op
			return
		}
		app.Apply(ctx, op)
	}
	join := func() {
		if conc > 1 && opCh != nil {
			close(opCh)
			workers.Wait()
			opCh = nil
		}
	}
	defer join()

	// The timeline runs in virtual-time order, ties in list order (the
	// sim's FIFO tie-break). Heals scheduled past the horizon still run
	// (the simulator's quiescence force-heals them; here they sort after
	// the horizon's steps and execute before healAll — same net effect).
	steps := timeline(s, ctx, app, dispatch)
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
	var found *Violation
	prev := wan.Time(0)
	for _, st := range steps {
		if dt := st.at - prev; dt > 0 {
			// wan.Time is microseconds; convert before scaling.
			time.Sleep(time.Duration(float64(dt) * netPace * float64(time.Microsecond)))
		}
		prev = st.at
		if st.lifecycle {
			// A kill -9 must not race a worker mid-Apply: an operation
			// acknowledged by a node whose WAL was just abandoned would be
			// acked-but-lost, which is precisely what the durability
			// contract forbids. The write lock waits for in-flight ops
			// and holds new ones off.
			lifecycleGate.Lock()
			found = st.run()
			lifecycleGate.Unlock()
		} else {
			found = st.run()
		}
		if found != nil {
			break
		}
	}
	join()
	return finish(ctx, app, found)
}
