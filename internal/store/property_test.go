package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/wan"
)

// TestFIFOReorderUnderJitter forces two transactions from the same origin
// to arrive out of order at a peer (the second on a faster link sample)
// and checks the causal queue reorders them.
func TestFIFOReorderUnderJitter(t *testing.T) {
	sim := wan.NewSim(1)
	// A latency model with huge jitter guarantees reordering eventually.
	lat := wan.NewLatency(wan.Ms(40))
	lat.Jitter = 0.9
	ids := []clock.ReplicaID{"a", "b"}
	c := NewCluster(sim, lat, ids)
	a := c.Replica("a")

	// Many back-to-back transactions; with 90% jitter the arrival order
	// at b will differ from the send order many times.
	const n = 50
	for i := 0; i < n; i++ {
		tx := a.Begin()
		AWSetAt(tx, "s").Add(fmt.Sprintf("e%03d", i), "")
		tx.Commit()
	}
	sim.Run()
	b := c.Replica("b")
	tx := b.Begin()
	if got := AWSetAt(tx, "s").Size(); got != n {
		t.Fatalf("b delivered %d of %d transactions", got, n)
	}
	tx.Commit()
	if b.TxnsDelivered != n {
		t.Fatalf("delivered = %d, want %d (exactly once)", b.TxnsDelivered, n)
	}
	// The queue actually had to hold messages at some point.
	if b.QueuedMax < 2 {
		t.Skip("jitter did not reorder in this run (seed-dependent)")
	}
}

// TestRandomWorkloadConvergence drives a random mixed-type workload from
// all replicas with interleaved partial replication, then checks complete
// convergence of every object at every replica — the core guarantee of
// the substrate (causal delivery + CRDT commutativity).
func TestRandomWorkloadConvergence(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		sim := wan.NewSim(seed)
		lat := wan.PaperTopology()
		ids := []clock.ReplicaID{wan.USEast, wan.USWest, wan.EUWest}
		c := NewCluster(sim, lat, ids)
		rng := rand.New(rand.NewSource(seed * 7))

		elems := []string{"x", "y", "z", crdt.JoinTuple("p", "t"), crdt.JoinTuple("q", "t")}
		for step := 0; step < 120; step++ {
			r := c.Replica(ids[rng.Intn(len(ids))])
			tx := r.Begin()
			switch rng.Intn(6) {
			case 0:
				AWSetAt(tx, "aw").Add(elems[rng.Intn(len(elems))], fmt.Sprintf("pay%d", step))
			case 1:
				AWSetAt(tx, "aw").Remove(elems[rng.Intn(len(elems))])
			case 2:
				RWSetAt(tx, "rw").Add(elems[rng.Intn(len(elems))], "")
			case 3:
				RWSetAt(tx, "rw").Remove(elems[rng.Intn(len(elems))])
			case 4:
				CounterAt(tx, "cnt").Add(int64(rng.Intn(7)) - 3)
			case 5:
				RegisterAt(tx, "reg").Set(fmt.Sprintf("v%d", step))
			}
			tx.Commit()
			// Advance a random small amount so replication interleaves.
			sim.RunUntil(sim.Now() + wan.Time(rng.Int63n(int64(wan.Ms(30)))))
		}
		sim.Run()

		type view struct {
			aw, rw []string
			cnt    int64
			reg    string
		}
		var first view
		for i, id := range ids {
			tx := c.Replica(id).Begin()
			v := view{
				aw:  AWSetAt(tx, "aw").Elems(),
				rw:  RWSetAt(tx, "rw").Elems(),
				cnt: CounterAt(tx, "cnt").Value(),
			}
			v.reg, _ = RegisterAt(tx, "reg").Value()
			tx.Commit()
			if i == 0 {
				first = v
				continue
			}
			if fmt.Sprint(v) != fmt.Sprint(first) {
				t.Fatalf("seed %d: replica %s diverged:\n%v\nvs\n%v", seed, id, v, first)
			}
		}
	}
}

// TestCompactionPreservesObservableState runs a workload, snapshots the
// observable state, compacts via the stability horizon, and checks that
// no observable query changes — GC must be invisible.
func TestCompactionPreservesObservableState(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		sim := wan.NewSim(seed)
		ids := []clock.ReplicaID{wan.USEast, wan.USWest, wan.EUWest}
		c := NewCluster(sim, wan.PaperTopology(), ids)
		rng := rand.New(rand.NewSource(seed))

		elems := []string{crdt.JoinTuple("a", "t1"), crdt.JoinTuple("b", "t1"), crdt.JoinTuple("a", "t2")}
		for step := 0; step < 60; step++ {
			r := c.Replica(ids[rng.Intn(len(ids))])
			tx := r.Begin()
			e := elems[rng.Intn(len(elems))]
			switch rng.Intn(5) {
			case 0:
				RWSetAt(tx, "rw").Add(e, "")
			case 1:
				RWSetAt(tx, "rw").Remove(e)
			case 2:
				RWSetAt(tx, "rw").RemoveWhere(crdt.Match{Index: 1, Value: "t1"})
			case 3:
				AWSetAt(tx, "aw").Add(e, "payload")
			case 4:
				AWSetAt(tx, "aw").Remove(e)
			}
			tx.Commit()
			sim.RunUntil(sim.Now() + wan.Time(rng.Int63n(int64(wan.Ms(25)))))
		}
		sim.Run()

		snapshot := func(id clock.ReplicaID) string {
			tx := c.Replica(id).Begin()
			defer tx.Commit()
			return fmt.Sprint(RWSetAt(tx, "rw").Elems(), AWSetAt(tx, "aw").Elems())
		}
		before := map[clock.ReplicaID]string{}
		for _, id := range ids {
			before[id] = snapshot(id)
		}
		h := c.Stabilize()
		if h.Sum() == 0 {
			t.Fatalf("seed %d: stability horizon empty after full convergence", seed)
		}
		for _, id := range ids {
			if after := snapshot(id); after != before[id] {
				t.Fatalf("seed %d: compaction changed observable state at %s:\n%s\nvs\n%s",
					seed, id, before[id], after)
			}
		}
	}
}

// TestPartitionedWritesSurviveHeal checks no update is lost when a
// replica writes during a partition (availability of weak consistency).
func TestPartitionedWritesSurviveHeal(t *testing.T) {
	sim := wan.NewSim(3)
	ids := []clock.ReplicaID{wan.USEast, wan.USWest, wan.EUWest}
	c := NewCluster(sim, wan.PaperTopology(), ids)

	c.SetPartitioned(wan.USEast, wan.EUWest, true)
	c.SetPartitioned(wan.USWest, wan.EUWest, true)

	// eu-west keeps serving writes while isolated.
	eu := c.Replica(wan.EUWest)
	for i := 0; i < 10; i++ {
		tx := eu.Begin()
		AWSetAt(tx, "s").Add(fmt.Sprintf("eu-%d", i), "")
		tx.Commit()
	}
	// The others write too.
	tx := c.Replica(wan.USEast).Begin()
	AWSetAt(tx, "s").Add("east-1", "")
	tx.Commit()
	sim.RunUntil(sim.Now() + wan.Ms(500))

	// During the partition, east sees only its own write.
	etx := c.Replica(wan.USEast).Begin()
	if got := AWSetAt(etx, "s").Size(); got != 1 {
		t.Fatalf("east view during partition = %d, want 1", got)
	}
	etx.Commit()

	c.SetPartitioned(wan.USEast, wan.EUWest, false)
	c.SetPartitioned(wan.USWest, wan.EUWest, false)
	sim.Run()

	for _, id := range ids {
		tx := c.Replica(id).Begin()
		if got := AWSetAt(tx, "s").Size(); got != 11 {
			t.Fatalf("replica %s has %d elements after heal, want 11", id, got)
		}
		tx.Commit()
	}
}

// --- Concurrent sharded-core properties --------------------------------
//
// The tests below exercise the replica core the way a real transport
// does: many client goroutines committing local transactions while
// remote transactions stream in through Replica.Deliver from concurrent
// goroutines, out of order and duplicated. Run them under -race; they
// are the property suite for the sharded locking discipline (two-phase
// shard acquisition, tag window, the causal delivery buffer).

// pipeReplicas wires two socket-cluster replicas together: every commit
// at one side is delivered at the other by two goroutines, each of which
// gets every transaction and delivers what it has queued in shuffled
// batches — so each stream arrives concurrently, out of order and
// duplicated, as from an at-least-once transport that reconnects. Call
// the returned drain function after all writers joined to wait for full
// delivery.
func pipeReplicas(t *testing.T, a, b *Replica) (drain func()) {
	t.Helper()
	var chans []chan WireTxn
	wire := func(src, dst *Replica, seed int64) {
		pair := [2]chan WireTxn{make(chan WireTxn, 1<<16), make(chan WireTxn, 1<<16)}
		chans = append(chans, pair[:]...)
		src.cluster.SetOnCommit(func(w WireTxn) {
			pair[0] <- w
			pair[1] <- w
		})
		for i, ch := range pair {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			go func(ch chan WireTxn) {
				for w := range ch {
					batch := []WireTxn{w}
					for len(batch) < 16 && len(ch) > 0 {
						batch = append(batch, <-ch)
					}
					rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
					for _, w := range batch {
						dst.Deliver(w)
					}
				}
			}(ch)
		}
	}
	wire(a, b, 1)
	wire(b, a, 3)
	return func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			queued := 0
			for _, ch := range chans {
				queued += len(ch)
			}
			if queued == 0 && a.Buffered() == 0 && b.Buffered() == 0 && a.Clock().Equal(b.Clock()) {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("replicas did not converge: %s vs %s", a.Clock(), b.Clock())
	}
}

// TestConcurrentLocalVsExternalApply drives concurrent local transactions
// (goroutine-private counters, a shared add-wins set) against the
// concurrent remote apply path, asserting per-key linearizable
// read-your-writes throughout and cross-replica convergence at the end.
func TestConcurrentLocalVsExternalApply(t *testing.T) {
	a := NewSocketCluster("a").Replica("a")
	b := NewSocketCluster("b").Replica("b")
	drain := pipeReplicas(t, a, b)

	const (
		workers = 4
		txnsPer = 120
	)
	var wg sync.WaitGroup
	for side, r := range map[string]*Replica{"a": a, "b": b} {
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(side string, r *Replica, g int) {
				defer wg.Done()
				// Keys are spread over many shards; the private counter is
				// this goroutine's linearizability probe.
				private := fmt.Sprintf("priv/%s/%d", side, g)
				shared := "shared/set"
				for i := 0; i < txnsPer; i++ {
					tx := r.Begin()
					CounterAt(tx, private).Add(1)
					AWSetAt(tx, shared).Add(fmt.Sprintf("%s-%d-%d", side, g, i), "")
					tx.Commit()

					// Read-your-writes, per key: a fresh transaction at the
					// same replica must see every increment this goroutine
					// has committed (nobody else touches the private key).
					check := r.Begin()
					got := CounterAt(check, private).Value()
					check.Commit()
					if got != int64(i+1) {
						t.Errorf("%s/%d: read-own-writes broken: counter=%d after %d commits", side, g, got, i+1)
						return
					}
				}
			}(side, r, g)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	drain()

	// Convergence: identical shared-set contents and private counters.
	digest := func(r *Replica) string {
		tx := r.Begin()
		defer tx.Commit()
		out := fmt.Sprint(AWSetAt(tx, "shared/set").Size())
		for _, side := range []string{"a", "b"} {
			for g := 0; g < workers; g++ {
				out += fmt.Sprintf(" %d", CounterAt(tx, fmt.Sprintf("priv/%s/%d", side, g)).Value())
			}
		}
		return out
	}
	da, db := digest(a), digest(b)
	if da != db {
		t.Fatalf("replicas diverged:\n%s\nvs\n%s", da, db)
	}
	tx := a.Begin()
	if got, want := AWSetAt(tx, "shared/set").Size(), 2*workers*txnsPer; got != want {
		t.Fatalf("shared set has %d elements, want %d", got, want)
	}
	tx.Commit()
}

// TestCrossShardAtomicityConcurrent is the multi-key atomicity property
// in the concurrent setting: every writer transaction increments all K
// counters (keys chosen to span many shards), so in any transaction-
// consistent snapshot all K values are equal. Reader transactions on
// both the origin and the remote replica assert that continuously while
// writers and the apply path run; a reader observing a half-attached
// effect group fails the test.
func TestCrossShardAtomicityConcurrent(t *testing.T) {
	a := NewSocketCluster("a").Replica("a")
	b := NewSocketCluster("b").Replica("b")
	drain := pipeReplicas(t, a, b)

	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("atomic/k%02d", i*7) // spread across shards
	}

	const (
		writersPer = 3
		txnsPer    = 80
	)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, r := range []*Replica{a, b} {
		readers.Add(1)
		go func(r *Replica) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Bind every key first (acquiring all shards), then read:
				// the reads form one transaction-consistent snapshot.
				tx := r.Begin()
				refs := make([]CounterRef, len(keys))
				for i, k := range keys {
					refs[i] = CounterAt(tx, k)
				}
				base := refs[0].Value()
				for i, ref := range refs {
					if v := ref.Value(); v != base {
						t.Errorf("%s: torn effect group: %s=%d but %s=%d",
							r.ID(), keys[0], base, keys[i], v)
						tx.Commit()
						return
					}
				}
				tx.Commit()
			}
		}(r)
	}

	var writers sync.WaitGroup
	rng := rand.New(rand.NewSource(7))
	order := make([][]string, writersPer*2)
	for i := range order {
		// Each writer binds the keys in its own random order, exercising
		// the out-of-order acquisition (escalation) path.
		perm := rng.Perm(len(keys))
		ks := make([]string, len(keys))
		for j, p := range perm {
			ks[j] = keys[p]
		}
		order[i] = ks
	}
	for w := 0; w < writersPer*2; w++ {
		writers.Add(1)
		go func(w int, r *Replica) {
			defer writers.Done()
			for i := 0; i < txnsPer; i++ {
				tx := r.Begin()
				refs := make([]CounterRef, 0, len(keys))
				for _, k := range order[w] {
					refs = append(refs, CounterAt(tx, k))
				}
				for _, ref := range refs {
					ref.Add(1)
				}
				tx.Commit()
			}
		}(w, []*Replica{a, b}[w%2])
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	drain()

	// Final state: all counters equal the total number of transactions on
	// both replicas.
	want := int64(writersPer * 2 * txnsPer)
	for _, r := range []*Replica{a, b} {
		tx := r.Begin()
		for _, k := range keys {
			if v := CounterAt(tx, k).Value(); v != want {
				t.Fatalf("%s: %s = %d, want %d", r.ID(), k, v, want)
			}
		}
		tx.Commit()
	}
}

// TestConcurrentSessionsStayCausal runs sessions on concurrent goroutines
// against one replica pair: session guarantees (read your writes,
// monotonic reads) must hold even while the apply path races the client.
func TestConcurrentSessionsStayCausal(t *testing.T) {
	a := NewSocketCluster("a").Replica("a")
	b := NewSocketCluster("b").Replica("b")
	drain := pipeReplicas(t, a, b)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSession()
			key := fmt.Sprintf("sess/%d", g)
			for i := 0; i < 100; i++ {
				tx, err := s.Begin(a)
				if err != nil {
					t.Errorf("session stale at its own replica: %v", err)
					return
				}
				CounterAt(tx, key).Add(1)
				tx.Commit()
				s.Observe(tx)
				// The session's cut now includes the commit: attaching to
				// the same replica can never fail, and reads must see it.
				tx2, err := s.Begin(a)
				if err != nil {
					t.Errorf("session stale after observe: %v", err)
					return
				}
				if v := CounterAt(tx2, key).Value(); v != int64(i+1) {
					t.Errorf("session read %d after %d observed commits", v, i+1)
					tx2.Commit()
					return
				}
				tx2.Commit()
			}
		}(g)
	}
	wg.Wait()
	drain()
}

// TestCommitDepsCoverMidTransactionReads pins the causal-coverage fix
// deterministically: a remote transaction applied between a local
// transaction's Begin and its reads must appear in the local
// transaction's replicated dependency vector — otherwise a third replica
// could apply the local transaction before what it read ("writes follow
// reads" would break).
func TestCommitDepsCoverMidTransactionReads(t *testing.T) {
	// Produce a wire transaction from origin "b".
	b := NewSocketCluster("b").Replica("b")
	var fromB []WireTxn
	b.cluster.SetOnCommit(func(w WireTxn) { fromB = append(fromB, w) })
	btx := b.Begin()
	CounterAt(btx, "k").Add(5)
	btx.Commit()
	if len(fromB) != 1 {
		t.Fatalf("captured %d transactions from b", len(fromB))
	}

	a := NewSocketCluster("a").Replica("a")
	var fromA []WireTxn
	a.cluster.SetOnCommit(func(w WireTxn) { fromA = append(fromA, w) })

	tx := a.Begin() // snapshot taken before b's transaction arrives
	a.Deliver(fromB[0])
	if got := a.Clock().Get("b"); got != fromB[0].LastSeq {
		t.Fatalf("delivery not applied: clock[b] = %d, want %d", got, fromB[0].LastSeq)
	}
	// The open transaction reads b's effect (live objects), then writes.
	if v := CounterAt(tx, "k").Value(); v != 5 {
		t.Fatalf("read %d, want 5 (remote effect must be visible)", v)
	}
	CounterAt(tx, "k2").Add(1)
	tx.Commit()

	if len(fromA) != 1 {
		t.Fatalf("captured %d transactions from a", len(fromA))
	}
	if got := fromA[0].Deps.Get("b"); got != fromB[0].LastSeq {
		t.Fatalf("replicated deps[b] = %d, want %d: mid-transaction read not covered", got, fromB[0].LastSeq)
	}
}
