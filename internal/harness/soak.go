package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"ipa/internal/clock"
	"ipa/internal/netrepl"
	"ipa/internal/store"
)

// SoakOptions shapes one netrepl soak run: a fully meshed localhost ring
// of streaming-transport nodes committing concurrently, with a chaos
// goroutine killing live connections underneath them. Unlike the
// simulated chaos runs this uses real sockets and wall-clock time, so it
// is stress (not replay-deterministic): the seed drives only the kill
// sequence.
type SoakOptions struct {
	// Nodes is the ring size. Default 3.
	Nodes int
	// TxnsPerNode is how many one-update transactions each node commits.
	// Default 500.
	TxnsPerNode int
	// KillEvery is the interval between connection kills. Default 20ms.
	KillEvery time.Duration
	// Seed drives the kill-target choice.
	Seed int64
	// Timeout bounds the wait for convergence. Default 60s.
	Timeout time.Duration
}

func (o SoakOptions) withDefaults() SoakOptions {
	if o.Nodes == 0 {
		o.Nodes = 3
	}
	if o.TxnsPerNode == 0 {
		o.TxnsPerNode = 500
	}
	if o.KillEvery == 0 {
		o.KillEvery = 20 * time.Millisecond
	}
	if o.Timeout == 0 {
		o.Timeout = 60 * time.Second
	}
	return o
}

// SoakResult reports one soak run.
type SoakResult struct {
	Opts SoakOptions
	// Converged reports whether every node delivered every transaction
	// within the timeout.
	Converged bool
	// Elapsed covers commit start to convergence (or timeout).
	Elapsed time.Duration
	// ConnsKilled is how many live connections the chaos loop closed.
	ConnsKilled int
	// Metrics aggregates all nodes' transport counters; PerNode holds
	// each node's own, in ring order (soak0, soak1, ...).
	Metrics netrepl.Metrics
	PerNode []netrepl.Metrics
	// Divergence describes the failure when Converged is false.
	Divergence string
}

func (r *SoakResult) String() string {
	status := "CONVERGED"
	if !r.Converged {
		status = "DIVERGED: " + r.Divergence
	}
	var b strings.Builder
	fmt.Fprintf(&b, "soak %d nodes x %d txns, %d conns killed: %s in %v\n  %s",
		r.Opts.Nodes, r.Opts.TxnsPerNode, r.ConnsKilled, status,
		r.Elapsed.Round(time.Millisecond), r.Metrics)
	for i, m := range r.PerNode {
		fmt.Fprintf(&b, "\n  soak%d: %s", i, m)
	}
	return b.String()
}

// Soak drives the streaming netrepl transport under kill/reconnect churn:
// every node commits its transactions while inbound connections are
// repeatedly torn down, forcing the senders through their write-error,
// backoff, re-dial, and batch-retry paths. Delivery is at-least-once with
// receive-side dedup, so the ring must still converge to identical state
// — counter value, live set, and causal clocks — at every node.
func Soak(opts SoakOptions) (*SoakResult, error) {
	opts = opts.withDefaults()
	res := &SoakResult{Opts: opts}

	nodes := make([]*netrepl.Node, opts.Nodes)
	for i := range nodes {
		id := clock.ReplicaID(fmt.Sprintf("soak%d", i))
		n, err := netrepl.NewNode(id, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer n.Close()
		nodes[i] = n
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddPeer(b.ID(), b.Addr())
			}
		}
	}

	start := time.Now()
	committers := make(chan struct{}, len(nodes))
	for _, n := range nodes {
		n := n
		go func() {
			for k := 0; k < opts.TxnsPerNode; k++ {
				tx := n.Begin()
				store.CounterAt(tx, "soak/ops").Add(1)
				store.AWSetAt(tx, "soak/live").Add(fmt.Sprintf("%s-%d", n.ID(), k), "")
				tx.Commit()
				if k%25 == 24 {
					time.Sleep(time.Millisecond) // let the chaos loop interleave
				}
			}
			committers <- struct{}{}
		}()
	}

	// Chaos loop: kill a random node's inbound connections until every
	// committer finishes.
	chaosDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(opts.Seed))
		ticker := time.NewTicker(opts.KillEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				res.ConnsKilled += nodes[rng.Intn(len(nodes))].DropConnections()
			}
		}
	}()

	for range nodes {
		<-committers
	}
	close(stop)
	<-chaosDone

	// Convergence: every node's causal clock covers every node's commits.
	// The clock counts update sequence numbers, and every soak transaction
	// carries two updates (counter increment + set add).
	want := uint64(2 * opts.TxnsPerNode)
	deadline := time.Now().Add(opts.Timeout)
	for {
		converged := true
		for _, n := range nodes {
			vc := n.Clock()
			for _, o := range nodes {
				if vc.Get(o.ID()) < want {
					converged = false
				}
			}
		}
		if converged {
			res.Converged = true
			break
		}
		if time.Now().After(deadline) {
			res.Divergence = "timeout waiting for causal clocks to converge"
			break
		}
		time.Sleep(time.Millisecond)
	}
	res.Elapsed = time.Since(start)

	// State check: identical counter value and live-set size everywhere.
	if res.Converged {
		total := int64(opts.Nodes * opts.TxnsPerNode)
		for _, n := range nodes {
			tx := n.Begin()
			if v := store.CounterAt(tx, "soak/ops").Value(); v != total && res.Converged {
				res.Converged = false
				res.Divergence = fmt.Sprintf("node %s counter = %d, want %d", n.ID(), v, total)
			}
			if sz := store.AWSetAt(tx, "soak/live").Size(); int64(sz) != total && res.Converged {
				res.Converged = false
				res.Divergence = fmt.Sprintf("node %s live set = %d, want %d", n.ID(), sz, total)
			}
			tx.Commit()
		}
	}

	for _, n := range nodes {
		m := n.Stats()
		res.PerNode = append(res.PerNode, m)
		res.Metrics = res.Metrics.Add(m)
	}
	return res, nil
}
