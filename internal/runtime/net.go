package runtime

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ipa/internal/clock"
	"ipa/internal/netrepl"
	"ipa/internal/store"
)

// NetConfig tunes a NetCluster. The zero value is an in-memory cluster on
// netrepl's transport defaults.
type NetConfig struct {
	// Transport configures every node's streaming transport. The zero
	// value takes netrepl's defaults; harness-style callers lower the
	// backoff ceiling so healed partitions resume quickly. Its DataDir
	// must be empty: it would put every site in one directory.
	Transport netrepl.Config
	// DataDir, when non-empty, makes every node durable: node id gives
	// the per-site subdirectory (DataDir/<id>), each holding a
	// write-ahead log and snapshots. Durability is what makes the
	// Lifecycle surface real — Crash/Recover round-trips a site through
	// its on-disk state, and a NetCluster recreated over the same
	// directory recovers every site.
	DataDir string
}

const (
	// settleTimeout bounds one Settle call.
	settleTimeout = 30 * time.Second
	// settlePoll is Settle's convergence polling interval.
	settlePoll = 500 * time.Microsecond
)

// transportFor returns the per-node transport configuration.
func (c *NetCluster) transportFor(id clock.ReplicaID) netrepl.Config {
	t := c.cfg.Transport
	if c.cfg.DataDir != "" {
		t.DataDir = filepath.Join(c.cfg.DataDir, string(id))
	}
	return t
}

// link is an unordered replica pair — partition bookkeeping.
type link [2]clock.ReplicaID

func mkLink(a, b clock.ReplicaID) link {
	if b < a {
		a, b = b, a
	}
	return link{a, b}
}

// NetCluster runs one netrepl.Node per replica on loopback TCP, fully
// meshed — the real-socket implementation of Cluster. Replication is
// asynchronous on real goroutines, so unlike the simulator there is no
// instantaneous "drain": Settle polls the nodes' causal clocks until they
// converge. Stabilize gathers a global view the way a stability service
// would and runs the same compaction as the simulator's.
//
// With NetConfig.DataDir set the cluster also implements Lifecycle
// against real state: Crash kills a node without flushing, Recover
// restarts it from its write-ahead log and snapshots on a fresh port
// and re-points its peers there, Join bootstraps a new site from a
// donor, Decommission retires one. Membership mutates under an internal
// lock; Stabilize serialises with Join so the stability horizon can
// never advance past a bootstrapping site's cut (which is what keeps
// peers from truncating log records the joiner still needs).
type NetCluster struct {
	cfg NetConfig

	mu    sync.RWMutex
	order []clock.ReplicaID
	nodes map[clock.ReplicaID]*netrepl.Node
	addrs map[clock.ReplicaID]string // current listen address; Recover moves it
	down  map[clock.ReplicaID]bool   // crashed, awaiting Recover
	// Active fault state, so Recover can reapply it to the replacement
	// node instance: a partition or pause taken while a site is down
	// must survive the site's recovery (the fault heals when the fault
	// heals, not when the node restarts).
	parts  map[link]bool
	paused map[clock.ReplicaID]bool
}

// NewNetCluster creates one node per id on ephemeral loopback ports and
// meshes them. On error, nodes created so far are closed. With a DataDir
// configured, sites that already have state under it recover it (a
// cluster restarted over the same directory resumes where it crashed).
// A Transport.DataDir is refused: NetConfig.DataDir is the only way to
// make a cluster durable.
func NewNetCluster(ids []clock.ReplicaID, cfg NetConfig) (*NetCluster, error) {
	if cfg.Transport.DataDir != "" {
		return nil, errors.New("runtime: net cluster: set NetConfig.DataDir, not Transport.DataDir, which would give every site the same log")
	}
	c := &NetCluster{
		cfg:    cfg,
		order:  append([]clock.ReplicaID(nil), ids...),
		nodes:  make(map[clock.ReplicaID]*netrepl.Node, len(ids)),
		addrs:  make(map[clock.ReplicaID]string, len(ids)),
		down:   map[clock.ReplicaID]bool{},
		parts:  map[link]bool{},
		paused: map[clock.ReplicaID]bool{},
	}
	for _, id := range c.order {
		n, err := netrepl.NewNodeWithConfig(id, "127.0.0.1:0", c.transportFor(id))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("runtime: net cluster: %w", err)
		}
		c.nodes[id] = n
		c.addrs[id] = n.Addr()
	}
	for _, a := range c.order {
		for _, b := range c.order {
			if a != b {
				c.nodes[a].AddPeer(b, c.addrs[b])
			}
		}
	}
	return c, nil
}

// Node returns the underlying netrepl node of a replica (for transport
// metrics and chaos hooks like DropConnections), or nil for a site the
// cluster does not know.
func (c *NetCluster) Node(id clock.ReplicaID) *netrepl.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

// Replicas implements Cluster. Decommissioned sites are absent; crashed
// ones remain members (their data is recoverable, and the stability
// horizon must keep waiting on them).
func (c *NetCluster) Replicas() []clock.ReplicaID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]clock.ReplicaID(nil), c.order...)
}

// Replica implements Cluster. A crashed or decommissioned site still
// resolves — to its dead node, whose invalidated replica fails pinned
// sessions with store.ErrStale rather than serving frozen state — so
// callers racing a lifecycle event get an error, not a panic. Only a
// site the cluster never knew panics.
func (c *NetCluster) Replica(id clock.ReplicaID) Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n, ok := c.nodes[id]
	if !ok {
		panic(fmt.Sprintf("runtime: unknown replica %q", id))
	}
	return n
}

// Stabilize implements Cluster: it gathers every node's causal cut, runs
// the stability round (clock.Horizon, the same function
// store.Cluster.Stabilize calls inside the simulator), and lets every
// live node's CRDTs compact below the horizon.
//
// The non-atomic collection is safe: the horizon is the pointwise minimum
// of delivered cuts, so every event at or below it had been delivered at
// every node by that node's snapshot; any event created later causally
// follows the horizon, hence each node's frontier entry still upper-bounds
// everything concurrent with a newly stable event.
//
// A crashed site contributes its frozen cut — freezing the horizon at
// what the site had delivered, which is exactly right: nothing above its
// cut is stable (the site will recover and still need it), so nothing
// above it may compact or truncate away. A decommissioned site is out of
// the membership entirely and stops holding the horizon back.
func (c *NetCluster) Stabilize() clock.Vector {
	c.mu.Lock()
	defer c.mu.Unlock()
	cuts := make([]clock.Vector, len(c.order))
	for i, id := range c.order {
		cuts[i] = c.nodes[id].Clock()
	}
	h, frontier := clock.Horizon(c.order, cuts)
	for _, id := range c.order {
		if c.down[id] {
			// A dead node must not compact — and above all must not
			// snapshot: persisting its post-crash in-memory state would
			// quietly resurrect exactly the unsynced suffix the crash is
			// supposed to lose.
			continue
		}
		c.nodes[id].CompactAll(h, frontier)
	}
	return h
}

// Settle implements Cluster: it waits until every live member has
// delivered every commit issued so far — all causal clocks equal, no
// outbound transactions retained for a peer, no pending causal
// deliveries — and the picture holds for a few consecutive polls. It errors if the cluster
// does not converge within settleTimeout (which usually means a
// partition is still injected, a replica is still paused, or a site is
// still crashed — outbound logs retain transactions for a crashed site,
// so Recover it first).
func (c *NetCluster) Settle() error {
	deadline := time.Now().Add(settleTimeout)
	stable := 0
	for {
		if c.quiet() {
			stable++
			if stable >= 3 {
				return nil
			}
		} else {
			stable = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("runtime: net cluster did not settle within %v", settleTimeout)
		}
		time.Sleep(settlePoll)
	}
}

// quiet reports one converged snapshot: identical clocks, empty logs.
func (c *NetCluster) quiet() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var base clock.Vector
	for _, id := range c.order {
		n := c.nodes[id]
		if n.Stats().QueueDepth != 0 || n.Pending() != 0 {
			return false
		}
		vc := n.Clock()
		if base == nil {
			base = vc
		} else if !base.Equal(vc) {
			return false
		}
	}
	return true
}

// Close implements Cluster: it shuts every node down (including crashed
// and decommissioned tombstones — Close is idempotent per node).
func (c *NetCluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, n := range c.nodes {
		if n != nil {
			errs = append(errs, n.Close())
		}
	}
	return errors.Join(errs...)
}

// SetPartitioned implements Faults: each side refuses frames originating
// at the other until the partition heals; senders retry with backoff, so
// no transaction is lost. Unknown or retired sites no-op — a fault
// racing a decommission must not panic — and a partition touching a
// crashed site is recorded so Recover reapplies it to the replacement
// node.
func (c *NetCluster) SetPartitioned(a, b clock.ReplicaID, partitioned bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if partitioned {
		c.parts[mkLink(a, b)] = true
	} else {
		delete(c.parts, mkLink(a, b))
	}
	if na := c.nodes[a]; na != nil {
		na.BlockOrigin(b, partitioned)
	}
	if nb := c.nodes[b]; nb != nil {
		nb.BlockOrigin(a, partitioned)
	}
}

// SetPaused implements Faults. Unknown or retired sites no-op; a pause
// taken while the site is crashed is recorded and reapplied on Recover.
func (c *NetCluster) SetPaused(id clock.ReplicaID, paused bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if paused {
		c.paused[id] = true
	} else {
		delete(c.paused, id)
	}
	if n := c.nodes[id]; n != nil {
		n.SetPaused(paused)
	}
}

// SnapshotAll forces an immediate snapshot at every live site. Callers
// that seed state out-of-band (Replica.Object constructors like the
// comp-set's bound, which no replicated operation re-creates) run it
// after seeding: until a snapshot lands on disk, a crash would recover
// the site without the seeded objects. No-op per site on a non-durable
// cluster.
func (c *NetCluster) SnapshotAll() error {
	if c.cfg.DataDir == "" {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var firstErr error
	for _, id := range c.order {
		if c.down[id] {
			continue
		}
		if err := c.nodes[id].ForceSnapshot(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Crash implements Lifecycle: kill -9 for one site. The node's
// write-ahead log keeps everything that was ever acknowledged; its
// unsynced tail — operations no client and no peer was told about — dies
// with the process, which is the loss model Recover is tested against.
func (c *NetCluster) Crash(id clock.ReplicaID) error {
	if c.cfg.DataDir == "" {
		return fmt.Errorf("runtime: crash %q: cluster has no DataDir, the site could never recover", id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("runtime: crash: unknown replica %q", id)
	}
	if c.down[id] {
		return nil // already dead
	}
	if err := n.Kill(); err != nil {
		return err
	}
	c.down[id] = true
	return nil
}

// Recover implements Lifecycle: restart a crashed site from its data
// directory on a fresh port (its old one may be taken by now). The
// replacement node replays snapshot + log before serving, offers its
// own-origin records to every peer (peers that never received them
// converge; peers that did deduplicate), and every live peer's sender is
// re-pointed at the new address, keeping its cursor. Fault state taken
// while the site was down — partitions, pauses — transfers to the new
// instance.
func (c *NetCluster) Recover(id clock.ReplicaID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.down[id] {
		return fmt.Errorf("runtime: recover %q: site is not crashed", id)
	}
	n, err := netrepl.NewNodeWithConfig(id, "127.0.0.1:0", c.transportFor(id))
	if err != nil {
		return fmt.Errorf("runtime: recover %q: %w", id, err)
	}
	c.nodes[id] = n
	c.addrs[id] = n.Addr()
	delete(c.down, id)
	// Peer with every member before the node commits (its recovered
	// records stay in its log until then), including crashed ones: the
	// sender retry-dials a down member until that member's Recover
	// re-points it. Skipping it would leave the mesh wedged on a
	// permanent causal gap. (Decommissioned sites leave c.order.)
	for _, other := range c.order {
		if other == id {
			continue
		}
		n.AddPeer(other, c.addrs[other])
		if !c.down[other] {
			c.nodes[other].AddPeer(id, c.addrs[id])
		}
	}
	for l := range c.parts {
		switch id {
		case l[0]:
			n.BlockOrigin(l[1], true)
		case l[1]:
			n.BlockOrigin(l[0], true)
		}
	}
	if c.paused[id] {
		n.SetPaused(true)
	}
	return nil
}

// Join implements Lifecycle: bootstrap a brand-new site from donor and
// add it to the mesh and the stability membership. The membership is
// extended before any state moves, and Join holds the same lock as
// Stabilize, so from the first horizon computed after this the mesh
// cannot truncate records the joiner has yet to fetch (see
// netrepl.Node.Bootstrap for the full soundness argument).
func (c *NetCluster) Join(id, donor clock.ReplicaID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.nodes[id]; ok {
		for _, live := range c.order {
			if live == id {
				return fmt.Errorf("runtime: join: replica %q already exists", id)
			}
		}
		// A tombstone (earlier crash-without-recover or decommission)
		// may be re-joined as a fresh site below.
	}
	dn := c.nodes[donor]
	if dn == nil || c.down[donor] {
		return fmt.Errorf("runtime: join %q: donor %q unavailable", id, donor)
	}
	n, err := netrepl.NewNodeWithConfig(id, "127.0.0.1:0", c.transportFor(id))
	if err != nil {
		return fmt.Errorf("runtime: join %q: %w", id, err)
	}
	c.nodes[id] = n
	c.addrs[id] = n.Addr()
	c.order = append(c.order, id)
	delete(c.down, id)
	// AddPeer to every member — even currently-crashed ones, whose old
	// addresses the sender retry-dials until Recover re-points it (see
	// Recover for why skipping them wedges the mesh). Only live members
	// double as tail-fetch donors for Bootstrap, though: a dead socket
	// can't serve the joiner's catch-up reads.
	var peers []string
	for _, other := range c.order {
		if other == id {
			continue
		}
		n.AddPeer(other, c.addrs[other])
		if !c.down[other] {
			peers = append(peers, c.addrs[other])
		}
	}
	mesh := func() {
		for _, other := range c.order {
			if other == id || c.down[other] {
				continue
			}
			c.nodes[other].AddPeer(id, c.addrs[id])
		}
	}
	if err := n.Bootstrap(c.addrs[donor], peers, mesh); err != nil {
		return err
	}
	return nil
}

// Decommission implements Lifecycle: retire a site permanently. Every
// remaining node stops replicating to it, it drains and closes, and the
// stability membership shrinks — the horizon no longer waits on the
// retired site, so what only it had NOT delivered can now stabilise.
// The node stays resolvable as a tombstone whose invalidated replica
// fails sessions with store.ErrStale.
func (c *NetCluster) Decommission(id clock.ReplicaID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	if !ok {
		return fmt.Errorf("runtime: decommission: unknown replica %q", id)
	}
	keep := c.order[:0]
	for _, other := range c.order {
		if other != id {
			keep = append(keep, other)
		}
	}
	c.order = keep
	for _, other := range c.order {
		if nd := c.nodes[other]; nd != nil {
			nd.RemovePeer(id)
		}
	}
	for l := range c.parts {
		if l[0] == id || l[1] == id {
			delete(c.parts, l)
		}
	}
	delete(c.paused, id)
	delete(c.down, id)
	err := n.Close()
	n.Replica().Invalidate()
	return err
}

// Compile-time checks: both backends implement Cluster, and both replica
// types satisfy Replica.
var (
	_ Cluster = (*SimCluster)(nil)
	_ Cluster = (*NetCluster)(nil)
	_ Replica = (*store.Replica)(nil)
	_ Replica = (*netrepl.Node)(nil)
)
