// Package netrepl replicates the store over real TCP connections: each
// node hosts one replica and streams committed transactions to its peers
// as length-prefixed, versioned batch frames. It demonstrates that the
// replication protocol (causal delivery of atomic transaction effect
// groups) is independent of the in-process simulator used by the
// evaluation — the same store runs over actual sockets — and that
// invariant preservation needs no runtime coordination: replication stays
// fully asynchronous.
//
// The transport is a streaming design built for throughput:
//
//   - one persistent connection per peer, dialed lazily on the first
//     send and re-established after failures with exponential backoff
//     plus jitter;
//   - one outbound log per node with a cursor per peer: a commit appends
//     and returns, never waiting on a peer, and a sender goroutine per
//     peer coalesces the entries past its cursor into batch frames
//     (Config.FlushInterval and maxBatchTxns bound the window and
//     the batch). An entry stays until every peer has acknowledged it, so
//     an unreachable peer grows the log by one transaction per commit
//     (Metrics.QueueDepth) — the simulator's partition buffer;
//   - acknowledged delivery: the receiver confirms each batch frame after
//     handing its transactions to the replica, and the sender counts a
//     frame sent only on ack. A write that succeeds into a socket the
//     peer kills before reading would otherwise be silent loss —
//     TestConcurrentClientsUnderChurnAndPause surfaces exactly this;
//   - graceful shutdown: Close stops accepting work and gives every
//     sender Config.DrainTimeout to flush what its peer lacks before
//     abandoning the remainder (counted in Metrics.TxnsDropped).
//
// The receive path has no queue of its own. Each connection handler logs
// a frame, hands its transactions to store.Replica.Deliver — the causal
// delivery buffer the simulator uses too, which applies whatever is next
// in its origin's order with its dependencies delivered — and then acks.
// The handler withholds the ack while its origin is over the receive-side
// bound (QueueCap). Local transactions (Begin) and delivery take
// turns on the store's replica lock.
//
// Delivery is at-least-once — a sender that loses its connection (or an
// ack) mid-frame retries the whole batch — and the buffer deduplicates by
// origin sequence number, so effects apply exactly once. Batches may
// arrive reordered or duplicated and the replica state still converges.
//
// Every frame is a v2 batch frame (store.DecodeFrame): a frame in any
// other format is malformed, and the receiver drops its connection
// without an ack.
package netrepl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/store"
)

// The transport's fixed values. Each is the one value the served path
// runs with; only the knobs in Config differ between callers.
const (
	// maxBatchTxns caps the transactions per batch frame.
	maxBatchTxns = 256
	// QueueCap bounds, on the receive side only, each origin's backlog in
	// the replica's delivery buffer, in transactions: a connection
	// handler withholds the frame ack while its origin has QueueCap or
	// more transactions buffered and its next transaction is one of them,
	// that is, while it waits on another origin. A backlog behind a gap
	// in the origin's own sequence is not bounded: the gap-filler arrives
	// on the same stream. Every buffered transaction counts in Pending.
	QueueCap = 8192
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// writeTimeout bounds one frame write and one ack wait: a peer that
	// accepts the connection but stops reading fails the write instead
	// of blocking the sender (and Close) forever.
	writeTimeout = 10 * time.Second
	// maxFrame caps the size of one frame, sent or accepted. A single
	// transaction that encodes above it is undeliverable (see DESIGN.md,
	// "Oversized transactions").
	maxFrame = 64 << 20
	// stallWarn is how long an origin's delivery may stand still with
	// transactions buffered before it counts as stalled (stallTicker).
	stallWarn = 10 * time.Second
)

// State-transfer request magics. Both protocols share the replication
// listener: a frame whose payload starts with one of these words is a
// one-shot request, served on the same connection, instead of a batch.
// Neither collides with the batch codec ("IPAB" + version).
const (
	// tailMagic + an encoded vector asks for the node's own-origin WAL
	// records above that cut, streamed back as ordinary batch frames
	// until EOF — the op tail a joining site uses to close the gap
	// between its adopted snapshot and live replication.
	tailMagic = "IPAT"
	// joinMagic asks for a full state snapshot (one length-prefixed
	// blob), the donor side of bootstrap.
	joinMagic = "IPAJ"
)

// ackMagic is the fixed acknowledgement word the receiver writes back
// after accepting one frame. The protocol is synchronous per connection —
// one frame in flight, one ack — so the word needs no sequence number;
// any mismatch means a corrupt stream and drops the connection.
const ackMagic = 0x41434B31 // "ACK1"

// Config tunes the streaming transport. The zero value selects the
// defaults noted on each field; see DefaultConfig.
type Config struct {
	// FlushInterval is how long a sender waits after the first pending
	// transaction for more to coalesce into the same batch frame.
	// Default 500µs: long enough to batch a commit burst, short enough
	// to keep single-transaction latency in the sub-millisecond range.
	FlushInterval time.Duration
	// BackoffMin/BackoffMax bound the exponential reconnect backoff
	// (with jitter). Defaults 5ms and 1s; a BackoffMax below BackoffMin
	// is raised to BackoffMin, so the backoff never shrinks.
	BackoffMin time.Duration
	BackoffMax time.Duration
	// DrainTimeout is how long Close lets senders flush what their peers
	// lack before abandoning it. Default 2s.
	DrainTimeout time.Duration
	// DataDir, when non-empty, makes the node durable: committed and
	// received transactions append to a write-ahead log under it before
	// they are acknowledged (group commit — see internal/store's WAL),
	// and periodic snapshots bound replay. A node restarted with the
	// same DataDir recovers its replica from snapshot + log.
	DataDir string
	// SnapshotEvery is how many WAL bytes accumulate between snapshots;
	// each snapshot lets the log truncate below the stability horizon.
	// Checked on CompactAll (the stability driver's cadence).
	// Default 4 MiB.
	SnapshotEvery int64

	// Test hooks that reach the oversized-transaction drop and the stall
	// detector in milliseconds; zero takes the constant of that name.
	maxFrame  int
	stallWarn time.Duration
}

// DefaultConfig returns the streaming transport defaults.
func DefaultConfig() Config {
	return Config{
		FlushInterval: 500 * time.Microsecond,
		BackoffMin:    5 * time.Millisecond,
		BackoffMax:    time.Second,
		DrainTimeout:  2 * time.Second,
		SnapshotEvery: 4 << 20,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.FlushInterval <= 0 {
		c.FlushInterval = d.FlushInterval
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = d.BackoffMin
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = d.BackoffMax
	}
	if c.BackoffMax < c.BackoffMin {
		c.BackoffMax = c.BackoffMin
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = d.SnapshotEvery
	}
	if c.maxFrame <= 0 {
		c.maxFrame = maxFrame
	}
	if c.stallWarn <= 0 {
		c.stallWarn = stallWarn
	}
	return c
}

// Metrics is a point-in-time snapshot of a node's transport counters.
type Metrics struct {
	// Dials counts successful connection establishments; Reconnects is
	// the subset that replaced a previously working connection.
	Dials, Reconnects uint64
	// SendErrors counts failed dial attempts and failed frame writes
	// (each followed by a backoff + retry, so errors are not losses).
	SendErrors uint64
	// FramesSent/TxnsSent/BytesSent cover the outbound path; frames and
	// transactions count only once the peer acknowledged accepting them.
	// The TxnsSent/FramesSent ratio is the achieved batching factor.
	FramesSent, TxnsSent, BytesSent uint64
	// FramesRecv/TxnsRecv/BytesRecv cover the inbound path.
	FramesRecv, TxnsRecv, BytesRecv uint64
	// TxnsDropped counts transactions abandoned: once per peer that still
	// lacked them when Close's drain timeout expired (or at Kill), and
	// once for each still in the delivery buffer when the node closed.
	TxnsDropped uint64
	// QueueDepth is how many transactions the outbound log retains for a
	// peer that has not acknowledged them (it grows while one is down).
	QueueDepth int
	// ApplyDepth is the current number of received transactions held in
	// the replica's delivery buffer (received but not yet applied:
	// waiting on a FIFO gap, a causal dependency or a pause).
	ApplyDepth int
	// WALAppends/WALSyncs/WALBytes cover the write-ahead log (all zero
	// on a memory-only node). WALSyncs under WALAppends is the group
	// commit working: many records per fsync.
	WALAppends, WALSyncs, WALBytes uint64
	// WALSegments is the current on-disk segment count (grows with
	// traffic, shrinks when snapshots let the log truncate).
	WALSegments int
	// Snapshots counts state snapshots written (recovery replays from
	// the latest one).
	Snapshots uint64
	// StalledOrigins is the number of origins currently stalled on a
	// causal gap older than 10s. A stall that never clears means the
	// dependency will never arrive, and the unstick path is state
	// transfer (DESIGN.md, "Oversized transactions").
	StalledOrigins int
}

// Add returns the field-by-field sum of m and o — the aggregate over a
// set of nodes.
func (m Metrics) Add(o Metrics) Metrics {
	m.Dials += o.Dials
	m.Reconnects += o.Reconnects
	m.SendErrors += o.SendErrors
	m.FramesSent += o.FramesSent
	m.TxnsSent += o.TxnsSent
	m.BytesSent += o.BytesSent
	m.FramesRecv += o.FramesRecv
	m.TxnsRecv += o.TxnsRecv
	m.BytesRecv += o.BytesRecv
	m.TxnsDropped += o.TxnsDropped
	m.QueueDepth += o.QueueDepth
	m.ApplyDepth += o.ApplyDepth
	m.WALAppends += o.WALAppends
	m.WALSyncs += o.WALSyncs
	m.WALBytes += o.WALBytes
	m.WALSegments += o.WALSegments
	m.Snapshots += o.Snapshots
	m.StalledOrigins += o.StalledOrigins
	return m
}

func (m Metrics) String() string {
	batch := 0.0
	if m.FramesSent > 0 {
		batch = float64(m.TxnsSent) / float64(m.FramesSent)
	}
	s := fmt.Sprintf(
		"sent %d txns in %d frames (%.1f txns/frame, %d bytes), recv %d txns in %d frames, "+
			"dials %d (reconnects %d), send errors %d, dropped %d, retained %d, buffered %d",
		m.TxnsSent, m.FramesSent, batch, m.BytesSent, m.TxnsRecv, m.FramesRecv,
		m.Dials, m.Reconnects, m.SendErrors, m.TxnsDropped, m.QueueDepth, m.ApplyDepth)
	if m.WALAppends > 0 || m.Snapshots > 0 {
		s += fmt.Sprintf(", wal %d appends in %d syncs (%d bytes, %d segments), snapshots %d",
			m.WALAppends, m.WALSyncs, m.WALBytes, m.WALSegments, m.Snapshots)
	}
	if m.StalledOrigins > 0 {
		s += fmt.Sprintf(", STALLED origins %d", m.StalledOrigins)
	}
	return s
}

// counters holds the atomically updated parts of Metrics.
type counters struct {
	dials, reconnects               uint64
	sendErrors                      uint64
	framesSent, txnsSent, bytesSent uint64
	framesRecv, txnsRecv, bytesRecv uint64
	txnsDropped                     uint64
}

// Node hosts one replica of the database and replicates over TCP. Local
// transactions synchronise on the store's replica lock, and the receive
// path applies through the replica's delivery buffer (see the package
// comment).
type Node struct {
	id      clock.ReplicaID
	cfg     Config
	replica *store.Replica

	// out is the outbound log; it also holds the peer set.
	out outLog

	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
	// drainBy is the post-Close flush deadline: written before closed is
	// closed, read only after, so the channel orders the two.
	drainBy time.Time

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // accepted (inbound) connections

	// blockMu guards blocked: origins whose frames the receive path
	// refuses (the partition fault hook — see BlockOrigin).
	blockMu sync.Mutex
	blocked map[clock.ReplicaID]bool

	// Durability (nil/zero on a memory-only node). wal is the node's
	// write-ahead log; walEnc builds the single-transaction records the
	// local commit hook appends — the hook runs under the replica lock,
	// which serialises the encoder.
	wal     *store.WAL
	walEnc  *store.FrameEncoder
	dataDir string
	// snapMu serialises snapshot writes; snapBase is the WAL byte count
	// at the last snapshot (the SnapshotEvery trigger).
	snapMu    sync.Mutex
	snapBase  uint64
	snapshots atomic.Uint64
	// walFailOnce bounds the durability-lost log line; the WAL error
	// itself is sticky (no further appends succeed).
	walFailOnce sync.Once

	// stalledOrigins is how many origins the stall ticker last found
	// stalled (Metrics.StalledOrigins; see stallWarn).
	stalledOrigins atomic.Int64

	m counters
}

// NewNode creates a node with the default streaming configuration,
// listening on addr (use "127.0.0.1:0" for an ephemeral port).
func NewNode(id clock.ReplicaID, addr string) (*Node, error) {
	return NewNodeWithConfig(id, addr, Config{})
}

// NewNodeWithConfig creates a node with an explicit transport
// configuration. The node's replica hands every commit to broadcast (its
// commit hook); all replication flows through the TCP transport.
//
// With Config.DataDir set the node is durable, and a restart with the
// same directory RECOVERS the site: the latest snapshot restores the
// bulk of the state, then every write-ahead-log record is delivered
// through the same causal delivery buffer live replication uses (the
// snapshot's cut deduplicates the overlap). Own-origin records found in
// the log also seed the outbound log, so every peer is offered them ahead
// of new commits: a peer that was never sent them (the origin crashed
// between fsync and broadcast) still converges.
func NewNodeWithConfig(id clock.ReplicaID, addr string, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netrepl: listen: %w", err)
	}
	n := &Node{
		id:      id,
		cfg:     cfg,
		replica: store.NewReplica(id),
		out:     outLog{peers: map[clock.ReplicaID]*peerConn{}},
		ln:      ln,
		closed:  make(chan struct{}),
		conns:   map[net.Conn]struct{}{},
		blocked: map[clock.ReplicaID]bool{},
	}
	if cfg.DataDir != "" {
		if err := n.recover(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	n.replica.SetOnCommit(n.broadcast)
	n.wg.Add(1)
	go n.acceptLoop()
	n.wg.Add(1)
	go n.stallTicker()
	return n, nil
}

// recover restores the replica from the data directory: the snapshot
// first, then every write-ahead-log record delivered in append order.
// Append order is not causal order (a record is logged before it is
// applied, so it can precede its dependencies on disk); the delivery
// buffer applies each record once what it depends on is delivered. A
// record whose dependencies never reached the disk (the crash hit
// between receiving a transaction and receiving what it depends on) stays
// buffered: its dependency's origin never saw our ack, so it resends.
// Own-origin records always apply — anything they depend on was applied
// (hence logged) before they were, and fsync loss is a suffix of append
// order. Must run before the node accepts commits or frames: replay of
// own-origin records and the event-tag counter bump both race local
// commits.
func (n *Node) recover() error {
	n.dataDir = n.cfg.DataDir
	n.walEnc = store.NewFrameEncoder(store.WireVersionV2)
	snap, err := store.ReadSnapshotFile(n.dataDir)
	if err != nil {
		return fmt.Errorf("netrepl: recover %s: %w", n.id, err)
	}
	if snap != nil {
		if snap.Replica != n.id {
			return fmt.Errorf("netrepl: recover %s: snapshot in %s belongs to replica %s", n.id, n.dataDir, snap.Replica)
		}
		n.replica.RestoreSnapshot(snap)
	}
	// The log holds own-origin commits past the snapshot's cut (commits
	// fsync before they are acknowledged, snapshots are periodic); new
	// commits must not reuse their sequence numbers.
	var maxOwn uint64
	wal, err := store.OpenWAL(filepath.Join(n.dataDir, "wal"), func(frame []byte, txns []store.WireTxn) error {
		for _, w := range txns {
			if w.Origin == n.id {
				n.out.entries = append(n.out.entries, w)
				maxOwn = max(maxOwn, w.LastSeq)
			}
			n.replica.Deliver(w)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("netrepl: recover %s: %w", n.id, err)
	}
	n.wal = wal
	n.out.hold = len(n.out.entries) > 0
	n.replica.EnsureSeq(maxOwn)
	return nil
}

// Addr returns the node's listening address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// ID returns the node's replica identifier.
func (n *Node) ID() clock.ReplicaID { return n.id }

// AddPeer registers a peer to replicate to and starts its sender at the
// oldest entry the outbound log retains. Adding a known peer id again
// re-points its sender at addr and keeps its cursor: a peer recovered on
// a new port is sent exactly what it still lacks. On a recovered node the log starts with the own-origin records
// of the write-ahead log: a crash between fsync and send would otherwise
// leave a permanent causal gap at every peer (peers that have them
// deduplicate). They stay until the node's next commit, so add every peer
// before committing.
func (n *Node) AddPeer(id clock.ReplicaID, addr string) {
	n.out.mu.Lock()
	defer n.out.mu.Unlock()
	if p, ok := n.out.peers[id]; ok {
		p.repoint(addr)
		return
	}
	p := newPeerConn(n, id, addr)
	p.next = n.out.base
	n.out.peers[id] = p
	n.wg.Add(1)
	go p.run()
}

// RemovePeer stops replicating to a peer and releases its sender — the
// decommission path. What the peer had not acknowledged is for a site
// that no longer exists: the log forgets it uncounted. Removing an
// unknown peer is a no-op.
func (n *Node) RemovePeer(id clock.ReplicaID) {
	n.out.mu.Lock()
	p := n.out.peers[id]
	delete(n.out.peers, id)
	n.out.mu.Unlock()
	if p != nil {
		n.out.ack(p, 0) // trims what only this peer lacked
		close(p.quit)
	}
}

// Begin starts a highly available transaction at the node's replica —
// the runtime backend surface (runtime.Replica). Transactions may begin
// on many goroutines: each holds the store's replica lock from its first
// object access to Commit, so it reads one snapshot, and remote effect
// groups attach atomically between transactions. Always commit exactly
// once. Commit appends the transaction to the outbound log and never
// waits on a peer.
func (n *Node) Begin() *store.Txn {
	return n.replica.Begin()
}

// Object returns the CRDT stored at key, creating it with mk when absent.
// The lookup holds the replica lock; read the returned object through a
// transaction when the node is live.
func (n *Node) Object(key string, mk func() crdt.CRDT) crdt.CRDT {
	return n.replica.Object(key, mk)
}

// Lookup returns the CRDT stored at key if it exists.
func (n *Node) Lookup(key string) (crdt.CRDT, bool) {
	return n.replica.Lookup(key)
}

// CompactAll lets every CRDT at the node's replica compact metadata below
// the stability horizon under the replica lock — safe while the node
// serves traffic (see store.Replica.CompactAll).
//
// On a durable node the stability round also drives the snapshot cycle:
// once Config.SnapshotEvery log bytes have accumulated since the last
// snapshot, the node captures one and truncates the log below the
// horizon. The horizon is the right truncation cut on both axes it must
// respect: it is at or below every member's applied cut (peers will
// never ask for records beneath it) and at or below this replica's own
// applied cut, which the snapshot covers (recovery will not need them
// either).
func (n *Node) CompactAll(horizon, frontier clock.Vector) {
	n.replica.CompactAll(horizon, frontier)
	if n.wal == nil {
		return
	}
	select {
	case <-n.closed:
		// Never snapshot a dead node: after Kill, persisting the
		// in-memory state would resurrect exactly the unsynced suffix
		// the crash must lose.
		return
	default:
	}
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	if n.wal.Stats().Bytes-n.snapBase < uint64(n.cfg.SnapshotEvery) {
		return
	}
	if err := n.snapshotLocked(); err != nil {
		log.Printf("netrepl: node %s: snapshot failed (log keeps everything): %v", n.id, err)
		return
	}
	if err := n.wal.TruncateBelow(horizon); err != nil {
		log.Printf("netrepl: node %s: wal truncate: %v", n.id, err)
	}
}

// snapshotLocked captures and persists a snapshot; snapMu held.
//
// The image may hold own-origin commits whose log records are appended
// but not yet fsynced (a committer's durability wait runs after its locks
// release, or later still when deferred to a connection's reply flush).
// The log is synced before the image is written: a snapshot that outlived
// a crash while the log lost those records would recover transactions no
// peer ever received (broadcast waits for the fsync) and that recovery
// cannot re-offer — every peer would stall on the origin's gap forever.
func (n *Node) snapshotLocked() error {
	data, _, err := n.replica.CaptureSnapshot()
	if err != nil {
		return err
	}
	if err := n.wal.Sync(); err != nil {
		return err
	}
	if err := store.WriteSnapshotFile(n.dataDir, data); err != nil {
		return err
	}
	n.snapBase = n.wal.Stats().Bytes
	n.snapshots.Add(1)
	return nil
}

// ForceSnapshot captures and persists a snapshot immediately, regardless
// of how little the log has grown.
func (n *Node) ForceSnapshot() error {
	if n.wal == nil {
		return fmt.Errorf("netrepl: node %s is not durable", n.id)
	}
	n.snapMu.Lock()
	defer n.snapMu.Unlock()
	return n.snapshotLocked()
}

// SetPaused freezes (or thaws) the replica's delivery buffer — the
// crash/recovery fault hook, shared with the simulator: remote frames are
// still received, logged and buffered, but nothing applies. Unpausing
// drains the buffer in causal order. Local commits are unaffected.
func (n *Node) SetPaused(paused bool) {
	n.replica.SetPaused(paused)
}

// BlockOrigin makes the receive path refuse frames whose transactions
// originate from the given replica — the partition fault hook. A refused
// frame's connection drops without an acknowledgement, so the sender
// retries with backoff until the block lifts: delivery stays at-least-once
// and no transaction is lost, exactly the buffered-partition semantics of
// the simulator. Blocking is receive-side because every node streams only
// its own commits, so "frames originating at a" ≡ "the a→n link".
func (n *Node) BlockOrigin(origin clock.ReplicaID, blocked bool) {
	n.blockMu.Lock()
	defer n.blockMu.Unlock()
	if blocked {
		n.blocked[origin] = true
	} else {
		delete(n.blocked, origin)
	}
}

func (n *Node) originBlocked(origin clock.ReplicaID) bool {
	n.blockMu.Lock()
	defer n.blockMu.Unlock()
	return n.blocked[origin]
}

// Stats returns a snapshot of the node's transport metrics.
func (n *Node) Stats() Metrics {
	m := Metrics{
		Dials:          atomic.LoadUint64(&n.m.dials),
		Reconnects:     atomic.LoadUint64(&n.m.reconnects),
		SendErrors:     atomic.LoadUint64(&n.m.sendErrors),
		FramesSent:     atomic.LoadUint64(&n.m.framesSent),
		TxnsSent:       atomic.LoadUint64(&n.m.txnsSent),
		BytesSent:      atomic.LoadUint64(&n.m.bytesSent),
		FramesRecv:     atomic.LoadUint64(&n.m.framesRecv),
		TxnsRecv:       atomic.LoadUint64(&n.m.txnsRecv),
		BytesRecv:      atomic.LoadUint64(&n.m.bytesRecv),
		TxnsDropped:    atomic.LoadUint64(&n.m.txnsDropped),
		ApplyDepth:     n.replica.Buffered(),
		Snapshots:      n.snapshots.Load(),
		StalledOrigins: int(n.stalledOrigins.Load()),
	}
	if n.wal != nil {
		ws := n.wal.Stats()
		m.WALAppends = ws.Appends
		m.WALSyncs = ws.Syncs
		m.WALBytes = ws.Bytes
		m.WALSegments = ws.Segments
	}
	n.out.mu.Lock()
	low, end := n.out.bounds()
	n.out.mu.Unlock()
	m.QueueDepth = int(end - low)
	return m
}

// Replica exposes the node's store replica — the handle sessions pin
// (store.Session) and tests inspect. The replica is invalidated when
// the node is killed or decommissioned, so a stale handle fails loudly.
func (n *Node) Replica() *store.Replica {
	return n.replica
}

// broadcast ships one committed transaction to every peer. Called from
// Commit under the replica lock, so the outbound log's order matches the
// origin's sequence order. It appends and returns; each peer's sender
// goroutine does the network work.
//
// On a durable node it first appends the transaction to the write-ahead
// log (the replica lock serialises walEnc) and returns a wait function
// that Commit runs after releasing the transaction's locks, or hands to
// the caller's acknowledgement point (store.Txn.DeferDurability): no
// client is told a commit succeeded before its record is fsynced — so
// nothing acknowledged can be lost to a crash — but the fsync itself
// never happens under a lock, and concurrent committers share one group
// commit. The transaction is stamped with its log sequence so each
// peer's sender can hold the frame back until the record is durable
// (see peerConn.deliver): a peer must never hold a transaction the
// origin could forget, or the origin's recovery would reuse its
// sequence numbers for different operations.
func (n *Node) broadcast(w store.WireTxn) func() {
	var seq uint64
	if n.wal != nil {
		frame, err := n.walEnc.Encode([]store.WireTxn{w})
		if err != nil {
			// Deterministic encoding: a failure is a programming error (an
			// op type without a wire codec), same as the sender path.
			panic(fmt.Sprintf("netrepl: encode commit for wal: %v", err))
		}
		if seq, err = n.wal.Append(frame, []store.WireTxn{w}); err != nil {
			n.walFailed(err)
			seq = 0
		}
		w.SetWALSeq(seq)
	}
	n.out.append(w)
	if seq == 0 {
		return nil
	}
	return func() {
		if err := n.wal.WaitSynced(seq); err != nil {
			n.walFailed(err)
		}
	}
}

// walFailed reports a durability failure once; the WAL error is sticky,
// so the node keeps serving from memory but stops being durable (and a
// restart recovers only to the last synced record).
func (n *Node) walFailed(err error) {
	n.walFailOnce.Do(func() {
		log.Printf("netrepl: node %s: WAL failure, durability lost: %v", n.id, err)
	})
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
				continue
			}
		}
		// Register under connMu, re-checking closed: Close sweeps the
		// map after closing n.closed, so a connection accepted in that
		// window must be closed here or nothing ever closes it (and
		// Close would wait on its handler forever). The wg.Add must also
		// happen inside the critical section: Close holds connMu for its
		// sweep before it waits, so either this handler is registered (and
		// counted) before the sweep, or the closed re-check above fires —
		// an Add racing a started Wait could otherwise let Close return
		// while the handler still runs (and lets DropConnections during
		// Close observe a connection that was never registered).
		n.connMu.Lock()
		select {
		case <-n.closed:
			n.connMu.Unlock()
			conn.Close()
			return
		default:
		}
		n.conns[conn] = struct{}{}
		n.wg.Add(1)
		n.connMu.Unlock()
		go n.handle(conn)
	}
}

func (n *Node) handle(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.connMu.Lock()
		delete(n.conns, conn)
		n.connMu.Unlock()
		conn.Close()
	}()
	// One pooled read buffer per connection, reused for every frame on
	// the stream: the receive path performs no per-frame buffer
	// allocation (DecodeFrame copies out everything it keeps, so the
	// buffer is free to be overwritten by the next frame).
	bufp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bufp)
	for {
		data, err := readFrame(conn, bufp, n.cfg.maxFrame)
		if err != nil {
			return
		}
		// State-transfer requests share the replication listener; both
		// are one-shot (serve, then drop the connection).
		if bytes.HasPrefix(data, []byte(tailMagic)) {
			n.serveTail(conn, data[len(tailMagic):])
			return
		}
		if bytes.HasPrefix(data, []byte(joinMagic)) {
			n.serveJoin(conn)
			return
		}
		txns, err := store.DecodeFrame(data)
		if err != nil {
			return // corrupt stream: drop the connection, sender retries
		}
		// Partition fault: refuse the frame without acking — the sender
		// keeps the batch and retries with backoff until the block lifts.
		// (A frame carries one origin's transactions: nodes stream only
		// their own commits.)
		if len(txns) > 0 && n.originBlocked(txns[0].Origin) {
			return
		}
		// Durability: log and fsync the raw frame BEFORE applying or
		// acknowledging anything from it. Log-before-apply keeps the
		// replica's delivered cut inside the durable cut (a gathered
		// stability horizon can then never cover an op recovery would
		// lose); fsync-before-ack means a sender told to forget a batch
		// can trust this node to resurrect it from its own log.
		if n.wal != nil {
			if seq, err := n.wal.Append(data, txns); err != nil {
				n.walFailed(err)
			} else if err := n.wal.WaitSynced(seq); err != nil {
				n.walFailed(err)
			}
		}
		atomic.AddUint64(&n.m.framesRecv, 1)
		atomic.AddUint64(&n.m.bytesRecv, uint64(len(data)+4))
		for _, w := range txns {
			n.replica.Deliver(w)
		}
		atomic.AddUint64(&n.m.txnsRecv, uint64(len(txns)))
		// Acknowledge once the batch is delivered: the sender may now
		// forget it. Whatever the buffer holds dies only with the node,
		// and on a durable node the batch is already fsynced above, so
		// the ack is safe against this node's crash too. Over the
		// receive-side bound the ack waits, pushing backpressure onto
		// the sender.
		if len(txns) > 0 && !n.awaitBacklog(txns[0].Origin) {
			return // node closing
		}
		if err := writeAck(conn); err != nil {
			return
		}
	}
}

// stateTransferLimit is the frame cap on the state-transfer paths
// (snapshot blobs and WAL-record tails). Deliberately far above
// maxFrame: state transfer is the unstick path for transactions
// too large for live replication, so it must carry what the live path
// cannot.
const stateTransferLimit = 1 << 30

// serveTail streams every logged record above the requester's cut back
// as batch frames, then lets the connection close (EOF is the end
// marker; no acks — the requester retries against another peer on
// error, and re-applied overlap deduplicates). All origins are served,
// not just this node's own: a joiner must also obtain records whose
// origin has since left the mesh, and those exist only in the logs of
// the nodes that received them.
func (n *Node) serveTail(conn net.Conn, req []byte) {
	rd := crdt.NewWireReader(req)
	have, err := crdt.DecodeVectorWire(&rd)
	if err != nil || n.wal == nil {
		return
	}
	recs, err := n.wal.RecordsAbove(have)
	if err != nil {
		return
	}
	enc := store.NewFrameEncoder(store.WireVersionV2)
	var send func(batch []store.WireTxn) bool
	send = func(batch []store.WireTxn) bool {
		frame, err := enc.Encode(batch)
		if err != nil {
			return false
		}
		if len(frame) > n.cfg.maxFrame && len(batch) > 1 {
			// Keep individual frames small where possible; a single
			// record above maxFrame still goes out whole — the requester
			// reads this stream with stateTransferLimit, and carrying
			// oversized transactions is this path's reason to exist.
			half := len(batch) / 2
			return send(batch[:half]) && send(batch[half:])
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		return writeFrame(conn, frame) == nil
	}
	for len(recs) > 0 {
		batch := recs
		if len(batch) > maxBatchTxns {
			batch = recs[:maxBatchTxns]
		}
		if !send(batch) {
			return
		}
		recs = recs[len(batch):]
	}
}

// serveJoin writes one snapshot of the replica's full state — the donor
// side of a fresh site's bootstrap.
func (n *Node) serveJoin(conn net.Conn) {
	data, _, err := n.replica.CaptureSnapshot()
	if err != nil {
		return
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_ = writeFrame(conn, data)
}

// fetchSnapshot adopts a donor's full state. Only sound while nothing
// else writes this replica (a fresh joiner before peers stream to it):
// the snapshot installs objects wholesale.
func (n *Node) fetchSnapshot(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := writeFrame(conn, []byte(joinMagic)); err != nil {
		return err
	}
	bufp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bufp)
	conn.SetReadDeadline(time.Now().Add(writeTimeout))
	data, err := readFrame(conn, bufp, stateTransferLimit)
	if err != nil {
		return err
	}
	snap, err := store.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	n.replica.RestoreSnapshot(snap)
	return nil
}

// fetchTail pulls all records above this node's delivered cut from the
// peer at addr, logging each frame before delivering its transactions
// (the same log-before-apply order as live receive; no ack is involved,
// so no fsync wait either).
func (n *Node) fetchTail(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	req := append([]byte(tailMagic), crdt.AppendVectorWire(nil, n.replica.Clock())...)
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := writeFrame(conn, req); err != nil {
		return err
	}
	bufp := frameBufPool.Get().(*[]byte)
	defer frameBufPool.Put(bufp)
	for {
		conn.SetReadDeadline(time.Now().Add(writeTimeout))
		data, err := readFrame(conn, bufp, stateTransferLimit)
		if err == io.EOF {
			return nil // clean end of stream
		}
		if err != nil {
			return err
		}
		txns, err := store.DecodeFrame(data)
		if err != nil {
			return err
		}
		if n.wal != nil {
			if _, err := n.wal.Append(data, txns); err != nil {
				n.walFailed(err)
			}
		}
		for _, w := range txns {
			n.replica.Deliver(w)
		}
	}
}

// Bootstrap initialises a FRESH site from the mesh: adopt the donor's
// full state snapshot, then pull each peer's op tail. The caller must
// sequence membership correctly (runtime.NetCluster.Join does):
//
//  1. the joiner is added to the stability membership first, freezing
//     the horizon at its cut so no peer truncates records the joiner
//     has not applied;
//  2. the snapshot is fetched before any peer streams to the joiner
//     (snapshot adoption is a wholesale install — see fetchSnapshot);
//  3. peers start streaming (the mesh callback, which AddPeers every
//     existing node towards the joiner), and only then are tails
//     fetched: every record is either in the tail response (logged
//     before it) or in the live stream (committed after the peer began
//     streaming, which precedes its tail response), with the overlap
//     deduplicated by origin sequence.
//
// On a durable joiner the adopted state is immediately re-snapshotted
// under the joiner's own identity, so a crash right after the join
// recovers without re-bootstrapping.
func (n *Node) Bootstrap(donorAddr string, peerAddrs []string, mesh func()) error {
	if err := n.fetchSnapshot(donorAddr); err != nil {
		return fmt.Errorf("netrepl: join %s: snapshot from %s: %w", n.id, donorAddr, err)
	}
	if mesh != nil {
		mesh()
	}
	var firstErr error
	for _, a := range peerAddrs {
		if err := n.fetchTail(a); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("netrepl: join %s: tail from %s: %w", n.id, a, err)
		}
	}
	if n.wal != nil {
		if err := n.ForceSnapshot(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// backlogPoll is how often a handler over the receive-side bound
// re-checks its origin's backlog.
const backlogPoll = time.Millisecond

// awaitBacklog is the receive-side bound (QueueCap): it blocks
// while origin has QueueCap or more transactions buffered and its next
// transaction is one of them, waiting on another origin. It never waits
// behind a gap in the origin's own sequence: the gap-filler arrives on
// this same stream. Waiting cannot deadlock. The transactions origin
// waits on are ordered before its head by happens-before, which is
// acyclic, and they arrive on other origins' connections (see DESIGN.md).
// It returns false when the node closed instead.
func (n *Node) awaitBacklog(origin clock.ReplicaID) bool {
	for {
		buffered, headBuffered := n.replica.Backlog(origin)
		if buffered < QueueCap || !headBuffered {
			return true
		}
		select {
		case <-n.closed:
			return false
		case <-time.After(backlogPoll):
		}
	}
}

// stallTicker is stall detection (stallWarn): an origin is stalled
// when it has buffered transactions and its delivered entry has not moved
// for stallWarn. A FIFO gap, a missing dependency and a pause all look the
// same from here — what matters to a reader of the metric is how long the
// origin has been stuck, not why. The first tick past the threshold logs,
// naming the origin's lowest buffered transaction; the mark clears when
// the entry moves or the buffer drains.
//
// Deliberately loud: a stall that never clears is silent divergence
// otherwise — the origin's later transactions pile up in the buffer while
// reads serve an ever staler prefix. DESIGN.md ("Oversized transactions")
// describes the state-transfer unstick path.
func (n *Node) stallTicker() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.stallWarn / 4)
	defer t.Stop()
	type watch struct {
		entry  uint64
		since  time.Time
		warned bool
	}
	var watched map[clock.ReplicaID]watch
	for {
		select {
		case <-n.closed:
			return
		case now := <-t.C:
			heads := n.replica.BufferHeads()
			vc := n.replica.Clock()
			next := make(map[clock.ReplicaID]watch, len(heads))
			stalled := 0
			for _, h := range heads {
				entry := vc.Get(h.Origin)
				w, ok := watched[h.Origin]
				if !ok || w.entry != entry {
					w = watch{entry: entry, since: now}
				} else if !w.warned && now.Sub(w.since) > n.cfg.stallWarn {
					w.warned = true
					log.Printf("netrepl: node %s: delivery of origin %s stalled for over %v, lowest buffered seq %d..%d (deps %s); "+
						"the dependency may have been dropped as oversized — if the stall persists, recover the site by state transfer",
						n.id, h.Origin, n.cfg.stallWarn, h.FirstSeq, h.LastSeq, h.Deps)
				}
				if w.warned {
					stalled++
				}
				next[h.Origin] = w
			}
			watched = next
			n.stalledOrigins.Store(int64(stalled))
		}
	}
}

// writeAck confirms one accepted frame.
func writeAck(conn net.Conn) error {
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], ackMagic)
	_, err := conn.Write(buf[:])
	return err
}

// readAck consumes one acknowledgement within the deadline.
func readAck(conn net.Conn, deadline time.Time) error {
	if err := conn.SetReadDeadline(deadline); err != nil {
		return err
	}
	var buf [4]byte
	if _, err := io.ReadFull(conn, buf[:]); err != nil {
		return err
	}
	if binary.BigEndian.Uint32(buf[:]) != ackMagic {
		return fmt.Errorf("netrepl: bad ack word %x", buf)
	}
	return nil
}

// DropConnections abruptly closes every accepted inbound connection — the
// chaos hook for connection churn. Peers streaming to this node see their
// next write fail and re-dial with backoff; delivery is at-least-once, so
// retried batches deduplicate and no transaction is lost. The listener
// stays up, so reconnects succeed immediately. It returns the number of
// connections killed.
//
// Racing Close is allowed: once the node is closing, Close owns the
// teardown — it sweeps the same map under connMu and then waits for the
// handlers — so DropConnections backs off and reports zero rather than
// re-closing connections mid-drain (peers in their ack/retry loop would
// count the kill against the dying node and re-send into a closed
// listener).
func (n *Node) DropConnections() int {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	select {
	case <-n.closed:
		return 0
	default:
	}
	for c := range n.conns {
		c.Close()
	}
	return len(n.conns)
}

// Pending reports the number of received transactions waiting in the
// replica's delivery buffer (for a FIFO gap to close, their causal
// dependencies, or a pause to lift).
func (n *Node) Pending() int {
	return n.replica.Buffered()
}

// Clock returns the replica's delivered causal cut.
func (n *Node) Clock() clock.Vector {
	return n.replica.Clock()
}

// Close lets senders flush what their peers lack (for up to
// Config.DrainTimeout), stops the listener and senders, and waits for
// in-flight handlers. On a durable node the log is flushed and fsynced.
// What a peer still lacks, and what the delivery buffer holds, is counted
// in TxnsDropped (on a durable node the buffer is in the log, so a restart
// delivers it again). Safe to call more than once.
func (n *Node) Close() error { return n.shutdown(true) }

// Kill is Close with kill -9 semantics — the crash fault hook. No
// drain: what peers lack is abandoned at once, and the write-ahead
// log is dropped without flushing its append buffer, losing exactly the
// records whose WaitSynced never returned — i.e. nothing that was ever
// acknowledged to a client or a peer. The replica is invalidated so
// pinned sessions fail with ErrStale instead of silently reading the
// dead instance (the site's identity moves to the recovered node).
// A node restarted from the same data directory recovers the site.
func (n *Node) Kill() error { return n.shutdown(false) }

func (n *Node) shutdown(graceful bool) error {
	n.closeOnce.Do(func() {
		if graceful {
			n.drainBy = time.Now().Add(n.cfg.DrainTimeout)
		} else {
			n.drainBy = time.Now()
			n.replica.Invalidate()
		}
		close(n.closed)
		n.closeErr = n.ln.Close()
		// Senders flush on their own; inbound connections would block
		// forever on read (peers hold them open), so close them.
		n.connMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		n.connMu.Unlock()
		n.wg.Wait()
		// Senders are gone: what each peer still lacks is lost to it.
		// Handlers are gone too; transactions still in the delivery
		// buffer were acknowledged and are now lost with the node.
		dropped := uint64(n.replica.Buffered())
		n.out.mu.Lock()
		_, end := n.out.bounds()
		for _, p := range n.out.peers {
			dropped += end - p.next
		}
		clear(n.out.peers) // later commits are replicated to no one
		n.out.mu.Unlock()
		atomic.AddUint64(&n.m.txnsDropped, dropped)
		// Tear down the log last: handlers that were appending are gone.
		if n.wal != nil {
			var err error
			if graceful {
				err = n.wal.Close()
			} else {
				err = n.wal.Abandon()
			}
			if err != nil && n.closeErr == nil {
				n.closeErr = err
			}
		}
	})
	return n.closeErr
}

// writeFrame writes one length-prefixed frame.
func writeFrame(conn net.Conn, data []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(data)
	return err
}

// frameBufPool recycles receive buffers across connections. A handler
// checks one out for the life of its connection (frames on a stream
// reuse it), so the pool's job is bounding memory across connection
// churn rather than per-frame recycling.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 16<<10)
		return &b
	},
}

// readFrame reads one length-prefixed frame into *bufp (growing it when
// the frame exceeds its capacity), refusing frames above limit. The
// returned slice aliases *bufp and is valid until the next readFrame
// call with the same buffer.
func readFrame(conn net.Conn, bufp *[]byte, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size > uint32(limit) {
		return nil, fmt.Errorf("netrepl: frame of %d bytes exceeds limit", size)
	}
	if uint32(cap(*bufp)) < size {
		*bufp = make([]byte, size)
	}
	data := (*bufp)[:size]
	if _, err := io.ReadFull(conn, data); err != nil {
		return nil, err
	}
	return data, nil
}
