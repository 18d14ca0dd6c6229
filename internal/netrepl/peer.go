package netrepl

import (
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ipa/internal/clock"
	"ipa/internal/store"
)

// outLog is the node's outbound log: its own commits in commit order, each
// kept until every peer has acknowledged it (entries[i] has index base+i).
// Each peer's sender reads from its own cursor, peerConn.next, so a peer
// that is down makes the log longer, never a committer wait. Lock order:
// the replica lock ≺ mu; senders take only mu.
type outLog struct {
	mu      sync.Mutex
	base    uint64
	entries []store.WireTxn
	peers   map[clock.ReplicaID]*peerConn
	// hold keeps recovered records until the node's next commit: AddPeer
	// adds peers one at a time, and none may miss them.
	hold bool
}

// append retains one commit for the node's peers, if any, and wakes them.
func (l *outLog) append(w store.WireTxn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hold = false
	if len(l.peers) == 0 { // nobody lacks anything, recovered records included
		l.base, l.entries = l.base+uint64(len(l.entries)), nil
		return
	}
	l.entries = append(l.entries, w)
	for _, p := range l.peers {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// bounds returns the lowest cursor and the index past the last entry.
func (l *outLog) bounds() (low, end uint64) {
	end = l.base + uint64(len(l.entries))
	low = end
	for _, p := range l.peers {
		low = min(low, p.next)
	}
	return low, end
}

// pending is how many entries p lacks (0 once p is removed).
func (l *outLog) pending(p *peerConn) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.peers[p.id] != p {
		return 0
	}
	_, end := l.bounds()
	return int(end - p.next)
}

// read copies up to max entries from p's cursor into buf, so appends and
// trims cannot race the sender's encode.
func (l *outLog) read(p *peerConn, buf []store.WireTxn, max int) []store.WireTxn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.peers[p.id] != p {
		return buf[:0]
	}
	from := int(p.next - l.base)
	return append(buf[:0], l.entries[from:min(len(l.entries), from+max)]...)
}

// ack advances p's cursor past k delivered entries, then drops what every
// peer has acknowledged, zeroing the slots so the GC frees their ops.
func (l *outLog) ack(p *peerConn, k int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p.next += uint64(k)
	if !l.hold {
		low, _ := l.bounds()
		clear(l.entries[:low-l.base])
		l.entries = l.entries[low-l.base:]
		l.base = low
	}
}

// peerConn is one peer's outbound replication stream: a dedicated sender
// goroutine that reads the node's outbound log from its own cursor and
// owns the (single, persistent) connection to the peer.
type peerConn struct {
	n  *Node
	id clock.ReplicaID

	// mu guards addr and conn between the sender and repoint.
	mu   sync.Mutex
	addr string
	conn net.Conn // written only by the sender

	next uint64        // first entry the peer has not acknowledged; log mutex
	wake chan struct{} // capacity 1: the log has grown

	// quit is closed by Node.RemovePeer (decommission): the sender stops
	// without retrying and exits. Node close uses n.closed instead, which
	// allows a drain window.
	quit chan struct{}

	// Sender-goroutine state; no lock needed.
	connected bool       // a dial has succeeded at least once
	rng       *rand.Rand // backoff jitter; private so no global rand state
	batch     []store.WireTxn

	// enc builds this peer's batch frames into a buffer reused across
	// frames — the steady-state send path allocates nothing per frame.
	enc *store.FrameEncoder
	// oversizedLogged limits the undeliverable-transaction log line to
	// once per peer (the counter keeps the full tally).
	oversizedLogged bool
}

func newPeerConn(n *Node, id clock.ReplicaID, addr string) *peerConn {
	// A deterministic per-peer seed keeps backoff jitter off the global
	// math/rand state (replays of the deterministic harness must not
	// consume shared randomness) while still decorrelating peers.
	h := fnv.New64a()
	h.Write([]byte(n.id))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return &peerConn{
		n: n, id: id, addr: addr,
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		rng:   rand.New(rand.NewSource(int64(h.Sum64()))),
		batch: make([]store.WireTxn, 0, maxBatchTxns),
		enc:   store.NewFrameEncoder(store.WireVersionV2),
	}
}

// run is the sender loop: collect a batch, deliver it (with reconnects),
// advance the cursor, repeat. On node close it flushes what it can before
// the drain deadline and exits; shutdown counts what is left.
func (p *peerConn) run() {
	defer p.n.wg.Done()
	defer func() {
		if p.conn != nil {
			p.conn.Close()
		}
	}()
	for {
		batch := p.collect()
		if len(batch) == 0 || !p.deliver(batch) {
			return
		}
		p.n.out.ack(p, len(batch))
	}
}

// collect waits for the first entry past the cursor, then keeps the batch
// open for FlushInterval unless maxBatchTxns are pending, so a commit
// burst coalesces into one frame. After Close or RemovePeer it returns
// what is pending at once, and an empty batch once nothing is.
func (p *peerConn) collect() []store.WireTxn {
	var flush <-chan time.Time
	for open := true; open; {
		pending := p.n.out.pending(p)
		if pending >= maxBatchTxns {
			break
		}
		if pending > 0 && flush == nil {
			flush = time.After(p.n.cfg.FlushInterval)
		}
		select {
		case <-p.wake:
		case <-flush:
			open = false
		case <-p.n.closed:
			open = false
		case <-p.quit:
			open = false
		}
	}
	p.batch = p.n.out.read(p, p.batch, maxBatchTxns)
	return p.batch
}

// deliver writes the batch as one frame, dialing or re-dialing as needed
// with exponential backoff + jitter. It retries until the frame is on the
// wire; it gives up (returning false) only after Close once the drain
// deadline has passed. Retrying a partially written frame can duplicate
// transactions — the receiver deduplicates by origin sequence.
func (p *peerConn) deliver(batch []store.WireTxn) bool {
	// Broadcast-after-fsync: nothing leaves this node before its log
	// record is durable. A peer holding a transaction the crashed origin
	// forgot would be worse than loss — the recovered origin reuses the
	// forgotten sequence numbers, and the mesh would hold two different
	// transactions under one identity. Commits are stamped with their
	// log sequence at append time (see Node.broadcast); waiting on the
	// batch's maximum covers every record in it, and the group commit
	// usually already has (the committer's own wait races this one).
	if p.n.wal != nil {
		var maxSeq uint64
		for i := range batch {
			if s := batch[i].WALSeq(); s > maxSeq {
				maxSeq = s
			}
		}
		if maxSeq > 0 {
			if err := p.n.wal.WaitSynced(maxSeq); err != nil {
				p.n.walFailed(err)
			}
		}
	}
	// The frame aliases the peer's reusable encoder buffer; it stays
	// valid through the retry loop below because nothing else encodes on
	// this goroutine until deliver returns (the split path re-encodes
	// only after the first half's frame is fully written).
	frame, err := p.enc.Encode(batch)
	if err != nil {
		// Encoding is deterministic, so this is a programming error
		// (an op type without a wire codec). Skipping the batch would
		// open a permanent causal gap at every receiver; fail loudly
		// instead.
		panic(fmt.Sprintf("netrepl: encode batch: %v (op type not registered with the crdt wire codec?)", err))
	}
	if len(frame) > p.n.cfg.maxFrame {
		// The receiver refuses frames this large; retrying the same
		// frame would wedge replication forever. Split and retry.
		if len(batch) > 1 {
			half := len(batch) / 2
			return p.deliver(batch[:half]) && p.deliver(batch[half:])
		}
		// A single transaction too large for any frame can never be
		// delivered (it is counted, and announced once per peer). Every
		// receiver will stall on the causal gap this opens: the origin's
		// later transactions wait in delivery buffers forever — until
		// the receiver's stall detector fires (stallWarn) and the
		// site is recovered by state transfer. See DESIGN.md
		// ("Oversized transactions").
		if !p.oversizedLogged {
			p.oversizedLogged = true
			w := &batch[0]
			log.Printf("netrepl: node %s dropping undeliverable transaction for peer %s: origin %s seq %d..%d encodes to %d bytes (frame limit %d); receivers will stall on the causal gap",
				p.n.id, p.id, w.Origin, w.FirstSeq, w.LastSeq, len(frame), p.n.cfg.maxFrame)
		}
		atomic.AddUint64(&p.n.m.sendErrors, 1)
		atomic.AddUint64(&p.n.m.txnsDropped, 1)
		return true
	}
	backoff := p.n.cfg.BackoffMin
	for {
		if p.conn == nil && !p.dial() {
			atomic.AddUint64(&p.n.m.sendErrors, 1)
			if !p.pause(&backoff) {
				return false
			}
			continue
		}
		p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := writeFrame(p.conn, frame); err != nil {
			atomic.AddUint64(&p.n.m.sendErrors, 1)
			p.drop()
			if !p.pause(&backoff) {
				return false
			}
			continue
		}
		// A successful write only proves the bytes reached a kernel
		// buffer; if the peer dies before reading them the frame is
		// gone and the causal gap would wedge the ring forever. Delivery
		// counts only when the peer acknowledges the applied frame;
		// anything else retries the batch on a fresh connection (the
		// receiver deduplicates by origin sequence).
		if err := readAck(p.conn, time.Now().Add(writeTimeout)); err != nil {
			atomic.AddUint64(&p.n.m.sendErrors, 1)
			p.drop()
			if !p.pause(&backoff) {
				return false
			}
			continue
		}
		atomic.AddUint64(&p.n.m.framesSent, 1)
		atomic.AddUint64(&p.n.m.txnsSent, uint64(len(batch)))
		atomic.AddUint64(&p.n.m.bytesSent, uint64(len(frame)+4))
		return true
	}
}

// dial attempts one connection to the peer's current address.
func (p *peerConn) dial() bool {
	p.mu.Lock()
	addr := p.addr
	p.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if addr != p.addr { // re-pointed while dialing: addr is the old site's
		conn.Close()
		return false
	}
	p.conn = conn
	atomic.AddUint64(&p.n.m.dials, 1)
	if p.connected {
		atomic.AddUint64(&p.n.m.reconnects, 1)
	}
	p.connected = true
	return true
}

// drop closes the sender's connection after a failed write or ack.
func (p *peerConn) drop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.conn.Close()
	p.conn = nil
}

// repoint aims the peer's next dial at addr, for a peer back on a new
// port, and closes a connection to the old one so a sender waiting there
// for an ack retries at once rather than after writeTimeout.
func (p *peerConn) repoint(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil && addr != p.addr {
		p.conn.Close()
	}
	p.addr = addr
}

// pause sleeps the current backoff (with jitter) and doubles it up to
// BackoffMax. It returns false when the node is closed and the drain
// deadline has passed — the signal to abandon the batch.
func (p *peerConn) pause(backoff *time.Duration) bool {
	d := *backoff/2 + time.Duration(p.rng.Int63n(int64(*backoff/2)+1))
	if *backoff *= 2; *backoff > p.n.cfg.BackoffMax {
		*backoff = p.n.cfg.BackoffMax
	}
	select {
	case <-p.quit:
		// Decommissioned peer: no retry window — the site is gone.
		return false
	default:
	}
	select {
	case <-p.n.closed:
		remaining := time.Until(p.n.drainBy)
		if remaining <= 0 {
			return false
		}
		if d > remaining {
			d = remaining
		}
		time.Sleep(d)
		return time.Now().Before(p.n.drainBy)
	case <-time.After(d):
		return true
	}
}
