package netrepl

import (
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"ipa/internal/clock"
	"ipa/internal/store"
)

// peerConn is one peer's outbound replication stream: a bounded queue of
// committed transactions drained by a dedicated sender goroutine that
// owns the (single, persistent) connection to the peer.
type peerConn struct {
	n    *Node
	id   clock.ReplicaID
	addr string

	// ch is the bounded outbound queue. Commits enqueue (blocking when
	// full — backpressure), the sender goroutine coalesces into batches.
	ch chan store.WireTxn

	// quit is closed by Node.RemovePeer (decommission): the sender
	// flushes what it can without retrying and exits. Node close uses
	// n.closed instead, which allows a drain window.
	quit chan struct{}

	// Sender-goroutine state; no lock needed.
	conn      net.Conn
	connected bool       // a dial has succeeded at least once
	rng       *rand.Rand // backoff jitter; private so no global rand state

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
		ch:   make(chan store.WireTxn, n.cfg.QueueCap),
		quit: make(chan struct{}),
		rng:  rand.New(rand.NewSource(int64(h.Sum64()))),
		enc:  store.NewFrameEncoder(store.WireVersionV2),
	}
}

// enqueue hands one committed transaction to the sender. When the queue
// is full it blocks until the sender frees space (counted as a
// backpressure wait) or the node is closed.
func (p *peerConn) enqueue(w store.WireTxn) {
	// Once the node is closing the sender may already have exited;
	// anything enqueued now would vanish uncounted, so drop it visibly.
	select {
	case <-p.n.closed:
		atomic.AddUint64(&p.n.m.txnsDropped, 1)
		return
	default:
	}
	select {
	case p.ch <- w:
		return
	default:
	}
	atomic.AddUint64(&p.n.m.backpressureWaits, 1)
	select {
	case p.ch <- w:
	case <-p.n.closed:
		atomic.AddUint64(&p.n.m.txnsDropped, 1)
	}
}

// run is the sender loop: collect a batch, deliver it (with reconnects),
// repeat. On node close it flushes what it can before the drain deadline
// and exits.
func (p *peerConn) run() {
	defer p.n.wg.Done()
	defer func() {
		if p.conn != nil {
			p.conn.Close()
		}
	}()
	for {
		batch := p.collect()
		if batch == nil {
			return
		}
		if !p.deliver(batch) {
			// Drain deadline expired with the peer unreachable: account
			// for everything we are abandoning and stop.
			dropped := uint64(len(batch) + len(p.ch))
			atomic.AddUint64(&p.n.m.txnsDropped, dropped)
			return
		}
	}
}

// collect blocks for the next transaction, then keeps the batch open for
// FlushInterval (or until MaxBatchTxns) so a commit burst coalesces into
// one frame. After Close it returns whatever is queued without waiting,
// and nil once the queue is empty.
func (p *peerConn) collect() []store.WireTxn {
	var first store.WireTxn
	select {
	case first = <-p.ch:
	case <-p.n.closed:
		select {
		case first = <-p.ch:
		default:
			return nil
		}
	case <-p.quit:
		select {
		case first = <-p.ch:
		default:
			return nil
		}
	}
	batch := append(make([]store.WireTxn, 0, p.n.cfg.MaxBatchTxns), first)
	timer := time.NewTimer(p.n.cfg.FlushInterval)
	defer timer.Stop()
	drain := func() []store.WireTxn {
		for len(batch) < p.n.cfg.MaxBatchTxns {
			select {
			case w := <-p.ch:
				batch = append(batch, w)
			default:
				return batch
			}
		}
		return batch
	}
	for len(batch) < p.n.cfg.MaxBatchTxns {
		select {
		case w := <-p.ch:
			batch = append(batch, w)
		case <-timer.C:
			return batch
		case <-p.n.closed:
			return drain()
		case <-p.quit:
			return drain()
		}
	}
	return batch
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
	if len(frame) > p.n.cfg.MaxFrame {
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
		// the receiver's stall detector fires (Config.StallWarn) and the
		// site is recovered by state transfer. See DESIGN.md
		// ("Oversized transactions").
		if !p.oversizedLogged {
			p.oversizedLogged = true
			w := &batch[0]
			log.Printf("netrepl: node %s dropping undeliverable transaction for peer %s: origin %s seq %d..%d encodes to %d bytes (MaxFrame %d); receivers will stall on the causal gap",
				p.n.id, p.id, w.Origin, w.FirstSeq, w.LastSeq, len(frame), p.n.cfg.MaxFrame)
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
		p.conn.SetWriteDeadline(time.Now().Add(p.n.cfg.WriteTimeout))
		if err := writeFrame(p.conn, frame); err != nil {
			atomic.AddUint64(&p.n.m.sendErrors, 1)
			p.conn.Close()
			p.conn = nil
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
		if err := readAck(p.conn, time.Now().Add(p.n.cfg.WriteTimeout)); err != nil {
			atomic.AddUint64(&p.n.m.sendErrors, 1)
			p.conn.Close()
			p.conn = nil
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

// dial attempts one connection to the peer.
func (p *peerConn) dial() bool {
	conn, err := net.DialTimeout("tcp", p.addr, p.n.cfg.DialTimeout)
	if err != nil {
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

// pause sleeps the current backoff (with jitter) and doubles it up to
// BackoffMax. It returns false when the node is closed and the drain
// deadline has passed — the signal to abandon the queue.
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
		remaining := time.Until(p.n.drainDeadline())
		if remaining <= 0 {
			return false
		}
		if d > remaining {
			d = remaining
		}
		time.Sleep(d)
		return time.Now().Before(p.n.drainDeadline())
	case <-time.After(d):
		return true
	}
}
