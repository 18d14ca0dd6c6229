package netrepl

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipa/internal/clock"
	"ipa/internal/crdt"
	"ipa/internal/store"
)

// waitUntil polls cond every millisecond until it holds or the deadline
// expires.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// commitN commits n one-update transactions on the node.
func commitN(n *Node, key string, count int) {
	for i := 0; i < count; i++ {
		tx := n.Begin()
		store.CounterAt(tx, key).Add(1)
		tx.Commit()
	}
}

// counterValue reads the counter at key on the node.
func counterValue(n *Node, key string) int64 {
	tx := n.Begin()
	defer tx.Commit()
	return store.CounterAt(tx, key).Value()
}

// TestPeerDownAtSend commits while the peer's address has no listener:
// the log must retain the commits and the sender retry with backoff,
// delivering everything once the peer finally comes up.
func TestPeerDownAtSend(t *testing.T) {
	// Reserve an address, then free it so the peer is down.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := ln.Addr().String()
	ln.Close()

	cfg := Config{BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond}
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("b", peerAddr)

	commitN(a, "c", 25)
	// The peer is down: errors accumulate, nothing is sent.
	waitUntil(t, "send errors while peer down", func() bool {
		return a.Stats().SendErrors > 0
	})
	if s := a.Stats(); s.FramesSent != 0 {
		t.Fatalf("sent %d frames to a dead peer", s.FramesSent)
	}

	// Bring the peer up on the reserved address (retry: the port was
	// released above but another process could race us for it).
	var b *Node
	for i := 0; i < 20; i++ {
		b, err = NewNode("b", peerAddr)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", peerAddr, err)
	}
	defer b.Close()

	waitUntil(t, "delivery after peer came up", func() bool {
		return counterValue(b, "c") == 25
	})
	// The sender counts a transaction sent only on ack, which trails the
	// receiver's apply by one read — wait rather than assert immediately.
	waitUntil(t, "acked sends after peer came up", func() bool {
		s := a.Stats()
		return s.TxnsSent >= 25 && s.Dials > 0
	})
}

// proxy is a TCP relay whose live connections the test can kill to force
// the sender into a mid-stream reconnect.
type proxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	conns []net.Conn
	done  bool
}

func newProxy(t *testing.T, target string) *proxy {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{ln: ln, target: target}
	go p.accept()
	t.Cleanup(p.Close)
	return p
}

func (p *proxy) Addr() string { return p.ln.Addr().String() }

func (p *proxy) accept() {
	for {
		in, err := p.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", p.target)
		if err != nil {
			in.Close()
			continue
		}
		p.mu.Lock()
		if p.done {
			p.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		p.conns = append(p.conns, in, out)
		p.mu.Unlock()
		go func() { io.Copy(out, in); out.Close() }()
		go func() { io.Copy(in, out); in.Close() }()
	}
}

// KillActive severs every live relayed connection.
func (p *proxy) KillActive() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
}

func (p *proxy) Close() {
	p.mu.Lock()
	p.done = true
	p.mu.Unlock()
	p.ln.Close()
	p.KillActive()
}

// TestReconnectMidStream kills the sender's connection between batches:
// the sender must reconnect with backoff and resume, and the receiver's
// dedup must absorb any retried batch.
func TestReconnectMidStream(t *testing.T) {
	cfg := Config{BackoffMin: time.Millisecond, BackoffMax: 20 * time.Millisecond}
	b, err := NewNodeWithConfig("b", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	px := newProxy(t, b.Addr())

	a, err := NewNodeWithConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("b", px.Addr())

	commitN(a, "c", 10)
	waitUntil(t, "first batch", func() bool { return counterValue(b, "c") == 10 })

	px.KillActive() // the sender discovers the break on its next write

	commitN(a, "c", 15)
	waitUntil(t, "delivery after reconnect", func() bool {
		return counterValue(b, "c") == 25
	})
	if s := a.Stats(); s.Reconnects == 0 {
		t.Fatalf("expected a reconnect, stats: %+v", s)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d after convergence", b.Pending())
	}
}

// captureTxns commits count transactions on a scratch replica and
// returns their wire forms (with correct seqs and deps).
func captureTxns(origin clock.ReplicaID, key string, count int) []store.WireTxn {
	r := store.NewReplica(origin)
	var out []store.WireTxn
	r.SetOnCommit(func(w store.WireTxn) func() { out = append(out, w); return nil })
	for i := 0; i < count; i++ {
		tx := r.Begin()
		store.CounterAt(tx, key).Add(1)
		tx.Commit()
	}
	return out
}

// rawSend dials the node and writes pre-encoded frames on one connection.
func rawSend(t *testing.T, addr string, frames ...[]byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, f := range frames {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(f)))
		if _, err := conn.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	// Keep the connection open briefly so the receiver reads everything
	// before EOF tears the handler down.
	time.Sleep(10 * time.Millisecond)
}

func encodeBatch(t *testing.T, txns ...store.WireTxn) []byte {
	t.Helper()
	data, err := store.EncodeBatchV2(txns)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestBatchesOutOfCausalOrder hand-delivers batch frames in reverse
// order across separate connections: nothing may apply until the causal
// prefix arrives, and a withheld ("dropped") batch must block its
// dependents without corrupting state.
func TestBatchesOutOfCausalOrder(t *testing.T) {
	n, err := NewNode("n", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	txns := captureTxns("x", "c", 3)
	if len(txns) != 3 {
		t.Fatalf("captured %d txns", len(txns))
	}

	// Deliver txn3, then txn2 — txn1 is withheld (a dropped batch).
	rawSend(t, n.Addr(), encodeBatch(t, txns[2]))
	rawSend(t, n.Addr(), encodeBatch(t, txns[1]))
	waitUntil(t, "out-of-order batches queued", func() bool { return n.Pending() == 2 })
	if got := n.Clock().Get("x"); got != 0 {
		t.Fatalf("applied ahead of causal order: clock[x] = %d", got)
	}
	if v := counterValue(n, "c"); v != 0 {
		t.Fatalf("counter = %d before causal prefix arrived", v)
	}

	// A duplicate of txn2 while still undeliverable must not wedge the
	// queue once the prefix arrives: the reorder buffer detects it on
	// arrival and drops it without holding it pending.
	rawSend(t, n.Addr(), encodeBatch(t, txns[1]))
	waitUntil(t, "duplicate dropped", func() bool {
		_, dups := n.Replica().DeliveryStats()
		return dups == 1 && n.Pending() == 2
	})

	// The missing batch arrives last: everything drains in causal order.
	rawSend(t, n.Addr(), encodeBatch(t, txns[0]))
	waitUntil(t, "drain after prefix", func() bool {
		return n.Clock().Get("x") == 3 && n.Pending() == 0
	})
	if v := counterValue(n, "c"); v != 3 {
		t.Fatalf("counter = %d after drain, want 3 (duplicate applied?)", v)
	}
	_, dups := n.Replica().DeliveryStats()
	if dups != 1 {
		t.Fatalf("TxnsDuplicate = %d, want 1", dups)
	}
}

// TestCorruptFrameDropsConnectionOnly sends garbage, then a frame of the
// retired v1 gob format, then a valid frame on a fresh connection: the
// receiver must drop each bad stream without acknowledging it, apply
// nothing from it, and keep serving new ones.
func TestCorruptFrameDropsConnectionOnly(t *testing.T) {
	n, err := NewNode("n", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	rawSend(t, n.Addr(), []byte("this is not a frame"))
	txns := captureTxns("x", "c", 1)

	// A v1 frame, as a pre-v2 sender wrote it: "IPAB\x01" + a gob batch.
	gob.Register(crdt.CounterOp{})
	var v1 bytes.Buffer
	v1.WriteString("IPAB\x01")
	if err := gob.NewEncoder(&v1).Encode(struct{ Txns []store.WireTxn }{txns}); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, v1.Bytes()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var reply [4]byte
	if got, err := io.ReadFull(conn, reply[:]); err == nil || got > 0 {
		t.Fatalf("v1 frame answered with %d bytes (%q, err %v); want the connection dropped without an ack", got, reply[:got], err)
	}
	if got := n.Clock().Get("x"); got != 0 {
		t.Fatalf("v1 frame applied: clock[x] = %d", got)
	}

	rawSend(t, n.Addr(), encodeBatch(t, txns[0]))
	waitUntil(t, "valid frame after corrupt streams", func() bool {
		return n.Clock().Get("x") == 1
	})
}

// TestCleanShutdownFlushesQueue closes a node while its outbound log still
// holds unsent commits: Close must drain everything to the live peer
// before returning, dropping nothing.
func TestCleanShutdownFlushesQueue(t *testing.T) {
	// A huge flush interval guarantees the log is non-empty at Close:
	// the sender is still sitting in its coalescing window.
	// 200 commits stay below maxBatchTxns, so nothing fills a batch.
	cfg := Config{FlushInterval: time.Minute}
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.AddPeer("b", b.Addr())

	commitN(a, "c", 200)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.TxnsDropped != 0 {
		t.Fatalf("clean shutdown dropped %d txns", s.TxnsDropped)
	}
	if s.TxnsSent != 200 || s.QueueDepth != 0 {
		t.Fatalf("after drain: %+v", s)
	}
	waitUntil(t, "all txns delivered", func() bool { return counterValue(b, "c") == 200 })
}

// TestShutdownAbandonsUnreachablePeer bounds Close when a peer never
// comes up: the drain deadline must expire, what the peer lacks is
// dropped and counted, and Close returns promptly.
func TestShutdownAbandonsUnreachablePeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	cfg := Config{
		BackoffMin:   time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
		DrainTimeout: 50 * time.Millisecond,
	}
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("dead", deadAddr)
	commitN(a, "c", 5)

	start := time.Now()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v with an unreachable peer", elapsed)
	}
	if s := a.Stats(); s.TxnsDropped != 5 {
		t.Fatalf("TxnsDropped = %d, want 5 (stats: %+v)", s.TxnsDropped, s)
	}
}

// TestCommitsContinueWhilePeerPartitioned pins availability under
// partition: with the default config and its only peer refusing every
// frame, a node keeps committing far past QueueCap, a read transaction
// started mid-run finishes at once, and after the heal the peer converges
// and the outbound log is empty again. It logs the heap the log retains
// per commit while the peer is cut off.
func TestCommitsContinueWhilePeerPartitioned(t *testing.T) {
	a, err := NewNode("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	defer a.Close()
	b.BlockOrigin("a", true)
	a.AddPeer("b", b.Addr())

	total := 3 * QueueCap
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var committed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			commitN(a, "c", 1)
			committed.Add(1)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for committed.Load() < int64(total/2) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d commits within 10 s while the peer refuses frames", committed.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	read := make(chan int64, 1)
	go func() { read <- counterValue(a, "c") }()
	select {
	case <-read:
	case <-time.After(100 * time.Millisecond):
		t.Fatalf("a read started after %d commits did not finish within 100 ms", committed.Load())
	}
	select {
	case <-done:
	case <-time.After(time.Until(deadline)):
		t.Fatalf("%d of %d commits within 10 s while the peer refuses frames", committed.Load(), total)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if depth := a.Stats().QueueDepth; depth != total {
		t.Fatalf("QueueDepth = %d while partitioned, want %d", depth, total)
	}
	t.Logf("partitioned: %d commits retained, heap %+d B per commit",
		total, (int64(after.HeapAlloc)-int64(before.HeapAlloc))/int64(total))

	b.BlockOrigin("a", false)
	deadline = time.Now().Add(30 * time.Second)
	for counterValue(b, "c") != int64(total) || a.Stats().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("after heal: b counter %d, want %d; a %s", counterValue(b, "c"), total, a.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if got := counterValue(a, "c"); got != int64(total) {
		t.Fatalf("a counter = %d, want %d", got, total)
	}
}

// TestUnackedFrameRetries pins the acknowledged-delivery contract: a
// frame written successfully to a peer that dies before confirming it is
// NOT counted sent — the sender must treat the missing ack as a failure
// and retry the batch on a fresh connection. (A write reaching a kernel
// buffer proves nothing; TestConcurrentClientsUnderChurnAndPause hits
// this under connection churn.)
func TestUnackedFrameRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var mu sync.Mutex
	framesSwallowed, framesAcked := 0, 0
	go func() {
		first := true
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if first {
				// Swallow the frame and die without acking: the bytes
				// were "successfully written" by the sender and are gone.
				first = false
				go func(c net.Conn) {
					defer c.Close()
					if _, err := readFrame(c, new([]byte), maxFrame); err == nil {
						mu.Lock()
						framesSwallowed++
						mu.Unlock()
					}
				}(conn)
				continue
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					if _, err := readFrame(c, new([]byte), maxFrame); err != nil {
						return
					}
					mu.Lock()
					framesAcked++
					mu.Unlock()
					if err := writeAck(c); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	cfg := Config{
		BackoffMin: time.Millisecond,
		BackoffMax: 10 * time.Millisecond,
	}
	a, err := NewNodeWithConfig("a", "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.AddPeer("b", ln.Addr().String())

	commitN(a, "k", 7)
	// The commits may split across several batch frames; wait for every
	// transaction to be acknowledged, not just the first frame.
	waitUntil(t, "acked delivery after a swallowed frame", func() bool {
		return a.Stats().TxnsSent >= 7
	})
	s := a.Stats()
	if s.TxnsSent != 7 {
		t.Fatalf("TxnsSent = %d, want 7 (every txn acked exactly once)", s.TxnsSent)
	}
	if s.SendErrors == 0 {
		t.Fatal("the swallowed (unacked) frame was not counted as a send error")
	}
	mu.Lock()
	defer mu.Unlock()
	if framesSwallowed != 1 || framesAcked < 1 {
		t.Fatalf("swallowed=%d acked=%d, want exactly 1 swallowed and >=1 acked", framesSwallowed, framesAcked)
	}
}

// TestReceiveBoundWithholdsAck pins the receive-side bound. A stream
// whose head waits on another origin's transaction may hold only QueueCap
// transactions at the receiver: the frame that brings the backlog to
// QueueCap goes unacknowledged, so the sender stops sending until the
// dependency arrives. Transactions behind a FIFO gap in their own origin's
// order are exempt, because the gap-filler comes on the same stream and
// withholding the ack could keep it out forever. Frames carry
// maxBatchTxns transactions each, as a sender's full batches do.
func TestReceiveBoundWithholdsAck(t *testing.T) {
	dial := func(t *testing.T, n *Node) net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	// sendAcked writes ws in full-batch frames, each acknowledged.
	sendAcked := func(t *testing.T, conn net.Conn, ws []store.WireTxn) {
		t.Helper()
		for len(ws) > 0 {
			k := min(len(ws), maxBatchTxns)
			if err := writeFrame(conn, encodeBatch(t, ws[:k]...)); err != nil {
				t.Fatal(err)
			}
			if err := readAck(conn, time.Now().Add(5*time.Second)); err != nil {
				t.Fatalf("frame of %d txns not acked: %v", k, err)
			}
			ws = ws[k:]
		}
	}

	t.Run("dependency", func(t *testing.T) {
		n, err := NewNode("n", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		xs := captureTxns("x", "cx", 1)
		ys := captureTxns("y", "cy", QueueCap+2)
		ys[0].Deps.Set("x", xs[0].LastSeq)

		// Below the bound every frame is acked; the frame that reaches
		// QueueCap is not.
		conn := dial(t, n)
		bound := QueueCap - maxBatchTxns
		sendAcked(t, conn, ys[:bound])
		if err := writeFrame(conn, encodeBatch(t, ys[bound:QueueCap]...)); err != nil {
			t.Fatal(err)
		}
		err = readAck(conn, time.Now().Add(100*time.Millisecond))
		if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
			t.Fatalf("frame reaching QueueCap while its head waits on x: ack error %v, want a timeout", err)
		}
		if got := n.Clock().Get("y"); got != 0 {
			t.Fatalf("applied ahead of the dependency: clock[y] = %d", got)
		}

		rawSend(t, n.Addr(), encodeBatch(t, xs[0]))
		if err := readAck(conn, time.Now().Add(5*time.Second)); err != nil {
			t.Fatalf("withheld ack never came after x arrived: %v", err)
		}
		sendAcked(t, conn, ys[QueueCap:])
		waitUntil(t, "everything applies", func() bool {
			return n.Clock().Get("y") == ys[len(ys)-1].LastSeq && n.Pending() == 0
		})
		if v := counterValue(n, "cy"); v != int64(len(ys)) {
			t.Fatalf("cy = %d, want %d", v, len(ys))
		}
	})

	t.Run("gap", func(t *testing.T) {
		n, err := NewNode("n", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		ys := captureTxns("y", "cy", QueueCap+3)

		conn := dial(t, n)
		sendAcked(t, conn, ys[1:]) // past QueueCap, all behind a FIFO gap
		if got := n.Pending(); got != len(ys)-1 {
			t.Fatalf("pending = %d behind the gap, want %d", got, len(ys)-1)
		}
		sendAcked(t, conn, ys[:1])
		waitUntil(t, "everything applies", func() bool {
			return n.Clock().Get("y") == ys[len(ys)-1].LastSeq && n.Pending() == 0
		})
	})
}
