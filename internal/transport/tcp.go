package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"github.com/agilla-go/agilla/internal/wire"
)

// The TCP transport: the lossless stream wire for inter-shard links.
// Where UDP mirrors the radio's failure model (loss, reordering,
// duplication) and leans on the protocols above to recover, TCP gives a
// border link that never drops or reorders in flight — the right wire
// when two shards sit in one rack and retransmission latency costs more
// than it buys.
//
// Stream layout: a sequence of length-prefixed records, each a 4-byte
// big-endian length followed by that many bytes. The first record a
// dialer writes is a hello naming its own listen address, so the
// acceptor can attribute inbound traffic to the dialed peer address
// (the TCP source port of an outbound connection is ephemeral and names
// nothing). Every later record is one wire.Batch. The batch's own CRC
// guards record integrity; the length prefix only frames the
// stream. A record that fails to decode means the stream is corrupt or
// hostile: it is counted malformed and the connection is dropped —
// unlike UDP there is no datagram boundary to resynchronize on.
//
// Each dialed peer gets one outbound connection owned by its sender
// goroutine, established lazily and re-established on error with a
// backoff, so a peer that starts late or restarts is picked up without
// any external supervision; batches sealed while the link is down fall
// to the drop-oldest queue discipline like any overflow. Nagle is
// disabled (SetNoDelay) — the coalescer already decides what a write
// is, and stacking the kernel's own batching delay on top of our linger
// would double-charge latency.

const (
	// tcpQueueCap bounds each peer's queue of sealed batches, same
	// drop-oldest discipline as UDP.
	tcpQueueCap = 256
	// tcpMaxRecord bounds a length prefix before any allocation: far
	// past the biggest legal batch, small enough to reject absurdity.
	tcpMaxRecord = 1 << 20
	// tcpRedialBackoff spaces reconnect attempts to a dead peer.
	tcpRedialBackoff = 50 * time.Millisecond
	// tcpDialTimeout bounds one connect attempt so a sender goroutine
	// never wedges on an unroutable peer.
	tcpDialTimeout = 2 * time.Second
)

// tcpHelloMagic opens the first record on every outbound connection,
// followed by the dialer's scheme-prefixed listen address.
var tcpHelloMagic = []byte("AGH1")

// TCP is a stream-socket Transport. Construct with NewTCP (or Open with
// a "tcp:" address). Batching may be tuned before Listen; the zero
// value means the package defaults.
type TCP struct {
	addr Addr // as configured, "tcp:host:port"

	// Batch tunes per-peer frame coalescing; set before Listen.
	Batch Batching

	mu    sync.Mutex
	ln    net.Listener
	done  chan struct{}
	live  bool
	inbox []inFrame
	lost  uint64
	stats map[Addr]*PeerStats
	peers map[Addr]*tcpPeer
	conns map[net.Conn]bool // accepted connections, for Close
	wg    sync.WaitGroup
}

// tcpPeer is one dialed destination: its host:port and the coalescer
// its sender goroutine drains. The goroutine owns the outbound
// connection and its lifecycle.
type tcpPeer struct {
	hostPort string
	co       *coalescer
}

// NewTCP creates an endpoint bound to addr ("tcp:host:port") at Listen.
func NewTCP(addr Addr) *TCP {
	return &TCP{
		addr:  addr,
		stats: make(map[Addr]*PeerStats),
		peers: make(map[Addr]*tcpPeer),
		conns: make(map[net.Conn]bool),
	}
}

// tcpHostPort strips the "tcp:" scheme.
func tcpHostPort(addr Addr) (string, error) {
	s := string(addr)
	if !strings.HasPrefix(s, "tcp:") {
		return "", fmt.Errorf("transport: %q is not a tcp address", addr)
	}
	return s[len("tcp:"):], nil
}

// Listen binds the listener and starts the accept loop.
func (t *TCP) Listen() error {
	hp, err := tcpHostPort(t.addr)
	if err != nil {
		return err
	}
	t.mu.Lock()
	if t.live {
		t.mu.Unlock()
		return fmt.Errorf("transport: %q is already listening", t.addr)
	}
	t.mu.Unlock()
	ln, err := net.Listen("tcp", hp)
	if err != nil {
		return fmt.Errorf("transport: listen %q: %v", t.addr, err)
	}
	t.mu.Lock()
	t.ln = ln
	t.done = make(chan struct{})
	t.live = true
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln)
	return nil
}

// acceptLoop hands each inbound connection to a reader goroutine.
func (t *TCP) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		t.mu.Lock()
		if !t.live {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = true
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// dropConn unregisters and closes an accepted connection.
func (t *TCP) dropConn(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
	conn.Close()
}

// readRecord reads one length-prefixed record. The returned slice is
// freshly allocated per record: decoded payloads alias it and the inbox
// outlives any shared buffer.
func readRecord(r io.Reader, lenBuf []byte) ([]byte, error) {
	if _, err := io.ReadFull(r, lenBuf[:4]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:4])
	if n == 0 || n > tcpMaxRecord {
		return nil, fmt.Errorf("%w: tcp record length %d", wire.ErrBadMessage, n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// readLoop decodes one accepted connection's records into the inbox
// until the stream ends or corrupts.
func (t *TCP) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.dropConn(conn)
	// Until a hello arrives, attribute to the wire-level remote address.
	from := Addr("tcp:" + conn.RemoteAddr().String())
	var lenBuf [4]byte
	var scratch []wire.Frame
	for {
		data, err := readRecord(conn, lenBuf[:])
		if err != nil {
			if errors.Is(err, wire.ErrBadMessage) {
				t.countMalformed(from)
			}
			return
		}
		if len(data) >= len(tcpHelloMagic) && string(data[:len(tcpHelloMagic)]) == string(tcpHelloMagic) {
			from = Addr(data[len(tcpHelloMagic):])
			continue
		}
		var derr error
		scratch, derr = wire.DecodeBatchAppend(scratch[:0], data)
		if derr != nil {
			// A corrupt record poisons the framing; drop the stream. The
			// dialer reconnects and resumes from a clean boundary.
			t.countMalformed(from)
			return
		}
		t.mu.Lock()
		if !t.live {
			t.mu.Unlock()
			return
		}
		st := t.peerStats(from)
		st.Recv += uint64(len(scratch))
		st.RecvBytes += uint64(4 + len(data))
		for _, f := range scratch {
			if len(t.inbox) >= inboxCap {
				t.inbox = t.inbox[1:]
				t.lost++
			}
			t.inbox = append(t.inbox, inFrame{from: from, f: f})
		}
		t.mu.Unlock()
	}
}

// countMalformed charges one rejected record to a peer.
func (t *TCP) countMalformed(from Addr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.live {
		return
	}
	t.peerStats(from).Malformed++
}

// Dial registers the peer, builds its coalescer, and starts its sender
// goroutine; the connection itself is established lazily (and
// re-established after errors), so dialing a peer that has not started
// yet succeeds and traffic flows once it does. Idempotent.
func (t *TCP) Dial(addr Addr) error {
	hp, err := tcpHostPort(addr)
	if err != nil {
		return err
	}
	if _, _, err := net.SplitHostPort(hp); err != nil {
		return fmt.Errorf("transport: peer %q: %v", addr, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.live {
		return fmt.Errorf("transport: %q is not listening", t.addr)
	}
	if _, ok := t.peers[addr]; ok {
		return nil
	}
	st := t.peerStats(addr)
	p := &tcpPeer{
		hostPort: hp,
		co: newCoalescer(t.Batch, tcpQueueCap, func(frames int) {
			t.mu.Lock()
			st.Dropped += uint64(frames)
			t.mu.Unlock()
		}),
	}
	t.peers[addr] = p
	t.wg.Add(1)
	go t.sendLoop(p, st, t.done)
	return nil
}

// connect opens the outbound connection and introduces this endpoint
// with a hello record.
func (t *TCP) connect(p *tcpPeer) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", p.hostPort, tcpDialTimeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		// The coalescer is our Nagle; the kernel's would stack a second
		// delay on every partial batch.
		_ = tc.SetNoDelay(true)
		_ = tc.SetWriteBuffer(4 << 20)
		_ = tc.SetReadBuffer(4 << 20)
	}
	hello := append(append([]byte(nil), tcpHelloMagic...), []byte(t.LocalAddr())...)
	if err := writeRecord(conn, hello); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// writeRecord writes one length-prefixed record as a single vectored
// write (one syscall for prefix plus body).
func writeRecord(conn net.Conn, b []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(b)))
	bufs := net.Buffers{lenBuf[:], b}
	_, err := bufs.WriteTo(conn)
	return err
}

// sendLoop writes one peer's sealed batches onto its connection,
// connecting and reconnecting as needed, until Close.
func (t *TCP) sendLoop(p *tcpPeer, st *PeerStats, done chan struct{}) {
	defer t.wg.Done()
	var conn net.Conn
	var lastDial time.Time
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-done:
			return
		case ob := <-p.co.out:
			if conn == nil {
				// Rate-limit reconnects: inside the backoff window the
				// batch is dropped, the queue discipline in miniature.
				if since := time.Since(lastDial); since < tcpRedialBackoff {
					t.countDropped(st, ob.frames)
					wire.PutBatchWriter(ob.w)
					continue
				}
				lastDial = time.Now()
				c, err := t.connect(p)
				if err != nil {
					t.countSendErr(st)
					t.countDropped(st, ob.frames)
					wire.PutBatchWriter(ob.w)
					continue
				}
				conn = c
			}
			err := writeRecord(conn, ob.bytes)
			t.mu.Lock()
			if err != nil {
				st.SendErrs++
				st.Dropped += uint64(ob.frames)
			} else {
				st.Batches++
				st.SentBytes += uint64(4 + len(ob.bytes))
			}
			closed := !t.live
			t.mu.Unlock()
			wire.PutBatchWriter(ob.w)
			if err != nil {
				conn.Close()
				conn = nil
				if closed || errors.Is(err, net.ErrClosed) {
					return
				}
			}
		}
	}
}

// countSendErr charges one connect/write failure.
func (t *TCP) countSendErr(st *PeerStats) {
	t.mu.Lock()
	st.SendErrs++
	t.mu.Unlock()
}

// countDropped charges frames lost with a discarded batch.
func (t *TCP) countDropped(st *PeerStats, frames int) {
	t.mu.Lock()
	st.Dropped += uint64(frames)
	t.mu.Unlock()
}

// Send queues one frame toward a dialed peer without blocking: the
// frame joins the peer's pending batch, and a full batch queue drops
// its oldest batch to admit the new one.
func (t *TCP) Send(addr Addr, f wire.Frame) error {
	if len(f.Payload) > wire.MaxFramePayload {
		return fmt.Errorf("%w: frame payload %d bytes (max %d)", wire.ErrBadMessage, len(f.Payload), wire.MaxFramePayload)
	}
	t.mu.Lock()
	if !t.live {
		t.mu.Unlock()
		return fmt.Errorf("transport: %q is closed", t.addr)
	}
	p, ok := t.peers[addr]
	st := t.peerStats(addr)
	if !ok {
		st.SendErrs++
		t.mu.Unlock()
		return fmt.Errorf("transport: peer %q not dialed", addr)
	}
	st.Sent++
	t.mu.Unlock()
	p.co.add(f)
	return nil
}

// Flush seals every peer's pending batch so nothing waits out the
// linger timer.
func (t *TCP) Flush() {
	t.mu.Lock()
	peers := make([]*tcpPeer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, p := range peers {
		p.co.flush()
	}
}

// Recv pops the oldest received frame, non-blocking.
func (t *TCP) Recv() (Addr, wire.Frame, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.inbox) == 0 {
		return "", wire.Frame{}, false
	}
	in := t.inbox[0]
	t.inbox = t.inbox[1:]
	return in.from, in.f, true
}

// LocalAddr returns the bound address ("tcp:host:port" with the
// kernel's chosen port after Listen when the configured port was 0).
func (t *TCP) LocalAddr() Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ln != nil {
		return Addr("tcp:" + t.ln.Addr().String())
	}
	return t.addr
}

// Stats snapshots per-peer counters.
func (t *TCP) Stats() map[Addr]PeerStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Addr]PeerStats, len(t.stats))
	for a, s := range t.stats {
		out[a] = *s
	}
	return out
}

// Close shuts the listener, every connection, and the per-peer senders
// down and waits for their goroutines.
func (t *TCP) Close() error {
	t.mu.Lock()
	if !t.live {
		t.mu.Unlock()
		return nil
	}
	t.live = false
	ln := t.ln
	done := t.done
	peers := t.peers
	conns := t.conns
	t.peers = make(map[Addr]*tcpPeer)
	t.conns = make(map[net.Conn]bool)
	t.inbox = nil
	t.mu.Unlock()
	for _, p := range peers {
		p.co.close()
	}
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for conn := range conns {
		conn.Close()
	}
	if done != nil {
		close(done)
	}
	t.wg.Wait()
	return err
}

// peerStats returns the counter cell for addr; callers hold t.mu.
func (t *TCP) peerStats(addr Addr) *PeerStats {
	st, ok := t.stats[addr]
	if !ok {
		st = &PeerStats{}
		t.stats[addr] = st
	}
	return st
}
