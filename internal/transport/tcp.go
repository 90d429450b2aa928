package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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
//
// The inbox, counters, send admission and peer registration are the
// shared endpoint's; this file holds only the listener, the accept and
// read loops, the record framing and the per-peer sender.

const (
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
// a "tcp:" address).
type TCP struct {
	endpoint
	ln    net.Listener      // bound at Listen
	conns map[net.Conn]bool // accepted connections, for Close; guarded by mu
}

// NewTCP creates an endpoint bound to addr ("tcp:host:port") at Listen.
func NewTCP(addr Addr) *TCP {
	return &TCP{endpoint: newEndpoint(addr), conns: make(map[net.Conn]bool)}
}

// Listen binds the listener and starts the accept loop.
func (t *TCP) Listen() error {
	hp, err := stripScheme("tcp", t.addr)
	if err != nil {
		return err
	}
	if err := t.idle(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", hp)
	if err != nil {
		return fmt.Errorf("transport: listen %q: %v", t.addr, err)
	}
	t.mu.Lock()
	t.ln = ln
	t.openLocked()
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
				t.malformed(from)
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
			t.malformed(from)
			return
		}
		if !t.receive(from, scratch, 4+len(data)) {
			return
		}
	}
}

// Dial registers the peer and starts its sender goroutine; the
// connection itself is established lazily (and re-established after
// errors), so dialing a peer that has not started yet succeeds and
// traffic flows once it does. Idempotent.
func (t *TCP) Dial(addr Addr) error {
	hp, err := stripScheme("tcp", addr)
	if err != nil {
		return err
	}
	if _, _, err := net.SplitHostPort(hp); err != nil {
		return fmt.Errorf("transport: peer %q: %v", addr, err)
	}
	return t.dial(addr, func(p *peer) {
		t.wg.Add(1)
		go t.sendLoop(hp, p, t.done)
	})
}

// connect opens the outbound connection and introduces this endpoint
// with a hello record.
func (t *TCP) connect(hostPort string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", hostPort, tcpDialTimeout)
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
func (t *TCP) sendLoop(hostPort string, p *peer, done chan struct{}) {
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
					t.drop(p.st, ob.frames)
					wire.PutBatchWriter(ob.w)
					continue
				}
				lastDial = time.Now()
				c, err := t.connect(hostPort)
				if err != nil {
					t.wrote(p.st, 0, err, ob.frames)
					wire.PutBatchWriter(ob.w)
					continue
				}
				conn = c
			}
			err := writeRecord(conn, ob.bytes)
			closed := t.wrote(p.st, 4+len(ob.bytes), err, ob.frames)
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

// Close shuts the listener, every connection, and the per-peer senders
// down and waits for their goroutines.
func (t *TCP) Close() error {
	return t.shutdown(func() error {
		t.mu.Lock()
		conns := t.conns
		t.conns = make(map[net.Conn]bool)
		t.mu.Unlock()
		err := t.ln.Close()
		for conn := range conns {
			conn.Close()
		}
		return err
	})
}
