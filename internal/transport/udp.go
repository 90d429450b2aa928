package transport

import (
	"errors"
	"fmt"
	"net"

	"github.com/agilla-go/agilla/internal/wire"
)

// The UDP transport: one socket per endpoint, a reader goroutine that
// decodes datagrams into the inbox, and one sender goroutine per dialed
// peer draining a bounded queue of coalesced batches. UDP is the right
// first wire for this middleware because it has the same failure model
// the radio already has — loss, reordering, duplication — and every
// protocol above (hop-by-hop migration acks, remote-op retransmission,
// anti-entropy gossip) was built to survive exactly that.
//
// One datagram carries one wire.Batch of frames (MTU-bounded by the
// coalescer), amortizing the header and the syscall across the batch.
// Any datagram the batch decoder rejects increments the sender's
// malformed counter and is otherwise ignored. The inbox, counters, send
// admission and peer registration are the shared endpoint's; this file
// holds only the socket, datagram attribution and the two loops.

// udpReadBuf is sized past any legal batch the coalescer emits, which
// includes a batch of one frame at the 64 KiB payload bound.
const udpReadBuf = 1 << 16 * 2

// UDP is a socket-backed Transport. Construct with NewUDP (or Open with a
// "udp:" address).
type UDP struct {
	endpoint
	conn   *net.UDPConn    // bound at Listen
	byWire map[string]Addr // resolved remote addr -> dialed Addr, for attribution; guarded by mu
}

// NewUDP creates an endpoint bound to addr ("udp:host:port") at Listen.
func NewUDP(addr Addr) *UDP {
	return &UDP{endpoint: newEndpoint(addr), byWire: make(map[string]Addr)}
}

// Listen binds the socket and starts the reader.
func (u *UDP) Listen() error {
	hp, err := stripScheme("udp", u.addr)
	if err != nil {
		return err
	}
	laddr, err := net.ResolveUDPAddr("udp", hp)
	if err != nil {
		return fmt.Errorf("transport: resolve %q: %v", u.addr, err)
	}
	if err := u.idle(); err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return fmt.Errorf("transport: listen %q: %v", u.addr, err)
	}
	// Ask for generous socket buffers (the kernel clamps to its limits;
	// best effort): frame bursts — a migration's message train, a gossip
	// round — otherwise overrun the default receive buffer.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	u.mu.Lock()
	u.conn = conn
	u.openLocked()
	u.mu.Unlock()
	u.wg.Add(1)
	go u.readLoop(conn)
	return nil
}

// readLoop decodes datagrams into the inbox until the socket closes.
func (u *UDP) readLoop(conn *net.UDPConn) {
	defer u.wg.Done()
	buf := make([]byte, udpReadBuf)
	var scratch []wire.Frame
	for {
		n, raddr, err := conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		from := u.attribute(raddr)
		// One copy per datagram: the decoded payloads alias it, and the
		// inbox outlives the read buffer.
		data := append([]byte(nil), buf[:n]...)
		var derr error
		scratch, derr = wire.DecodeBatchAppend(scratch[:0], data)
		if derr != nil {
			u.malformed(from)
			continue
		}
		if !u.receive(from, scratch, n) {
			return
		}
	}
}

// attribute maps a datagram's source address back to the dialed Addr when
// one matches, so send and receive counters share a key.
func (u *UDP) attribute(raddr *net.UDPAddr) Addr {
	s := raddr.String()
	u.mu.Lock()
	defer u.mu.Unlock()
	if a, ok := u.byWire[s]; ok {
		return a
	}
	return Addr("udp:" + s)
}

// Dial resolves the peer and registers it, starting its sender
// goroutine. Idempotent.
func (u *UDP) Dial(addr Addr) error {
	hp, err := stripScheme("udp", addr)
	if err != nil {
		return err
	}
	raddr, err := net.ResolveUDPAddr("udp", hp)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %q: %v", addr, err)
	}
	return u.dial(addr, func(p *peer) {
		u.byWire[raddr.String()] = addr
		u.wg.Add(1)
		go u.sendLoop(u.conn, raddr, p, u.done)
	})
}

// sendLoop writes one peer's sealed batches onto the socket until Close.
func (u *UDP) sendLoop(conn *net.UDPConn, raddr *net.UDPAddr, p *peer, done chan struct{}) {
	defer u.wg.Done()
	for {
		select {
		case <-done:
			return
		case ob := <-p.co.out:
			_, err := conn.WriteToUDP(ob.bytes, raddr)
			closed := u.wrote(p.st, len(ob.bytes), err, 0)
			wire.PutBatchWriter(ob.w)
			if err != nil && (closed || errors.Is(err, net.ErrClosed)) {
				return
			}
		}
	}
}

// LocalAddr returns the bound address ("udp:host:port" with the kernel's
// chosen port after Listen when the configured port was 0).
func (u *UDP) LocalAddr() Addr {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.conn != nil {
		return Addr("udp:" + u.conn.LocalAddr().String())
	}
	return u.addr
}

// Close shuts the socket and the per-peer senders down and waits for
// their goroutines.
func (u *UDP) Close() error {
	return u.shutdown(func() error { return u.conn.Close() })
}
