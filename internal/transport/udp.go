package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

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
// malformed counter and is otherwise ignored.

// udpQueueCap bounds each peer's queue of sealed batches. When the
// queue is full the oldest batch is dropped (drop-oldest): for this
// traffic, new frames carry newer protocol state and retransmission
// regenerates old ones, so head drop beats tail drop and either beats
// blocking the simulation.
const udpQueueCap = 256

// udpReadBuf is sized past any legal batch the coalescer emits, which
// includes a batch of one frame at the 64 KiB payload bound.
const udpReadBuf = 1 << 16 * 2

// UDP is a socket-backed Transport. Construct with NewUDP (or Open with a
// "udp:" address). Batching may be tuned before Listen; the zero value
// means the package defaults.
type UDP struct {
	addr Addr // as configured, "udp:host:port"

	// Batch tunes per-peer frame coalescing; set before Listen.
	Batch Batching

	mu     sync.Mutex
	conn   *net.UDPConn
	done   chan struct{} // closed by Close; stops sender goroutines
	live   bool
	inbox  []inFrame
	lost   uint64
	stats  map[Addr]*PeerStats
	peers  map[Addr]*udpPeer
	byWire map[string]Addr // resolved remote addr -> dialed Addr, for attribution
	wg     sync.WaitGroup
}

// udpPeer is one dialed destination: its resolved address and the
// coalescer its sender goroutine drains.
type udpPeer struct {
	raddr *net.UDPAddr
	co    *coalescer
}

// NewUDP creates an endpoint bound to addr ("udp:host:port") at Listen.
func NewUDP(addr Addr) *UDP {
	return &UDP{
		addr:   addr,
		stats:  make(map[Addr]*PeerStats),
		peers:  make(map[Addr]*udpPeer),
		byWire: make(map[string]Addr),
	}
}

// hostPort strips the "udp:" scheme.
func hostPort(addr Addr) (string, error) {
	s := string(addr)
	if !strings.HasPrefix(s, "udp:") {
		return "", fmt.Errorf("transport: %q is not a udp address", addr)
	}
	return s[len("udp:"):], nil
}

// Listen binds the socket and starts the reader.
func (u *UDP) Listen() error {
	hp, err := hostPort(u.addr)
	if err != nil {
		return err
	}
	laddr, err := net.ResolveUDPAddr("udp", hp)
	if err != nil {
		return fmt.Errorf("transport: resolve %q: %v", u.addr, err)
	}
	u.mu.Lock()
	if u.live {
		u.mu.Unlock()
		return fmt.Errorf("transport: %q is already listening", u.addr)
	}
	u.mu.Unlock()
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
	u.done = make(chan struct{})
	u.live = true
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
		u.mu.Lock()
		if !u.live {
			u.mu.Unlock()
			return
		}
		st := u.peerStats(from)
		if derr != nil {
			st.Malformed++
			u.mu.Unlock()
			continue
		}
		st.Recv += uint64(len(scratch))
		st.RecvBytes += uint64(n)
		for _, f := range scratch {
			if len(u.inbox) >= inboxCap {
				u.inbox = u.inbox[1:]
				u.lost++
			}
			u.inbox = append(u.inbox, inFrame{from: from, f: f})
		}
		u.mu.Unlock()
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

// Dial resolves the peer, builds its coalescer, and starts its sender
// goroutine. Idempotent.
func (u *UDP) Dial(addr Addr) error {
	hp, err := hostPort(addr)
	if err != nil {
		return err
	}
	raddr, err := net.ResolveUDPAddr("udp", hp)
	if err != nil {
		return fmt.Errorf("transport: resolve peer %q: %v", addr, err)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if !u.live {
		return fmt.Errorf("transport: %q is not listening", u.addr)
	}
	if _, ok := u.peers[addr]; ok {
		return nil
	}
	st := u.peerStats(addr)
	p := &udpPeer{
		raddr: raddr,
		co: newCoalescer(u.Batch, udpQueueCap, func(frames int) {
			// Runs under the coalescer's lock; u.mu nests inside (see
			// coalescer lock-order note).
			u.mu.Lock()
			st.Dropped += uint64(frames)
			u.mu.Unlock()
		}),
	}
	u.peers[addr] = p
	u.byWire[raddr.String()] = addr
	conn := u.conn
	u.wg.Add(1)
	go u.sendLoop(conn, p, st, u.done)
	return nil
}

// sendLoop writes one peer's sealed batches onto the socket until Close.
func (u *UDP) sendLoop(conn *net.UDPConn, p *udpPeer, st *PeerStats, done chan struct{}) {
	defer u.wg.Done()
	for {
		select {
		case <-done:
			return
		case ob := <-p.co.out:
			_, err := conn.WriteToUDP(ob.bytes, p.raddr)
			u.mu.Lock()
			if err != nil {
				st.SendErrs++
			} else {
				st.Batches++
				st.SentBytes += uint64(len(ob.bytes))
			}
			closed := !u.live
			u.mu.Unlock()
			wire.PutBatchWriter(ob.w)
			if err != nil && (closed || errors.Is(err, net.ErrClosed)) {
				return
			}
		}
	}
}

// Send queues one frame toward a dialed peer without blocking: the frame
// joins the peer's pending batch, and a full batch queue drops its
// oldest batch to admit the new one.
func (u *UDP) Send(addr Addr, f wire.Frame) error {
	if len(f.Payload) > wire.MaxFramePayload {
		return fmt.Errorf("%w: frame payload %d bytes (max %d)", wire.ErrBadMessage, len(f.Payload), wire.MaxFramePayload)
	}
	u.mu.Lock()
	if !u.live {
		u.mu.Unlock()
		return fmt.Errorf("transport: %q is closed", u.addr)
	}
	p, ok := u.peers[addr]
	st := u.peerStats(addr)
	if !ok {
		st.SendErrs++
		u.mu.Unlock()
		return fmt.Errorf("transport: peer %q not dialed", addr)
	}
	st.Sent++
	u.mu.Unlock()
	p.co.add(f) // encodes the payload under the coalescer lock; f is not retained
	return nil
}

// Flush seals every peer's pending batch so nothing waits out the
// linger timer. The sealed batches are written asynchronously by the
// sender goroutines.
func (u *UDP) Flush() {
	u.mu.Lock()
	peers := make([]*udpPeer, 0, len(u.peers))
	for _, p := range u.peers {
		peers = append(peers, p)
	}
	u.mu.Unlock()
	for _, p := range peers {
		p.co.flush()
	}
}

// Recv pops the oldest received frame, non-blocking.
func (u *UDP) Recv() (Addr, wire.Frame, bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	if len(u.inbox) == 0 {
		return "", wire.Frame{}, false
	}
	in := u.inbox[0]
	u.inbox = u.inbox[1:]
	return in.from, in.f, true
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

// Stats snapshots per-peer counters.
func (u *UDP) Stats() map[Addr]PeerStats {
	u.mu.Lock()
	defer u.mu.Unlock()
	out := make(map[Addr]PeerStats, len(u.stats))
	for a, s := range u.stats {
		out[a] = *s
	}
	return out
}

// Close shuts the socket and the per-peer senders down and waits for
// their goroutines.
func (u *UDP) Close() error {
	u.mu.Lock()
	if !u.live {
		u.mu.Unlock()
		return nil
	}
	u.live = false
	conn := u.conn
	done := u.done
	peers := u.peers
	u.peers = make(map[Addr]*udpPeer)
	u.inbox = nil
	u.mu.Unlock()
	for _, p := range peers {
		p.co.close()
	}
	var err error
	if conn != nil {
		err = conn.Close()
	}
	if done != nil {
		close(done)
	}
	u.wg.Wait()
	return err
}

// peerStats returns the counter cell for addr; callers hold u.mu.
func (u *UDP) peerStats(addr Addr) *PeerStats {
	st, ok := u.stats[addr]
	if !ok {
		st = &PeerStats{}
		u.stats[addr] = st
	}
	return st
}
