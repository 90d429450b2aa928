package transport

import (
	"fmt"
	"strings"
	"sync"

	"github.com/agilla-go/agilla/internal/wire"
)

// The endpoint every Transport shares. Loopback, UDP and TCP embed it
// and add only their wire code; the endpoint owns the rest of the
// contract: the live flag, the receive inbox and its drop-oldest push,
// the per-peer counters, the checks that admit a Send, peer
// registration, Flush, Recv, Stats and the common part of Close. Keeping
// one copy keeps the three transports' semantics — what they refuse,
// what they count, what they drop — from drifting apart.

// inboxCap bounds every transport's receive inbox; beyond it the oldest
// frame is dropped and counted as its sender's Overflow. Protocol
// retransmission recovers the loss, exactly as it does for radio loss.
const inboxCap = 4096

// inFrame is one received frame awaiting the pump.
type inFrame struct {
	from Addr
	f    wire.Frame
}

// endpoint is the transport-independent half of a Transport. Lock order:
// a coalescer's lock is always taken before mu, never after (the
// coalescer's drop callback takes mu).
type endpoint struct {
	addr  Addr     // as configured, scheme included
	batch batching // per-peer coalescing thresholds; zero means the defaults

	mu    sync.Mutex
	live  bool
	done  chan struct{} // closed by Close; stops sender goroutines
	inbox []inFrame
	stats map[Addr]*PeerStats
	peers map[Addr]*peer
	wg    sync.WaitGroup
}

// peer is one dialed destination: its counter cell and, on UDP and TCP,
// the coalescer its sender goroutine drains. Loopback delivers
// synchronously, so its peers have no coalescer.
type peer struct {
	st *PeerStats
	co *coalescer
}

func newEndpoint(addr Addr) endpoint {
	return endpoint{addr: addr, stats: make(map[Addr]*PeerStats), peers: make(map[Addr]*peer)}
}

// stripScheme returns addr without its "scheme:" prefix, refusing
// addresses of another scheme or with nothing after the prefix.
func stripScheme(scheme string, addr Addr) (string, error) {
	rest, ok := strings.CutPrefix(string(addr), scheme+":")
	if !ok || rest == "" {
		return "", fmt.Errorf("transport: %q is not a %s address", addr, scheme)
	}
	return rest, nil
}

// idle fails if the endpoint is already listening.
func (e *endpoint) idle() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.live {
		return fmt.Errorf("transport: %q is already listening", e.addr)
	}
	return nil
}

// openLocked marks the endpoint live once its wire is bound; callers
// hold mu.
func (e *endpoint) openLocked() {
	e.done = make(chan struct{})
	e.live = true
}

// dial registers a peer, idempotently. start, when non-nil, runs under
// mu for a newly registered peer: the wire transports pass one that
// launches the sender goroutine draining the peer's coalescer. Loopback
// passes nil, and its peers get no coalescer.
func (e *endpoint) dial(addr Addr, start func(p *peer)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.live {
		return fmt.Errorf("transport: %q is not listening", e.addr)
	}
	if _, ok := e.peers[addr]; ok {
		return nil
	}
	p := &peer{st: e.peerStats(addr)}
	if start != nil {
		// The callback runs under the coalescer's lock; mu nests inside.
		p.co = newCoalescer(e.batch, func(frames int) { e.drop(p.st, frames) })
		start(p)
	}
	e.peers[addr] = p
	return nil
}

// admit runs the checks every Send shares — payload size, endpoint
// live, peer dialed — and counts the frame as sent. oneBatch, when
// positive, is the wire size of a frame delivered synchronously as a
// batch of one (Loopback), counted as written in the same step.
func (e *endpoint) admit(addr Addr, f wire.Frame, oneBatch int) (*peer, error) {
	if len(f.Payload) > wire.MaxFramePayload {
		return nil, fmt.Errorf("%w: frame payload %d bytes (max %d)", wire.ErrBadMessage, len(f.Payload), wire.MaxFramePayload)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.live {
		return nil, fmt.Errorf("transport: %q is not listening", e.addr)
	}
	p, ok := e.peers[addr]
	if !ok {
		e.peerStats(addr).SendErrs++
		return nil, fmt.Errorf("transport: peer %q not dialed", addr)
	}
	p.st.Sent++
	if oneBatch > 0 {
		p.st.Batches++
		p.st.SentBytes += uint64(oneBatch)
	}
	return p, nil
}

// Send queues one frame toward a dialed peer without blocking: the frame
// joins the peer's pending batch, and a full batch queue drops its
// oldest batch to admit the new one.
func (e *endpoint) Send(addr Addr, f wire.Frame) error {
	p, err := e.admit(addr, f, 0)
	if err != nil {
		return err
	}
	p.co.add(f) // encodes the payload under the coalescer lock; f is not retained
	return nil
}

// Flush seals every peer's pending batch so nothing waits out the
// linger timer. The sealed batches are written asynchronously by the
// sender goroutines.
func (e *endpoint) Flush() {
	e.mu.Lock()
	var cos []*coalescer
	for _, p := range e.peers {
		if p.co != nil {
			cos = append(cos, p.co)
		}
	}
	e.mu.Unlock()
	for _, co := range cos {
		co.flush()
	}
}

// wrote records the outcome of writing one sealed batch to a peer: n
// wire bytes on success; on failure a send error, plus lost frames
// dropped with the batch. It reports whether the endpoint has closed.
func (e *endpoint) wrote(st *PeerStats, n int, err error, lost int) (closed bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		st.SendErrs++
		st.Dropped += uint64(lost)
	} else {
		st.Batches++
		st.SentBytes += uint64(n)
	}
	return !e.live
}

// drop charges frames discarded before reaching the wire.
func (e *endpoint) drop(st *PeerStats, frames int) {
	e.mu.Lock()
	st.Dropped += uint64(frames)
	e.mu.Unlock()
}

// receive queues the frames of one wire unit of nbytes (a datagram, a
// stream record, a loopback copy) and counts them against the sending
// peer. When the inbox is full the oldest frame is dropped and charged
// to its sender's Overflow. Once the endpoint has closed it queues
// nothing and reports false.
func (e *endpoint) receive(from Addr, frames []wire.Frame, nbytes int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.live {
		return false
	}
	st := e.peerStats(from)
	st.Recv += uint64(len(frames))
	st.RecvBytes += uint64(nbytes)
	for _, f := range frames {
		if len(e.inbox) >= inboxCap {
			e.peerStats(e.inbox[0].from).Overflow++
			e.inbox = e.inbox[1:]
		}
		e.inbox = append(e.inbox, inFrame{from: from, f: f})
	}
	return true
}

// malformed charges one rejected datagram or stream record to a peer.
func (e *endpoint) malformed(from Addr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.live {
		e.peerStats(from).Malformed++
	}
}

// Recv pops the oldest received frame, non-blocking.
func (e *endpoint) Recv() (Addr, wire.Frame, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.inbox) == 0 {
		return "", wire.Frame{}, false
	}
	in := e.inbox[0]
	e.inbox = e.inbox[1:]
	return in.from, in.f, true
}

// Stats snapshots per-peer counters.
func (e *endpoint) Stats() map[Addr]PeerStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Addr]PeerStats, len(e.stats))
	for a, s := range e.stats {
		out[a] = *s
	}
	return out
}

// shutdown runs the part of Close every transport shares: it marks the
// endpoint dead, swaps out the peers, drops the inbox and stops the
// peers' coalescers. Then release, if any, frees the transport's wire
// (its error is Close's), done is closed and every goroutine is waited
// for. Shutting down an endpoint that is not live returns nil.
func (e *endpoint) shutdown(release func() error) error {
	e.mu.Lock()
	if !e.live {
		e.mu.Unlock()
		return nil
	}
	e.live = false
	peers := e.peers
	e.peers = make(map[Addr]*peer)
	e.inbox = nil
	done := e.done
	e.mu.Unlock()
	for _, p := range peers {
		if p.co != nil {
			p.co.close()
		}
	}
	var err error
	if release != nil {
		err = release()
	}
	close(done)
	e.wg.Wait()
	return err
}

// peerStats returns the counter cell for addr; callers hold mu.
func (e *endpoint) peerStats(addr Addr) *PeerStats {
	st, ok := e.stats[addr]
	if !ok {
		st = &PeerStats{}
		e.stats[addr] = st
	}
	return st
}
