package transport

import (
	"fmt"
	"sync"

	"github.com/agilla-go/agilla/internal/wire"
)

// The loopback transport: a process-global registry of named endpoints.
// Send copies the frame into the destination's inbox under its lock, so
// delivery has no goroutines, no sockets, no clocks, and no codec. A
// single-threaded driver that alternates send/pump between two endpoints
// gets fully reproducible delivery, which is what makes Loopback the
// oracle-adjacent path of the conformance suite: any disagreement with
// the in-process run is a bridge or protocol bug, not scheduling noise.
// The wire codec itself is covered by UDP and TCP, which share it.

var (
	loopMu  sync.Mutex
	loopReg = map[Addr]*Loopback{}
)

// Loopback is an in-memory Transport endpoint. Construct with NewLoopback
// (or Open with a "loop:" address); the endpoint joins the registry at
// Listen and leaves it at Close.
type Loopback struct {
	addr Addr

	mu     sync.Mutex
	live   bool
	inbox  []inFrame
	lost   uint64 // inbox overflow drops
	stats  map[Addr]*PeerStats
	dialed map[Addr]bool
}

// NewLoopback creates an endpoint named by addr ("loop:name").
func NewLoopback(addr Addr) *Loopback {
	return &Loopback{
		addr:   addr,
		stats:  make(map[Addr]*PeerStats),
		dialed: make(map[Addr]bool),
	}
}

// Listen registers the endpoint in the process-global registry.
func (l *Loopback) Listen() error {
	loopMu.Lock()
	defer loopMu.Unlock()
	if other, ok := loopReg[l.addr]; ok && other != l {
		return fmt.Errorf("transport: loopback endpoint %q already registered", l.addr)
	}
	loopReg[l.addr] = l
	l.mu.Lock()
	l.live = true
	l.mu.Unlock()
	return nil
}

// Dial records the peer. Loopback resolves peers at send time, so this
// only validates the scheme.
func (l *Loopback) Dial(addr Addr) error {
	if len(addr) < 6 || addr[:5] != "loop:" {
		return fmt.Errorf("transport: loopback cannot dial %q", addr)
	}
	l.mu.Lock()
	l.dialed[addr] = true
	l.mu.Unlock()
	return nil
}

// Send delivers a copy of f into the destination endpoint's inbox. It
// refuses what UDP and TCP refuse (a payload past wire.MaxFramePayload),
// and counts traffic as a batch of one so the byte counters match what
// the frame would cost on a real wire. An unregistered destination is an
// error (the peer process has not started or already closed); a full
// inbox drops the oldest frame. There is no coalescing: loopback
// delivery is synchronous by design, which preserves determinism.
func (l *Loopback) Send(addr Addr, f wire.Frame) error {
	if len(f.Payload) > wire.MaxFramePayload {
		return fmt.Errorf("%w: frame payload %d bytes (max %d)", wire.ErrBadMessage, len(f.Payload), wire.MaxFramePayload)
	}
	size := wire.BatchOverhead + f.RecordLen()
	loopMu.Lock()
	dst := loopReg[addr]
	loopMu.Unlock()
	l.mu.Lock()
	if !l.live {
		l.mu.Unlock()
		return fmt.Errorf("transport: %q is closed", l.addr)
	}
	st := l.peerStats(addr)
	st.Sent++
	st.SentBytes += uint64(size)
	st.Batches++
	if dst == nil {
		st.SendErrs++
		l.mu.Unlock()
		return fmt.Errorf("transport: no loopback endpoint %q", addr)
	}
	l.mu.Unlock()
	// The receiver must never alias the sender's buffer.
	f.Payload = append([]byte(nil), f.Payload...)
	dst.push(l.addr, f, size)
	return nil
}

// Flush is a no-op: loopback delivery is synchronous, nothing lingers.
func (l *Loopback) Flush() {}

// push appends one frame to the inbox, dropping the oldest on overflow.
func (l *Loopback) push(from Addr, f wire.Frame, nbytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.live {
		return
	}
	if len(l.inbox) >= inboxCap {
		l.inbox = l.inbox[1:]
		l.lost++
	}
	l.inbox = append(l.inbox, inFrame{from: from, f: f})
	st := l.peerStats(from)
	st.Recv++
	st.RecvBytes += uint64(nbytes)
}

// Recv pops the oldest received frame, non-blocking.
func (l *Loopback) Recv() (Addr, wire.Frame, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.inbox) == 0 {
		return "", wire.Frame{}, false
	}
	in := l.inbox[0]
	l.inbox = l.inbox[1:]
	return in.from, in.f, true
}

// LocalAddr returns the endpoint's registered name.
func (l *Loopback) LocalAddr() Addr { return l.addr }

// Stats snapshots per-peer counters.
func (l *Loopback) Stats() map[Addr]PeerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[Addr]PeerStats, len(l.stats))
	for a, s := range l.stats {
		out[a] = *s
	}
	return out
}

// Close removes the endpoint from the registry and drops queued frames.
func (l *Loopback) Close() error {
	loopMu.Lock()
	if loopReg[l.addr] == l {
		delete(loopReg, l.addr)
	}
	loopMu.Unlock()
	l.mu.Lock()
	l.live = false
	l.inbox = nil
	l.mu.Unlock()
	return nil
}

// peerStats returns the counter cell for addr; callers hold l.mu.
func (l *Loopback) peerStats(addr Addr) *PeerStats {
	st, ok := l.stats[addr]
	if !ok {
		st = &PeerStats{}
		l.stats[addr] = st
	}
	return st
}
