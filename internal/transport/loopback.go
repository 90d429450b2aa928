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
// Everything but the registry and the copy — admission, dialing,
// counters, the inbox — is the shared endpoint, so Loopback refuses,
// counts and drops exactly as the wire transports do.

var (
	loopMu  sync.Mutex
	loopReg = map[Addr]*Loopback{}
)

// Loopback is an in-memory Transport endpoint. Construct with NewLoopback
// (or Open with a "loop:" address); the endpoint joins the registry at
// Listen and leaves it at Close.
type Loopback struct {
	endpoint
}

// NewLoopback creates an endpoint named by addr ("loop:name").
func NewLoopback(addr Addr) *Loopback {
	return &Loopback{endpoint: newEndpoint(addr)}
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
	l.openLocked()
	l.mu.Unlock()
	return nil
}

// Dial registers a "loop:" peer. Loopback resolves peers at send time,
// so the peer need not be listening yet.
func (l *Loopback) Dial(addr Addr) error {
	if _, err := stripScheme("loop", addr); err != nil {
		return err
	}
	return l.dial(addr, nil)
}

// Send delivers a copy of f into the destination endpoint's inbox,
// counting it as a batch of one so the byte counters match what the
// frame would cost on a real wire. A destination that is not registered
// (the peer process has not started or already closed) is a send error.
// There is no coalescing: loopback delivery is synchronous by design,
// which preserves determinism.
func (l *Loopback) Send(addr Addr, f wire.Frame) error {
	size := wire.BatchOverhead + f.RecordLen()
	p, err := l.admit(addr, f, size)
	if err != nil {
		return err
	}
	loopMu.Lock()
	dst := loopReg[addr]
	loopMu.Unlock()
	if dst == nil {
		l.mu.Lock()
		p.st.SendErrs++
		l.mu.Unlock()
		return fmt.Errorf("transport: no loopback endpoint %q", addr)
	}
	// The receiver must never alias the sender's buffer.
	f.Payload = append([]byte(nil), f.Payload...)
	dst.receive(l.addr, []wire.Frame{f}, size)
	return nil
}

// LocalAddr returns the endpoint's registered name.
func (l *Loopback) LocalAddr() Addr { return l.addr }

// Close removes the endpoint from the registry and drops queued frames.
func (l *Loopback) Close() error {
	loopMu.Lock()
	if loopReg[l.addr] == l {
		delete(loopReg, l.addr)
	}
	loopMu.Unlock()
	return l.shutdown(nil)
}
