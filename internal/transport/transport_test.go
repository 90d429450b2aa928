package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/wire"
)

func testFrame(seq int) wire.Frame {
	return wire.Frame{
		Kind:    uint8(radio.KindRemoteTS),
		Src:     topology.Loc(1, 1),
		Dst:     topology.Loc(2, 1),
		Payload: []byte{byte(seq >> 8), byte(seq)},
	}
}

func seqOf(f wire.Frame) int { return int(f.Payload[0])<<8 | int(f.Payload[1]) }

func TestOpenSchemes(t *testing.T) {
	for _, addr := range []Addr{"loop:x", "udp:127.0.0.1:0", "tcp:127.0.0.1:0"} {
		tr, err := Open(addr)
		if err != nil {
			t.Fatalf("Open(%q): %v", addr, err)
		}
		if tr == nil {
			t.Fatalf("Open(%q) returned a nil transport", addr)
		}
	}
	for _, addr := range []Addr{"sctp:127.0.0.1:0", "127.0.0.1:0", "", "loopx"} {
		if _, err := Open(addr); err == nil {
			t.Fatalf("Open(%q) must fail: unknown scheme", addr)
		}
	}
}

func TestOpenMalformedAddr(t *testing.T) {
	// The scheme parses, so Open succeeds; the bogus host:port must
	// surface at Listen instead of being deferred to the first Send.
	for _, addr := range []Addr{"udp:not-a-host-port", "tcp:no-port-here"} {
		tr, err := Open(addr)
		if err != nil {
			t.Fatalf("Open(%q): %v", addr, err)
		}
		if err := tr.Listen(); err == nil {
			tr.Close()
			t.Fatalf("Listen on %q must fail: malformed address", addr)
		}
	}
	// Dialing a peer whose address is malformed fails fast too.
	for _, scheme := range []string{"udp", "tcp"} {
		tr, err := Open(Addr(scheme + ":127.0.0.1:0"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Listen(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Dial(Addr(scheme + ":bogus")); err == nil {
			t.Fatalf("%s Dial of malformed peer must fail", scheme)
		}
		if err := tr.Dial("loop:name"); err == nil {
			t.Fatalf("%s Dial of wrong-scheme peer must fail", scheme)
		}
		tr.Close()
	}
}

func TestDoubleListen(t *testing.T) {
	for _, addr := range []Addr{"udp:127.0.0.1:0", "tcp:127.0.0.1:0"} {
		tr, err := Open(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Listen(); err != nil {
			t.Fatalf("first Listen on %q: %v", addr, err)
		}
		if err := tr.Listen(); err == nil {
			t.Fatalf("second Listen on %q must fail", addr)
		}
		tr.Close()
	}
}

// TestTransportContract holds Loopback, UDP and TCP to the same
// Transport contract: what one refuses, counts or reports after Close,
// the others do too.
func TestTransportContract(t *testing.T) {
	cases := []struct {
		name string
		mk   func(name string) Transport
	}{
		{"loopback", func(name string) Transport { return NewLoopback(Addr("loop:contract-" + name)) }},
		{"udp", func(string) Transport { return NewUDP("udp:127.0.0.1:0") }},
		{"tcp", func(string) Transport { return NewTCP("tcp:127.0.0.1:0") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.mk("a"), tc.mk("b")
			if err := a.Send(b.LocalAddr(), testFrame(0)); err == nil {
				t.Fatal("send before Listen must fail")
			}
			if err := a.Listen(); err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if err := b.Listen(); err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			addrA, addrB := a.LocalAddr(), b.LocalAddr()

			// b is live but not yet dialed: the send fails and is counted.
			if err := a.Send(addrB, testFrame(0)); err == nil {
				t.Fatal("send to undialed peer must fail")
			}
			if st := a.Stats()[addrB]; st.SendErrs != 1 || st.Sent != 0 {
				t.Fatalf("undialed send stats = %+v, want SendErrs=1 Sent=0", st)
			}
			if err := a.Dial(addrB); err != nil {
				t.Fatal(err)
			}
			if err := b.Dial(addrA); err != nil {
				t.Fatal(err)
			}

			// A payload past the 16-bit length field is refused by every
			// transport, and nothing is counted as sent.
			big := wire.Frame{Payload: make([]byte, wire.MaxFramePayload+1)}
			if err := a.Send(addrB, big); !errors.Is(err, wire.ErrBadMessage) {
				t.Fatalf("oversized payload: err = %v, want wire.ErrBadMessage", err)
			}
			if st := a.Stats()[addrB]; st.Sent != 0 {
				t.Fatalf("oversized payload was counted: %+v", st)
			}

			// Leave one frame unread in b's inbox, then close b: Close is
			// idempotent, the closed endpoint refuses sends, and the
			// queued frame is gone.
			if err := a.Send(addrB, testFrame(1)); err != nil {
				t.Fatal(err)
			}
			a.Flush()
			deadline := time.Now().Add(5 * time.Second)
			for b.Stats()[addrA].Recv != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("frame never reached b; stats = %+v", b.Stats())
				}
				time.Sleep(time.Millisecond)
			}
			for i := 0; i < 2; i++ {
				if err := b.Close(); err != nil {
					t.Fatalf("Close #%d: %v", i+1, err)
				}
			}
			if err := b.Send(addrA, testFrame(2)); err == nil {
				t.Fatal("send after Close must fail")
			}
			if _, _, ok := b.Recv(); ok {
				t.Fatal("Recv after Close must report empty")
			}
		})
	}
}

func TestLoopbackRoundTrip(t *testing.T) {
	a, b := NewLoopback("loop:a"), NewLoopback("loop:b")
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if err := a.Dial("loop:b"); err != nil {
		t.Fatal(err)
	}
	if err := a.Dial("udp:127.0.0.1:9"); err == nil {
		t.Fatal("loopback must refuse udp peers")
	}

	for i := 0; i < 3; i++ {
		if err := a.Send("loop:b", testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		from, f, ok := b.Recv()
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if from != "loop:a" {
			t.Fatalf("frame %d attributed to %q, want loop:a", i, from)
		}
		if seqOf(f) != i {
			t.Fatalf("frame order broken: got seq %d at slot %d", seqOf(f), i)
		}
	}
	if _, _, ok := b.Recv(); ok {
		t.Fatal("empty inbox must report ok=false")
	}

	// Byte counters charge each frame what a batch of one would cost on
	// a real wire, on both sides.
	wantBytes := uint64(3 * (wire.BatchOverhead + testFrame(0).RecordLen()))
	st := a.Stats()["loop:b"]
	if st.Sent != 3 || st.Batches != 3 || st.SentBytes != wantBytes {
		t.Fatalf("sender stats = %+v, want Sent=3 Batches=3 SentBytes=%d", st, wantBytes)
	}
	rst := b.Stats()["loop:a"]
	if rst.Recv != 3 || rst.RecvBytes != wantBytes {
		t.Fatalf("receiver stats = %+v, want Recv=3 RecvBytes=%d", rst, wantBytes)
	}

	// The receiver never aliases the sender's buffer: mutating the
	// payload after Send leaves the delivered frame unchanged.
	f := testFrame(9)
	if err := a.Send("loop:b", f); err != nil {
		t.Fatal(err)
	}
	f.Payload[1] = 0xff
	if _, got, ok := b.Recv(); !ok || seqOf(got) != 9 {
		t.Fatalf("delivered frame = %v (ok=%v), want seq 9 despite the sender's later write", got.Payload, ok)
	}

	// A dialed but unregistered destination is a send error, and a
	// second endpoint cannot squat on a live name.
	if err := a.Dial("loop:ghost"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("loop:ghost", testFrame(0)); err == nil {
		t.Fatal("send to unregistered endpoint must fail")
	}
	if st := a.Stats()["loop:ghost"]; st.SendErrs != 1 {
		t.Fatalf("send to unregistered endpoint not counted: %+v", st)
	}
	if err := NewLoopback("loop:a").Listen(); err == nil {
		t.Fatal("duplicate loopback name must fail Listen")
	}

	// Closing unregisters: sends to it now fail.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("loop:b", testFrame(0)); err == nil {
		t.Fatal("send to closed endpoint must fail")
	}
}

func TestLoopbackDropOldest(t *testing.T) {
	a, b := NewLoopback("loop:drop-src"), NewLoopback("loop:drop-dst")
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	if err := a.Dial("loop:drop-dst"); err != nil {
		t.Fatal(err)
	}

	const extra = 10
	for i := 0; i < inboxCap+extra; i++ {
		if err := a.Send("loop:drop-dst", testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	first := -1
	for {
		_, f, ok := b.Recv()
		if !ok {
			break
		}
		if first < 0 {
			first = seqOf(f)
		}
		n++
	}
	if n != inboxCap {
		t.Fatalf("inbox held %d frames, want cap %d", n, inboxCap)
	}
	if first != extra {
		t.Fatalf("oldest surviving frame is seq %d, want %d (drop-oldest)", first, extra)
	}
	// Every eviction is a counted drop charged to the sender; Recv still
	// counts every frame that arrived.
	if st := b.Stats()["loop:drop-src"]; st.Overflow != extra || st.Recv != inboxCap+extra {
		t.Fatalf("receiver stats = %+v, want Overflow=%d Recv=%d", st, extra, inboxCap+extra)
	}
}

// recvDeadline polls tr until a frame arrives or the deadline passes.
func recvDeadline(t *testing.T, tr Transport, d time.Duration) (Addr, wire.Frame) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if from, f, ok := tr.Recv(); ok {
			return from, f
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no frame before deadline")
	return "", wire.Frame{}
}

func TestUDPRoundTrip(t *testing.T) {
	a, b := NewUDP("udp:127.0.0.1:0"), NewUDP("udp:127.0.0.1:0")
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	addrA, addrB := a.LocalAddr(), b.LocalAddr()
	if addrA == "udp:127.0.0.1:0" || addrB == "udp:127.0.0.1:0" {
		t.Fatalf("LocalAddr did not resolve the kernel port: %q %q", addrA, addrB)
	}
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	if err := b.Dial(addrA); err != nil {
		t.Fatal(err)
	}

	const frames = 20
	for i := 0; i < frames; i++ {
		if err := a.Send(addrB, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := make(map[int]bool)
	for i := 0; i < frames; i++ {
		from, f := recvDeadline(t, b, 5*time.Second)
		if from != addrA {
			t.Fatalf("frame attributed to %q, want %q", from, addrA)
		}
		got[seqOf(f)] = true
	}
	if len(got) != frames {
		t.Fatalf("received %d distinct frames, want %d", len(got), frames)
	}

	// The reverse direction shares the socket pair.
	if err := b.Send(addrA, testFrame(7)); err != nil {
		t.Fatal(err)
	}
	if _, f := recvDeadline(t, a, 5*time.Second); seqOf(f) != 7 {
		t.Fatalf("reverse frame seq = %d, want 7", seqOf(f))
	}

	if st := a.Stats()[addrB]; st.Sent != frames || st.SentBytes == 0 {
		t.Fatalf("sender stats = %+v, want Sent=%d", st, frames)
	}
	if st := b.Stats()[addrA]; st.Recv != frames {
		t.Fatalf("receiver stats = %+v, want Recv=%d", st, frames)
	}
}

// waitMalformed polls tr until the input it rejected is charged to from,
// then checks nothing reached the inbox.
func waitMalformed(t *testing.T, tr Transport, from Addr) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tr.Stats()[from].Malformed != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("malformed input not charged to %q; stats = %+v", from, tr.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := tr.Stats()[from]; st.Recv != 0 {
		t.Fatalf("rejected input counted as received: %+v", st)
	}
	if _, _, ok := tr.Recv(); ok {
		t.Fatal("malformed input must not reach the inbox")
	}
}

// udpSendRaw writes one datagram to u from a fresh socket and returns the
// address u attributes it to.
func udpSendRaw(t *testing.T, u *UDP, datagram []byte) Addr {
	t.Helper()
	raw, err := net.Dial("udp", string(u.LocalAddr())[len("udp:"):])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	if _, err := raw.Write(datagram); err != nil {
		t.Fatal(err)
	}
	return Addr("udp:" + raw.LocalAddr().String())
}

// soloEnvelope hand-builds f in the retired single-frame envelope: magic
// 0xA6, version 1, kind, zero flags, src, dst, a 16-bit payload length,
// the payload, and a CRC-32 over all of it. The bytes are valid in that
// format; the wire transports must treat them as malformed like any
// other non-batch input.
func soloEnvelope(f wire.Frame) []byte {
	b := []byte{0xA6, 1, f.Kind, 0}
	for _, v := range []int16{f.Src.X, f.Src.Y, f.Dst.X, f.Dst.Y} {
		b = binary.BigEndian.AppendUint16(b, uint16(v))
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(f.Payload)))
	b = append(b, f.Payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// malformedInputs are bodies that decode as neither hello nor batch.
var malformedInputs = map[string][]byte{
	"junk":          []byte("not a frame"),
	"solo envelope": soloEnvelope(testFrame(5)),
}

func TestUDPMalformedDatagram(t *testing.T) {
	u := NewUDP("udp:127.0.0.1:0")
	if err := u.Listen(); err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	for name, datagram := range malformedInputs {
		t.Run(name, func(t *testing.T) {
			waitMalformed(t, u, udpSendRaw(t, u, datagram))
		})
	}
}

func TestTCPRoundTrip(t *testing.T) {
	a, b := NewTCP("tcp:127.0.0.1:0"), NewTCP("tcp:127.0.0.1:0")
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	addrA, addrB := a.LocalAddr(), b.LocalAddr()
	if addrA == "tcp:127.0.0.1:0" || addrB == "tcp:127.0.0.1:0" {
		t.Fatalf("LocalAddr did not resolve the kernel port: %q %q", addrA, addrB)
	}
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	if err := b.Dial(addrA); err != nil {
		t.Fatal(err)
	}

	const frames = 20
	for i := 0; i < frames; i++ {
		if err := a.Send(addrB, testFrame(i)); err != nil {
			t.Fatal(err)
		}
	}
	a.Flush()
	// TCP preserves order, and the hello record attributes the stream to
	// the dialer's listen address, not its ephemeral source port.
	for i := 0; i < frames; i++ {
		from, f := recvDeadline(t, b, 5*time.Second)
		if from != addrA {
			t.Fatalf("frame attributed to %q, want %q", from, addrA)
		}
		if seqOf(f) != i {
			t.Fatalf("stream order broken: got seq %d at slot %d", seqOf(f), i)
		}
	}

	// The reverse direction uses b's own outbound connection.
	if err := b.Send(addrA, testFrame(7)); err != nil {
		t.Fatal(err)
	}
	b.Flush()
	if _, f := recvDeadline(t, a, 5*time.Second); seqOf(f) != 7 {
		t.Fatalf("reverse frame seq = %d, want 7", seqOf(f))
	}

	if st := a.Stats()[addrB]; st.Sent != frames || st.SentBytes == 0 || st.Batches == 0 {
		t.Fatalf("sender stats = %+v, want Sent=%d with batches counted", st, frames)
	}
	if st := b.Stats()[addrA]; st.Recv != frames {
		t.Fatalf("receiver stats = %+v, want Recv=%d", st, frames)
	}
}

func TestTCPReconnect(t *testing.T) {
	a, b := NewTCP("tcp:127.0.0.1:0"), NewTCP("tcp:127.0.0.1:0")
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	addrB := b.LocalAddr()
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(addrB, testFrame(1)); err != nil {
		t.Fatal(err)
	}
	a.Flush()
	if _, f := recvDeadline(t, b, 5*time.Second); seqOf(f) != 1 {
		t.Fatalf("pre-restart frame seq = %d, want 1", seqOf(f))
	}

	// Restart the receiver on the same port. The sender's connection is
	// now dead; writes fail once the RST lands and the sender redials.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := NewTCP(addrB)
	if err := b2.Listen(); err != nil {
		t.Fatal(err)
	}
	defer b2.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(addrB, testFrame(2)); err != nil {
			t.Fatal(err)
		}
		a.Flush()
		time.Sleep(10 * time.Millisecond)
		if _, f, ok := b2.Recv(); ok {
			if seqOf(f) != 2 {
				t.Fatalf("post-restart frame seq = %d, want 2", seqOf(f))
			}
			return
		}
	}
	t.Fatalf("no frame after receiver restart; sender stats = %+v", a.Stats()[addrB])
}

// tcpDialRaw opens a bare stream to tr, bypassing the TCP sender.
func tcpDialRaw(t *testing.T, tr *TCP) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", string(tr.LocalAddr())[len("tcp:"):])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return raw
}

// expectStreamDropped checks the receiver closed raw's connection: writes
// on it eventually fail.
func expectStreamDropped(t *testing.T, raw net.Conn) {
	t.Helper()
	raw.SetWriteDeadline(time.Now().Add(5 * time.Second))
	var werr error
	for i := 0; i < 5000 && werr == nil; i++ {
		_, werr = raw.Write([]byte{0, 0, 0, 1, 'x'})
	}
	if werr == nil {
		t.Fatal("writes kept succeeding after a corrupt record; want dropped connection")
	}
}

func TestTCPMalformedRecord(t *testing.T) {
	tr := NewTCP("tcp:127.0.0.1:0")
	if err := tr.Listen(); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for name, body := range malformedInputs {
		t.Run(name, func(t *testing.T) {
			// A well-framed record whose body decodes as neither hello
			// nor batch: counted malformed against the unnamed stream,
			// and the stream is dropped.
			raw := tcpDialRaw(t, tr)
			if err := writeRecord(raw, body); err != nil {
				t.Fatal(err)
			}
			waitMalformed(t, tr, Addr("tcp:"+raw.LocalAddr().String()))
			expectStreamDropped(t, raw)
		})
	}
}

func TestBatchingCoalesces(t *testing.T) {
	// A linger far past the test's deadline: only the count threshold
	// and explicit Flush may seal batches here.
	cfg := batching{maxFrames: 8, linger: time.Hour}
	cases := []struct {
		name string
		mk   func(batching) Transport
	}{
		{"udp", func(b batching) Transport { u := NewUDP("udp:127.0.0.1:0"); u.batch = b; return u }},
		{"tcp", func(b batching) Transport { t := NewTCP("tcp:127.0.0.1:0"); t.batch = b; return t }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := tc.mk(cfg), tc.mk(batching{})
			if err := a.Listen(); err != nil {
				t.Fatal(err)
			}
			if err := b.Listen(); err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			defer b.Close()
			addrB := b.LocalAddr()
			if err := a.Dial(addrB); err != nil {
				t.Fatal(err)
			}

			// Exactly MaxFrames frames seal one batch with no flush.
			for i := 0; i < 8; i++ {
				if err := a.Send(addrB, testFrame(i)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 8; i++ {
				recvDeadline(t, b, 5*time.Second)
			}
			if st := a.Stats()[addrB]; st.Batches != 1 {
				t.Fatalf("%s stats after count-threshold seal = %+v, want Batches=1", tc.name, st)
			}

			// A partial batch stays pending (linger is an hour) until
			// Flush seals it.
			for i := 0; i < 3; i++ {
				if err := a.Send(addrB, testFrame(100+i)); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(50 * time.Millisecond)
			if _, _, ok := b.Recv(); ok {
				t.Fatalf("%s: partial batch delivered before Flush", tc.name)
			}
			a.Flush()
			for i := 0; i < 3; i++ {
				recvDeadline(t, b, 5*time.Second)
			}
			st := a.Stats()[addrB]
			if st.Batches != 2 {
				t.Fatalf("%s stats after Flush = %+v, want Batches=2", tc.name, st)
			}
			if got := st.FramesPerBatch(); got < 5 || got > 6 {
				t.Fatalf("%s FramesPerBatch = %v, want 11/2", tc.name, got)
			}
		})
	}
}

func TestBatchingLinger(t *testing.T) {
	a, b := NewUDP("udp:127.0.0.1:0"), NewUDP("udp:127.0.0.1:0")
	a.batch = batching{linger: 2 * time.Millisecond}
	if err := a.Listen(); err != nil {
		t.Fatal(err)
	}
	if err := b.Listen(); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	addrB := b.LocalAddr()
	if err := a.Dial(addrB); err != nil {
		t.Fatal(err)
	}
	// One lone frame, no Flush: the linger timer must seal it.
	if err := a.Send(addrB, testFrame(9)); err != nil {
		t.Fatal(err)
	}
	if _, f := recvDeadline(t, b, 5*time.Second); seqOf(f) != 9 {
		t.Fatalf("lingered frame seq = %d, want 9", seqOf(f))
	}
}

// capture is a Receiver recording every frame it hears.
type capture struct{ got []radio.Frame }

func (c *capture) ReceiveFrame(f radio.Frame) { c.got = append(c.got, f) }

// bridgeHalf is one process of a split 2x1 field for the unit test:
// a 1-mote medium plus the bridge standing in for the other mote.
type bridgeHalf struct {
	sim  *sim.Sim
	med  *radio.Medium
	node *capture
	br   *Bridge
}

func newBridgeHalf(t *testing.T, name string, own, remote topology.Location, peer Addr) *bridgeHalf {
	t.Helper()
	h := &bridgeHalf{sim: sim.New(1), node: &capture{}}
	h.med = radio.NewMedium(h.sim, topology.Grid{}, radio.ZeroLoss())
	if err := h.med.Attach(own, h.node); err != nil {
		t.Fatal(err)
	}
	br, err := NewBridge(NewLoopback(Addr(name)), h.med,
		[]topology.Location{own}, map[topology.Location]Addr{remote: peer})
	if err != nil {
		t.Fatal(err)
	}
	h.br = br
	return h
}

func (h *bridgeHalf) step(t *testing.T) {
	t.Helper()
	h.br.Pump()
	if err := h.sim.RunUntilIdle(0); err != nil {
		t.Fatal(err)
	}
}

func TestBridgeRelayAcrossLoopback(t *testing.T) {
	locA, locB := topology.Loc(1, 1), topology.Loc(2, 1)
	a := newBridgeHalf(t, "loop:half-a", locA, locB, "loop:half-b")
	defer a.br.Close()
	b := newBridgeHalf(t, "loop:half-b", locB, locA, "loop:half-a")
	defer b.br.Close()

	// A unicast from A's mote to the remote coordinate crosses the wire
	// and lands on B's mote.
	a.med.Send(radio.Frame{Src: locA, Dst: locB, Kind: radio.KindRemoteTS, Payload: []byte{42}})
	a.step(t) // radio model delivers to the border port, which relays
	b.step(t) // pump injects; run delivers
	if len(b.node.got) != 1 || b.node.got[0].Payload[0] != 42 {
		t.Fatalf("remote mote heard %+v, want one frame with payload [42]", b.node.got)
	}
	if st := a.br.Stats(); st.Relayed != 1 || st.RelayedBytes == 0 {
		t.Fatalf("A bridge stats = %+v, want Relayed=1", st)
	}
	if st := b.br.Stats(); st.Injected != 1 {
		t.Fatalf("B bridge stats = %+v, want Injected=1", st)
	}

	// A broadcast reaches the border port like any neighbor; the port
	// claims it as a unicast to its own coordinate, so the remote mote
	// hears it exactly once and nothing echoes back.
	a.med.Send(radio.Frame{Src: locA, Dst: radio.Broadcast, Kind: radio.KindBeacon})
	a.step(t)
	b.step(t)
	b.step(t) // extra rounds must not produce duplicates or echoes
	a.step(t)
	if len(b.node.got) != 2 {
		t.Fatalf("remote mote heard %d frames after broadcast, want 2", len(b.node.got))
	}
	if got := b.node.got[1]; got.Dst != locB || got.Kind != radio.KindBeacon {
		t.Fatalf("broadcast relayed as %+v, want beacon unicast to %v", got, locB)
	}
	if len(a.node.got) != 0 {
		t.Fatalf("A's mote heard %d echoed frames, want 0", len(a.node.got))
	}
	if st := a.br.Stats(); st.Injected != 0 {
		t.Fatalf("A injected %d frames, want 0 (no echo)", st.Injected)
	}

	// Frames for coordinates this process does not own are counted
	// misrouted and dropped; frames for detached nodes are stale.
	if err := a.br.Transport().Send("loop:half-b", wire.Frame{
		Kind: uint8(radio.KindBeacon), Src: locA, Dst: topology.Loc(9, 9),
	}); err != nil {
		t.Fatal(err)
	}
	b.step(t)
	if st := b.br.Stats(); st.Misrouted != 1 {
		t.Fatalf("B bridge stats = %+v, want Misrouted=1", st)
	}
	b.med.Detach(locB)
	if err := a.br.Transport().Send("loop:half-b", wire.Frame{
		Kind: uint8(radio.KindRemoteTS), Src: locA, Dst: locB,
	}); err != nil {
		t.Fatal(err)
	}
	b.step(t)
	if st := b.br.Stats(); st.Stale != 1 {
		t.Fatalf("B bridge stats = %+v, want Stale=1", st)
	}
}

func TestBridgeRejectsOverlap(t *testing.T) {
	s := sim.New(1)
	med := radio.NewMedium(s, topology.Grid{}, radio.ZeroLoss())
	loc := topology.Loc(1, 1)
	_, err := NewBridge(NewLoopback("loop:overlap"), med,
		[]topology.Location{loc}, map[topology.Location]Addr{loc: "loop:peer"})
	if err == nil {
		t.Fatal("a location owned locally and by a peer must fail NewBridge")
	}
	if fmt.Sprint(err) == "" {
		t.Fatal("error must describe the overlap")
	}
}
