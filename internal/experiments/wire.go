package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/transport"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// The wire experiment benchmarks the transport layer of the distributed
// runtime: a fixed mix of frames — the traffic a migration
// plus anti-entropy gossip workload puts on a border — pushed through
// each transport as fast as it will take them. The workload is built
// once, deterministically, with the real payload codecs (beacon, the
// four-message migration burst with its ack, a routed remote request, a
// replica digest), so the frames and bytes columns are reproducible
// run to run and CI can diff them; the throughput columns are the
// wall-clock measurement.

// WireRow is one transport's measurement. Frames and Bytes count the
// offered load — Bytes as frame records, header plus payload, without
// the per-batch container — and are deterministic; Received may fall short on UDP
// (drop-oldest backpressure is part of the design under test). Batches
// counts wire writes at the sender, so FramesPerBatch is the coalescing
// payoff: frames carried per datagram or stream record.
type WireRow struct {
	Transport      string  `json:"transport"`
	Frames         int     `json:"frames"`
	Bytes          int64   `json:"bytes"`
	Received       int     `json:"received"`
	Batches        int64   `json:"batches"`
	FramesPerBatch float64 `json:"frames_per_batch"`
	WallSecs       float64 `json:"wall_secs"`
	FramesPerSec   float64 `json:"frames_per_sec"`
	BytesPerSec    float64 `json:"bytes_per_sec"`
}

// WireResult is the transport sweep.
type WireResult struct {
	Rows []WireRow
}

// JSON renders the rows as the machine-readable BENCH_wire.json schema.
func (r *WireResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Rows, "", "  ")
}

func (r *WireResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Wire transport throughput: fixed migration+gossip frame mix\n")
	fmt.Fprintf(&b, "%-10s %9s %11s %9s %9s %9s %9s %12s %9s\n",
		"transport", "frames", "bytes", "received", "batches", "f/batch", "wall(s)", "frames/sec", "MB/sec")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9d %11d %9d %9d %9.1f %9.3f %12.0f %9.2f\n",
			row.Transport, row.Frames, row.Bytes, row.Received,
			row.Batches, row.FramesPerBatch,
			row.WallSecs, row.FramesPerSec, row.BytesPerSec/1e6)
	}
	b.WriteString("(deterministic columns — frames, bytes — must not vary across runs)")
	return b.String()
}

// Wire measures frame throughput through the Loopback, localhost-UDP,
// and localhost-TCP transports.
func Wire(cfg Config) (*WireResult, error) {
	cfg = cfg.withDefaults()
	n := 50000
	if cfg.Quick {
		n = 8000
	}
	work := wireWorkload(n)
	res := &WireResult{}

	// Loopback: synchronous in-memory delivery; batch under the inbox cap.
	row, err := wirePump("loopback",
		transport.NewLoopback("loop:bench-src"), transport.NewLoopback("loop:bench-dst"),
		work, 1024)
	if err != nil {
		return nil, fmt.Errorf("wire loopback: %w", err)
	}
	res.Rows = append(res.Rows, row)

	// UDP on localhost: real sockets, reader goroutine, coalesced
	// batches on bounded queues. The flow-control window is large enough
	// to keep whole batches in flight (inboxCap is 4096 frames) without
	// letting an unpaced sender overrun the receive path.
	row, err = wirePump("udp",
		transport.NewUDP("udp:127.0.0.1:0"), transport.NewUDP("udp:127.0.0.1:0"),
		work, 2048)
	if err != nil {
		return nil, fmt.Errorf("wire udp: %w", err)
	}
	res.Rows = append(res.Rows, row)

	// TCP on localhost: the lossless stream path, same coalescing.
	row, err = wirePump("tcp",
		transport.NewTCP("tcp:127.0.0.1:0"), transport.NewTCP("tcp:127.0.0.1:0"),
		work, 2048)
	if err != nil {
		return nil, fmt.Errorf("wire tcp: %w", err)
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}

// wireWorkload builds n frames cycling through the representative mix.
// Payloads go through the real inner codecs; sources and destinations
// rotate over a small border's worth of coordinates.
func wireWorkload(n int) []wire.Frame {
	req := wire.RemoteRequest{
		ReqID:    9,
		Op:       wire.OpRrdp,
		ReplyTo:  topology.Loc(0, 0),
		Template: tuplespace.Tmpl(tuplespace.Str("cfg"), tuplespace.TypeV(tuplespace.TypeValue)),
	}
	env := wire.Envelope{
		Src: topology.Loc(0, 0), Dst: topology.Loc(5, 2), TTL: 12,
		Kind: uint8(radio.KindRemoteTS), Body: req.Encode(),
	}
	digest := wire.ReplicaDigest{Lines: []replica.Summary{
		{Node: topology.Loc(1, 1), AddMax: 4, RemHash: 0x1234},
		{Node: topology.Loc(2, 1), AddMax: 7, RemHash: 0xBEEF},
		{Node: topology.Loc(3, 2), AddMax: 2, RemHash: 0x0},
	}}
	var block [wire.CodeBlockSize]byte
	for i := range block {
		block[i] = byte(i)
	}
	type proto struct {
		kind    radio.FrameKind
		payload []byte
	}
	protos := []proto{
		{radio.KindBeacon, wire.Beacon{NumAgents: 2}.Encode()},
		{radio.KindMigrate, wire.StateMsg{
			AgentID: 7, Seq: 3, Kind: wire.MigStrongMove,
			Dest: topology.Loc(6, 4), PC: 2, CodeLen: 44, NCode: 2,
		}.Encode()},
		{radio.KindMigrate, wire.CodeMsg{AgentID: 7, Seq: 3, Index: 0, Block: block}.Encode()},
		{radio.KindMigrate, wire.CodeMsg{AgentID: 7, Seq: 3, Index: 1, Block: block}.Encode()},
		{radio.KindMigrateCtl, wire.AckMsg{AgentID: 7, Seq: 3, Of: wire.MsgCode, Index: 1}.Encode()},
		{radio.KindRemoteTS, env.Encode()},
		{radio.KindReplicaDigest, digest.Encode()},
	}
	frames := make([]wire.Frame, n)
	for i := range frames {
		p := protos[i%len(protos)]
		frames[i] = wire.Frame{
			Kind:    uint8(p.kind),
			Src:     topology.Loc(int16(1+i%4), 1),
			Dst:     topology.Loc(int16(1+i%4), 2),
			Payload: p.payload,
		}
	}
	return frames
}

// wirePump pushes the workload from src to dst in batches, draining the
// destination inbox between batches, and measures the wall-clock rate.
func wirePump(name string, src, dst transport.Transport, frames []wire.Frame, batch int) (WireRow, error) {
	if err := src.Listen(); err != nil {
		return WireRow{}, err
	}
	defer src.Close()
	if err := dst.Listen(); err != nil {
		return WireRow{}, err
	}
	defer dst.Close()
	peer := dst.LocalAddr()
	if err := src.Dial(peer); err != nil {
		return WireRow{}, err
	}

	var bytes int64
	for _, f := range frames {
		bytes += int64(f.RecordLen())
	}

	received := 0
	start := time.Now()
	for i, f := range frames {
		if err := src.Send(peer, f); err != nil {
			return WireRow{}, err
		}
		if (i+1)%batch != 0 {
			continue
		}
		// Seal the window's tail batch — mirroring the bridge, which
		// flushes at every pump quantum — so the drain below waits on the
		// wire, not on the coalescer's linger timer.
		src.Flush()
		// Flow control: keep the in-flight window under one window's
		// worth of frames so the measurement is sustainable delivered
		// throughput, not the rate at which an unpaced sender can overrun
		// receive buffers.
		for idle := 0; received < i+1-batch && idle < 20; {
			n := wireDrain(dst)
			received += n
			if n == 0 {
				idle++
				time.Sleep(200 * time.Microsecond)
			} else {
				idle = 0
			}
		}
	}
	// Drain the tail; on UDP give in-flight datagrams a grace window and
	// stop once the link has gone quiet (drops are legal, stalls are not).
	src.Flush()
	for idle := 0; received < len(frames) && idle < 100; {
		n := wireDrain(dst)
		received += n
		if n == 0 {
			idle++
			time.Sleep(500 * time.Microsecond)
		} else {
			idle = 0
		}
	}
	wall := time.Since(start).Seconds()

	st := src.Stats()[peer]
	row := WireRow{
		Transport:      name,
		Frames:         len(frames),
		Bytes:          bytes,
		Received:       received,
		Batches:        int64(st.Batches),
		FramesPerBatch: st.FramesPerBatch(),
		WallSecs:       wall,
	}
	if wall > 0 {
		row.FramesPerSec = float64(len(frames)) / wall
		row.BytesPerSec = float64(bytes) / wall
	}
	return row, nil
}

// wireDrain pops everything currently queued at the destination.
func wireDrain(tr transport.Transport) int {
	n := 0
	for {
		if _, _, ok := tr.Recv(); !ok {
			return n
		}
		n++
	}
}
