package wire

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/agilla-go/agilla/internal/replica"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
)

// broadcastLoc mirrors radio.Broadcast (this package cannot import radio).
var broadcastLoc = topology.Location{X: -32768, Y: -32768}

// kindPayloads builds one representative inner payload per radio frame
// kind, each through the real hand-packed codec — a batch must carry
// every one of them unchanged.
func kindPayloads(t *testing.T) map[uint8][]byte {
	t.Helper()
	heap, err := (HeapMsg{AgentID: 9, Seq: 2, Index: 0, Entries: []HeapEntry{
		{Addr: 3, Value: tuplespace.Int(41)},
	}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return map[uint8][]byte{
		1: Beacon{NumAgents: 3}.Encode(),
		2: heap,
		3: (AckMsg{AgentID: 9, Seq: 2, Of: MsgHeap, Index: 0}).Encode(),
		4: Envelope{
			Src: topology.Loc(0, 0), Dst: topology.Loc(4, 2), TTL: 16, Kind: 4,
			Body: RemoteRequest{
				ReqID: 7, Op: OpRrdp, ReplyTo: topology.Loc(0, 0),
				Template: tuplespace.Tmpl(tuplespace.Str("fire")),
			}.Encode(),
		}.Encode(),
		5: Envelope{
			Src: topology.Loc(4, 2), Dst: topology.Loc(0, 0), TTL: 16, Kind: 5,
			Body: RemoteReply{
				ReqID: 7, OK: true,
				Tuple: tuplespace.T(tuplespace.Str("fire"), tuplespace.Int(1)),
			}.Encode(),
		}.Encode(),
		6: ReplicaDigest{Lines: []replica.Summary{
			{Node: topology.Loc(1, 1), AddMax: 4, RemHash: 0xfeed},
		}}.Encode(),
		7: ReplicaDelta{Entries: []replica.Entry{
			{Origin: replica.Origin{Node: topology.Loc(1, 1), Seq: 4},
				Tuple: tuplespace.T(tuplespace.Int(8))},
		}}.Encode(),
	}
}

// batchWorkload builds n frames over the real per-kind payloads.
func batchWorkload(t testing.TB, n int) []Frame {
	tt, ok := t.(*testing.T)
	if !ok {
		tt = &testing.T{}
	}
	payloads := kindPayloads(tt)
	kinds := make([]uint8, 0, len(payloads))
	for k := range payloads {
		kinds = append(kinds, k)
	}
	frames := make([]Frame, n)
	for i := range frames {
		k := kinds[i%len(kinds)]
		frames[i] = Frame{
			Kind:    k,
			Src:     topology.Loc(int16(i%5), 1),
			Dst:     topology.Loc(int16(i%5), 2),
			Payload: payloads[k],
		}
	}
	return frames
}

// everyKindFrames wraps each kind's real payload in one frame; the
// beacon is broadcast, so radio.Broadcast must survive as a destination.
func everyKindFrames(t *testing.T) []Frame {
	var frames []Frame
	for kind, payload := range kindPayloads(t) {
		f := Frame{Kind: kind, Src: topology.Loc(2, 1), Dst: topology.Loc(3, 1), Payload: payload}
		if kind == 1 {
			f.Dst = broadcastLoc
		}
		frames = append(frames, f)
	}
	return frames
}

func TestBatchRoundTrip(t *testing.T) {
	inputs := [][]Frame{everyKindFrames(t)}
	for _, n := range []int{1, 2, 7, 100} {
		inputs = append(inputs, batchWorkload(t, n))
	}
	for _, frames := range inputs {
		n := len(frames)
		b, err := EncodeBatch(frames)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		wantLen := BatchOverhead
		for _, f := range frames {
			wantLen += f.RecordLen()
		}
		if len(b) != wantLen {
			t.Fatalf("n=%d: encoded %d bytes, want %d", n, len(b), wantLen)
		}
		out, err := DecodeBatch(b)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("n=%d: decoded %d frames", n, len(out))
		}
		for i, f := range out {
			want := frames[i]
			if f.Kind != want.Kind || f.Src != want.Src || f.Dst != want.Dst || !bytes.Equal(f.Payload, want.Payload) {
				t.Fatalf("n=%d: frame %d mangled: %+v", n, i, f)
			}
		}
	}
}

// TestBatchWriterReuse drives the Reset/Finish lifecycle: reuse across
// batches, Finish-twice and Add-after-Finish misuse, empty Finish.
func TestBatchWriterReuse(t *testing.T) {
	w := NewBatchWriter()
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish on an empty batch must fail")
	}
	frames := batchWorkload(t, 3)
	var first []byte
	for round := 0; round < 3; round++ {
		w.Reset()
		if w.Count() != 0 || w.Size() != BatchOverhead {
			t.Fatalf("after Reset: count %d size %d", w.Count(), w.Size())
		}
		for _, f := range frames {
			if err := w.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		b, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			first = append([]byte(nil), b...)
		} else if !bytes.Equal(first, b) {
			t.Fatalf("round %d encodes differently", round)
		}
		if err := w.Add(frames[0]); err == nil {
			t.Fatal("Add after Finish must fail")
		}
		if _, err := w.Finish(); err == nil {
			t.Fatal("second Finish must fail")
		}
	}
	// Size accounts the container and every record.
	w.Reset()
	_ = w.Add(frames[0])
	if got, want := w.Size(), BatchOverhead+frames[0].RecordLen(); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	if _, err := EncodeBatch([]Frame{{Payload: make([]byte, MaxFramePayload+1)}}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("oversized payload: err = %v", err)
	}
}

// TestBatchDecodeRejects drives every truncation, every single-byte
// corruption, and trailing garbage through the decoder: all must fail
// with ErrBadMessage, none may panic, and a failed decode must not
// extend the destination slice.
func TestBatchDecodeRejects(t *testing.T) {
	frames := batchWorkload(t, 5)
	b, err := EncodeBatch(frames)
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]Frame, 0, 8)
	for n := 0; n < len(b); n++ {
		out, err := DecodeBatchAppend(scratch, b[:n])
		if !errors.Is(err, ErrBadMessage) {
			t.Fatalf("truncation at %d: err = %v", n, err)
		}
		if len(out) != 0 {
			t.Fatalf("truncation at %d extended dst to %d frames", n, len(out))
		}
	}
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		if _, err := DecodeBatch(c); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("corrupt byte %d accepted", i)
		}
	}
	if _, err := DecodeBatch(append(append([]byte(nil), b...), 0)); !errors.Is(err, ErrBadMessage) {
		t.Fatal("trailing garbage accepted")
	}
	// A batch claiming zero frames is rejected even with a valid CRC.
	w := NewBatchWriter()
	_ = w.Add(frames[0])
	zb, _ := w.Finish()
	zb = append([]byte(nil), zb...)
	put16(zb[2:], 0)
	fixCRC(zb)
	if _, err := DecodeBatch(zb); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty batch accepted: %v", err)
	}
	// A count claiming more frames than the records present, and fewer,
	// both fail even when the CRC is refreshed.
	for _, count := range []uint16{4, 6, 65535} {
		c := append([]byte(nil), b...)
		put16(c[2:], count)
		fixCRC(c)
		if _, err := DecodeBatch(c); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("count %d over %d records accepted", count, len(frames))
		}
	}
}

// fixCRC recomputes the trailing checksum after test-side surgery.
func fixCRC(b []byte) {
	sum := crc32.ChecksumIEEE(b[:len(b)-4])
	b[len(b)-4] = byte(sum >> 24)
	b[len(b)-3] = byte(sum >> 16)
	b[len(b)-2] = byte(sum >> 8)
	b[len(b)-1] = byte(sum)
}

// TestBatchRandomizedRoundTrip round-trips random frame mixes including
// empty payloads and, in the first trial, a maximum-size payload.
func TestBatchRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		frames := make([]Frame, n)
		for i := range frames {
			size := rng.Intn(64)
			if trial == 0 && i == 0 {
				size = MaxFramePayload
			}
			p := make([]byte, size)
			rng.Read(p)
			frames[i] = Frame{
				Kind:    uint8(rng.Intn(256)),
				Src:     topology.Loc(int16(rng.Intn(1<<16)-1<<15), int16(rng.Intn(1<<16)-1<<15)),
				Dst:     topology.Loc(int16(rng.Intn(1<<16)-1<<15), int16(rng.Intn(1<<16)-1<<15)),
				Payload: p,
			}
		}
		b, err := EncodeBatch(frames)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out {
			if out[i].Kind != frames[i].Kind || out[i].Src != frames[i].Src ||
				out[i].Dst != frames[i].Dst || !bytes.Equal(out[i].Payload, frames[i].Payload) {
				t.Fatalf("trial %d frame %d mangled", trial, i)
			}
		}
	}
}

// FuzzBatchDecode proves the batch decoder — the only parser of bytes
// from the network — never panics and that whatever it accepts
// re-encodes byte-identical. Seeds cover valid batches plus truncated,
// overlength, and CRC-flipped variants.
func FuzzBatchDecode(f *testing.F) {
	frames := batchWorkload(&testing.T{}, 6)
	for _, n := range []int{1, 3, 6} {
		b, err := EncodeBatch(frames[:n])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])            // truncated
		f.Add(append(b, 0xEE))         // overlength
		c := append([]byte(nil), b...) // CRC-flipped
		c[len(c)-1] ^= 0xFF
		f.Add(c)
	}
	f.Add([]byte{})
	f.Add([]byte{BatchMagic, BatchVersion, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		frames, err := DecodeBatch(b)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("rejection not wrapping ErrBadMessage: %v", err)
			}
			return
		}
		re, err := EncodeBatch(frames)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n  in  %x\n  out %x", b, re)
		}
	})
}

// FuzzFrameDecode decodes a frame's payload the way a receiver does once
// the batch has been accepted: the first input byte is the radio frame
// kind, the rest is the payload, and the codec the kind selects must
// reject garbage with an error, never a panic. The payload codecs are
// fuzzed directly because random inputs to FuzzBatchDecode rarely carry
// a valid checksum.
func FuzzFrameDecode(f *testing.F) {
	for kind, p := range kindPayloads(&testing.T{}) {
		f.Add(append([]byte{kind}, p...))
	}
	f.Add([]byte{})
	f.Add([]byte{2, byte(MsgHeap)})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		decodeKindPayload(b[0], b[1:])
	})
}

// decodeKindPayload runs payload through the codec kind selects,
// discarding the result.
func decodeKindPayload(kind uint8, payload []byte) {
	switch kind {
	case 1:
		_, _ = DecodeBeacon(payload)
	case 2, 3:
		if typ, err := Type(payload); err == nil {
			switch typ {
			case MsgState:
				_, _ = DecodeState(payload)
			case MsgCode:
				_, _ = DecodeCode(payload)
			case MsgHeap:
				_, _ = DecodeHeap(payload)
			case MsgStack:
				_, _ = DecodeStack(payload)
			case MsgReaction:
				_, _ = DecodeReaction(payload)
			case MsgAck:
				_, _ = DecodeAck(payload)
			}
		}
	case 4, 5:
		if env, err := DecodeEnvelope(payload); err == nil {
			_, _ = DecodeRemoteRequest(env.Body)
			_, _ = DecodeRemoteReply(env.Body)
		}
	case 6:
		_, _ = DecodeReplicaDigest(payload)
	case 7:
		_, _ = DecodeReplicaDelta(payload)
	}
}

// BenchmarkBatchEncodeDecode pins the pooled hot path — Get, Add xN,
// Finish, DecodeBatchAppend into a reused slice, Put — at zero heap
// allocations per batch once the pool is warm.
func BenchmarkBatchEncodeDecode(b *testing.B) {
	frames := batchWorkload(b, 43) // ~an MTU's worth of the bench mix
	scratch := make([]Frame, 0, 64)
	roundTrip := func() {
		w := GetBatchWriter()
		for _, f := range frames {
			if err := w.Add(f); err != nil {
				b.Fatal(err)
			}
		}
		enc, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		scratch, err = DecodeBatchAppend(scratch[:0], enc)
		if err != nil {
			b.Fatal(err)
		}
		PutBatchWriter(w)
	}
	roundTrip() // warm the pool and the scratch slice outside the measurement
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		b.Fatalf("batch round trip allocates %.1f objects/op, want 0", allocs)
	}
	size := BatchOverhead
	for _, f := range frames {
		size += f.RecordLen()
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
