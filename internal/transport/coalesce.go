package transport

import (
	"sync"
	"time"

	"github.com/agilla-go/agilla/internal/wire"
)

// Per-peer frame coalescing, shared by the UDP and TCP transports.
// Instead of paying one wire write (and one syscall) per frame, the
// coalescer accumulates a peer's outbound frames into a wire.Batch and
// seals it when any of three fixed thresholds fires:
//
//   - size: the encoded batch would exceed defaultBatchBytes (MTU-safe,
//     so a UDP batch is one unfragmented datagram);
//   - count: defaultBatchFrames frames are pending;
//   - time: defaultBatchLinger has passed since the first pending frame
//     — the bound on added latency when traffic is sparse.
//
// A fourth trigger, Transport.Flush, seals whatever is pending right
// now; the bridge invokes it at every pump quantum boundary so bridged
// virtual time never stalls on the linger timer.
//
// Sealed batches queue on a bounded channel of queueCap batches drained
// by the transport's per-peer sender goroutine. The queue keeps the
// drop-oldest discipline: when it is full the oldest sealed batch is
// discarded (its frames counted via onDrop) to admit the new one — for
// this traffic new frames carry newer protocol state, and retransmission
// regenerates old ones, so head drop beats tail drop and either beats
// blocking the simulation.

// batching holds the coalescing thresholds. Production always runs the
// defaults (the zero value); tests set other values on an endpoint
// before Listen to make each threshold observable.
type batching struct {
	maxBytes  int           // seal before the encoding would exceed this
	maxFrames int           // seal at this many frames
	linger    time.Duration // seal a partial batch after this long
}

const (
	// defaultBatchBytes is the MTU-safe batch size bound: 1500 less
	// IP+UDP headers, with margin for tunneled paths.
	defaultBatchBytes = 1400
	// defaultBatchFrames bounds frames per batch; at the bench
	// workload's ~32-byte records the size bound fires first, so this
	// mostly caps degenerate tiny-frame floods.
	defaultBatchFrames = 64
	// defaultBatchLinger bounds the latency a lone frame pays waiting
	// for a batch to fill.
	defaultBatchLinger = 500 * time.Microsecond
	// queueCap bounds each peer's queue of sealed batches.
	queueCap = 256
)

// withDefaults fills unset fields.
func (b batching) withDefaults() batching {
	if b.maxBytes <= 0 {
		b.maxBytes = defaultBatchBytes
	}
	if b.maxFrames <= 0 {
		b.maxFrames = defaultBatchFrames
	}
	if b.linger <= 0 {
		b.linger = defaultBatchLinger
	}
	return b
}

// outBatch is one sealed batch awaiting the sender goroutine. bytes
// aliases the writer, which the sender returns to the pool after the
// wire write.
type outBatch struct {
	w      *wire.BatchWriter
	bytes  []byte
	frames int
}

// coalescer accumulates one peer's outbound frames. Lock order: a
// coalescer's mu is always taken before the owning endpoint's lock
// (onDrop runs under mu), never after.
type coalescer struct {
	cfg    batching
	out    chan outBatch
	onDrop func(frames int) // called under mu when drop-oldest discards a batch

	mu     sync.Mutex
	w      *wire.BatchWriter // pending, nil when empty
	timer  *time.Timer       // linger; nil until first armed
	closed bool
}

// newCoalescer builds a coalescer with a queue of queueCap sealed
// batches.
func newCoalescer(cfg batching, onDrop func(int)) *coalescer {
	return &coalescer{cfg: cfg.withDefaults(), out: make(chan outBatch, queueCap), onDrop: onDrop}
}

// add appends one frame, sealing on the size or count threshold and
// arming the linger timer otherwise. The frame's payload must already
// be validated (<= wire.MaxFramePayload) and must stay immutable until
// the batch is written; both transports copy-by-encode here, under mu,
// so the caller's payload is not retained.
func (c *coalescer) add(f wire.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if c.w != nil && c.w.Size()+f.RecordLen() > c.cfg.maxBytes {
		c.sealLocked()
	}
	if c.w == nil {
		c.w = wire.GetBatchWriter()
	}
	if err := c.w.Add(f); err != nil {
		// Unreachable for validated frames; drop rather than poison the batch.
		return
	}
	if c.w.Count() >= c.cfg.maxFrames || c.w.Size() >= c.cfg.maxBytes {
		c.sealLocked()
		return
	}
	if c.w.Count() == 1 {
		if c.timer == nil {
			c.timer = time.AfterFunc(c.cfg.linger, c.flush)
		} else {
			c.timer.Reset(c.cfg.linger)
		}
	}
}

// sealLocked finishes the pending batch and queues it, dropping the
// oldest sealed batch when the queue is full. Callers hold mu.
func (c *coalescer) sealLocked() {
	b, err := c.w.Finish()
	if err != nil { // empty writer; nothing to seal
		wire.PutBatchWriter(c.w)
		c.w = nil
		return
	}
	ob := outBatch{w: c.w, bytes: b, frames: c.w.Count()}
	c.w = nil
	for {
		select {
		case c.out <- ob:
			return
		default:
		}
		select {
		case old := <-c.out:
			if c.onDrop != nil {
				c.onDrop(old.frames)
			}
			wire.PutBatchWriter(old.w)
		default:
		}
	}
}

// flush seals whatever is pending. Runs from the linger timer and from
// Transport.Flush.
func (c *coalescer) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.w == nil || c.w.Count() == 0 {
		return
	}
	c.sealLocked()
}

// close stops the timer and discards the pending batch. Batches already
// sealed stay in the queue for the sender goroutine to drain or abandon.
func (c *coalescer) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.timer != nil {
		c.timer.Stop()
	}
	if c.w != nil {
		wire.PutBatchWriter(c.w)
		c.w = nil
	}
}
