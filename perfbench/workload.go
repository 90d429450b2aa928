package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"github.com/agilla-go/agilla/internal/agents"
	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/transport"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/wire"
)

// quantum is the lockstep step: each half runs pump, Sim.Run, pump for
// one quantum of virtual time, then the other half does the same.
const quantum = 5 * time.Millisecond

// spec is one workload: a grid field split into two deployments in this
// process, joined by transport.Loopback and co-driven from one goroutine.
// Every workload is split because every run reports border_fps; the split
// geometry decides how much of the traffic is border traffic.
type spec struct {
	name string
	w, h int
	// interleave gives half A the even columns and half B the odd ones,
	// so every radio hop crosses the border. Otherwise the halves meet at
	// one straight seam in the middle of the field.
	interleave bool
	monitors   bool // an agents.Monitor sensing loop on every mote
	replicate  bool // gossip replication at defaults; set-up adds markers and convergence
	churn      bool // a diagonal band dies at mid-run and revives a quarter-run later

	// Ops fall due as a Poisson process with mean gap opEvery, cycling
	// courier, rout, rrdp, rinp; each is issued at the first quantum
	// boundary at or after it fell due.
	opEvery time.Duration
	opTail  time.Duration // op-free tail of the timed phase, so in-flight ops resolve
	// vsPerSec sizes the timed phase: --seconds wall seconds at this
	// nominal rate give the virtual horizon, which is then fixed for
	// the run, so every virtual-time result repeats for a seed.
	vsPerSec float64
	setups   int // set-ups per run, a few seconds' worth; setup_s is their median
}

var workloads = []spec{
	{
		name: "field", w: 200, h: 200, monitors: true,
		opEvery: 2 * time.Millisecond, opTail: 3 * time.Second,
		vsPerSec: 1, setups: 3,
	},
	{
		name: "roam", w: 16, h: 16, replicate: true, churn: true,
		opEvery: 5 * time.Millisecond, opTail: 6 * time.Second,
		vsPerSec: 4.5, setups: 3,
	},
	{
		name: "bridged", w: 64, h: 64, interleave: true,
		opEvery: 5 * time.Millisecond, opTail: 6 * time.Second,
		vsPerSec: 18, setups: 15,
	},
}

func lookupWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// horizon converts a wall-clock budget into the fixed virtual length of
// the timed phase, in whole quanta.
func (sp spec) horizon(seconds int) time.Duration {
	v := time.Duration(float64(seconds) * sp.vsPerSec * float64(time.Second))
	return v / quantum * quantum
}

// owner says which half serves loc.
func (sp spec) owner(loc topology.Location) int {
	if sp.interleave {
		return int(loc.X+1) % 2 // even columns: half 0
	}
	if int(loc.X) <= sp.w/2 {
		return 0
	}
	return 1
}

type half struct {
	d     *core.Deployment
	br    *transport.Bridge
	tr    *transport.Loopback
	motes []*core.Node
}

// field is one built workload: two halves and the shared virtual clock.
type field struct {
	sp    spec
	h     [2]*half
	now   time.Duration
	tr    *tracer
	span  int // parent span of the quanta
	motes int
	nodes map[topology.Location]*core.Node
}

var bases = [2]topology.Location{topology.Loc(0, 0), topology.Loc(-100, -100)}

// build constructs both deployments and bridges them. Border ports are
// attached only where a peer location is a grid neighbor of a local
// mote: nothing else can ever be addressed by a local transmission.
func (sp spec) build(seed int64, tag string) (*field, error) {
	var locs [2][]topology.Location
	for _, loc := range topology.GridLocations(sp.w, sp.h) {
		o := sp.owner(loc)
		locs[o] = append(locs[o], loc)
	}
	f := &field{sp: sp, span: -1, nodes: make(map[topology.Location]*core.Node, sp.w*sp.h)}
	var addr [2]transport.Addr
	for i := range f.h {
		addr[i] = transport.Addr(fmt.Sprintf("loop:%s-%d", tag, i))
	}
	for i := range f.h {
		if len(locs[i]) == 0 {
			return nil, fmt.Errorf("half %d owns no motes", i)
		}
		layout := topology.Layout{
			Name:    fmt.Sprintf("%s/%d", sp.name, i),
			Nodes:   locs[i],
			Links:   topology.Grid{},
			Gateway: locs[i][topology.ClosestTo(bases[i], locs[i])],
		}
		ds := core.DeploymentSpec{Layout: layout, Seed: seed, BaseLoc: &bases[i], Workers: 1}
		if sp.replicate {
			ds.Replication = &core.Replication{}
		}
		d, err := core.NewDeployment(ds)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("half %d: %w", i, err)
		}
		local := append(append([]topology.Location(nil), locs[i]...), bases[i])
		peers := make(map[topology.Location]transport.Addr)
		for _, r := range locs[1-i] {
			for _, l := range []topology.Location{{X: r.X - 1, Y: r.Y}, {X: r.X + 1, Y: r.Y}, {X: r.X, Y: r.Y - 1}, {X: r.X, Y: r.Y + 1}} {
				if n := d.Node(l); n != nil && n != d.Base {
					peers[r] = addr[1-i]
					break
				}
			}
		}
		lp := transport.NewLoopback(addr[i])
		br, err := transport.NewBridge(lp, d.Medium, local, peers)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("half %d bridge: %w", i, err)
		}
		h := &half{d: d, br: br, tr: lp, motes: d.Motes()}
		f.h[i] = h
		for _, n := range h.motes {
			f.nodes[n.Loc()] = n
		}
		f.motes += len(h.motes)
	}
	return f, nil
}

func (f *field) close() {
	for _, h := range f.h {
		if h != nil {
			h.br.Close()
		}
	}
}

// halfOf returns the half serving loc.
func (f *field) halfOf(loc topology.Location) *half { return f.h[f.sp.owner(loc)] }

// step advances both halves one quantum: pump, run, pump for A, then B.
func (f *field) step() error {
	next := f.now + quantum
	for _, h := range f.h {
		s := f.tr.begin("pump", f.span)
		h.br.Pump()
		f.tr.end(s)
		s = f.tr.begin("kernel_run", f.span)
		err := h.d.Sim.Run(next)
		f.tr.end(s)
		if err != nil {
			return err
		}
		s = f.tr.begin("pump", f.span)
		h.br.Pump()
		f.tr.end(s)
	}
	f.now = next
	return nil
}

func (f *field) runTo(t time.Duration) error {
	for f.now < t {
		if err := f.step(); err != nil {
			return err
		}
	}
	return nil
}

// phases holds the host time of each set-up phase.
type phases struct {
	construct, load, warmup, converge, total time.Duration
	constructAllocs, constructHeap           float64 // per mote; traced runs only
	agents                                   int
}

// marker is the tuple each mote publishes before warm-up on a
// replicated workload, so set-up includes replica convergence.
func marker(loc topology.Location) tuplespace.Tuple {
	return tuplespace.T(tuplespace.Str("mk"), tuplespace.LocV(loc))
}

// setup builds a workload and runs it up to the moment the first op is
// due. A non-nil tracer records a span per phase and, because it forces
// collections to measure the construction heap, is only passed on
// traced runs.
func (sp spec) setup(seed int64, tag string, tr *tracer) (*field, phases, error) {
	var ph phases
	root := tr.begin("setup", -1)
	defer tr.end(root)
	var rt0 rtSnap
	var heap0 float64
	if tr != nil {
		heap0 = liveHeap()
		rt0 = readRuntime()
	}
	t0 := time.Now()

	s := tr.begin("construct", root)
	f, err := sp.build(seed, tag)
	tr.end(s)
	if err != nil {
		return nil, ph, err
	}
	f.tr = tr
	ph.construct = time.Since(t0)
	if tr != nil {
		rt1 := readRuntime()
		ph.constructAllocs = (rt1.allocObjs - rt0.allocObjs) / float64(f.motes)
		// Timing restarts after the forced collection below.
		ph.constructHeap = (liveHeap() - heap0) / float64(f.motes)
		t0 = time.Now().Add(-ph.construct)
	}

	s = tr.begin("load", root)
	t1 := time.Now()
	if sp.monitors {
		code := agents.Monitor(2)
		for _, h := range f.h {
			for _, n := range h.motes {
				if _, err := n.CreateAgent(code); err != nil {
					f.close()
					return nil, ph, fmt.Errorf("load monitor at %v: %w", n.Loc(), err)
				}
				ph.agents++
			}
		}
	}
	if sp.replicate {
		for _, h := range f.h {
			for _, n := range h.motes {
				if err := n.TSOut(marker(n.Loc())); err != nil {
					f.close()
					return nil, ph, fmt.Errorf("marker at %v: %w", n.Loc(), err)
				}
			}
		}
	}
	ph.load = time.Since(t1)
	tr.end(s)

	// Warm-up: the span Deployment.WarmUp covers (2.5 beacon periods),
	// co-driven so beacons cross the border every quantum.
	s = tr.begin("warmup", root)
	t2 := time.Now()
	period := f.h[0].d.Base.Config().Network.BeaconEvery
	if period <= 0 {
		period = 2 * time.Second
	}
	for _, h := range f.h {
		h.d.Start()
	}
	f.span = s
	err = f.runTo(2*period + period/2)
	ph.warmup = time.Since(t2)
	tr.end(s)
	if err != nil {
		f.close()
		return nil, ph, err
	}

	if sp.replicate {
		s = tr.begin("converge", root)
		f.span = s
		t3 := time.Now()
		err = f.converge()
		ph.converge = time.Since(t3)
		tr.end(s)
		if err != nil {
			f.close()
			return nil, ph, err
		}
	}
	f.span = -1
	ph.total = time.Since(t0)
	return f, ph, nil
}

// converge runs until no replica store has changed for two gossip
// periods, checked at period boundaries.
func (f *field) converge() error {
	var synced uint64
	for _, h := range f.h {
		h.d.Trace.ReplicaSynced = func(node, peer topology.Location, added, removed int) { synced++ }
	}
	defer func() {
		for _, h := range f.h {
			h.d.Trace.ReplicaSynced = nil
		}
	}()
	period := f.h[0].d.Replication().Period
	limit := f.now + 120*time.Second
	last, quiet := synced, 0
	for quiet < 2 {
		if f.now >= limit {
			return fmt.Errorf("replicas still changing after %v of convergence", limit)
		}
		if err := f.runTo(f.now + period); err != nil {
			return err
		}
		if synced == last {
			quiet++
		} else {
			last, quiet = synced, 0
		}
	}
	return nil
}

// Op kinds, issued in this cycle.
const (
	opCourier = iota
	opRout
	opRrdp
	opRinp
	numOpKinds
)

// op is one workload operation and its outcome.
type op struct {
	kind     int
	due      time.Duration
	issued   time.Duration
	src, dst topology.Location
	resolved bool
	ok       bool
	arrived  bool // couriers: reached dst (AgentArrived)
	stamped  bool // couriers: left its stamp at dst
	died     bool
	lost     bool // couriers: unresolved and hosted nowhere on two checks
	missing  int  // consecutive checks that found the courier hosted nowhere
	lat      time.Duration
}

var stampName = tuplespace.Str("cv")

const keySpace = 8

// opLoop generates ops from the seed and tracks their outcomes through
// the deployments' trace hooks.
type opLoop struct {
	f        *field
	rng      *rand.Rand
	ops      []*op
	couriers []*op // indexed by courier number, carried in the agent
	pending  int
	deaths   int // every agent death, couriers or not
	issue    time.Duration
}

func newOpLoop(f *field, seed int64) *opLoop {
	l := &opLoop{f: f, rng: rand.New(rand.NewSource(seed ^ 0x6f70736c6f6f70))}
	for _, h := range f.h {
		h.d.Trace.TupleOut = func(node topology.Location, t tuplespace.Tuple) {
			if len(t.Fields) != 2 || !t.Fields[0].Equal(stampName) {
				return
			}
			c := l.courier(t.Fields[1])
			if c == nil {
				return
			}
			if node == c.dst && !c.stamped {
				c.stamped, c.ok = true, true
				c.lat = h.d.Sim.Now() - c.due
			}
			l.resolve(c)
		}
		h.d.Trace.AgentArrived = func(node topology.Location, id uint16, kind wire.MigKind, from topology.Location) {
			if c := l.agentCourier(h, node, id); c != nil && node == c.dst {
				c.arrived = true
			}
		}
		h.d.Trace.AgentDied = func(node topology.Location, id uint16, err error) {
			l.deaths++
			// A courier dying in a reassembly buffer has no stack in
			// reach; the drain finds it lost instead.
			if c := l.agentCourier(h, node, id); c != nil && !c.stamped {
				c.died = true
				l.resolve(c)
			}
		}
		h.d.Trace.NodeDied = func(node topology.Location, cause core.DownCause) {
			// A crash drops the mote's pending remote ops silently: the
			// initiator is gone, so they fail here.
			for _, o := range l.ops {
				if o.kind != opCourier && o.src == node && !o.resolved {
					l.resolve(o)
				}
			}
		}
	}
	return l
}

// courier maps a stamp's number field to its courier.
func (l *opLoop) courier(v tuplespace.Value) *op {
	if v.Kind != tuplespace.KindValue || v.A < 0 || int(v.A) >= len(l.couriers) {
		return nil
	}
	return l.couriers[v.A]
}

// agentCourier identifies a hosted agent as a courier by the stack it
// carries: agent IDs repeat across halves and wrap on big fields, the
// courier number on the stack does not.
func (l *opLoop) agentCourier(h *half, node topology.Location, id uint16) *op {
	n := h.d.Node(node)
	if n == nil {
		return nil
	}
	a, ok := n.Agent(id)
	if !ok {
		return nil
	}
	st := a.StackSlice()
	if len(st) < 2 || !st[0].Equal(stampName) {
		return nil
	}
	return l.courier(st[1])
}

// hosted reports whether some mote in the courier's src-dst bounding box
// (where greedy routing keeps it) hosts an agent carrying its number.
func (l *opLoop) hosted(c *op) bool {
	x0, x1 := min(c.src.X, c.dst.X)-1, max(c.src.X, c.dst.X)+1
	y0, y1 := min(c.src.Y, c.dst.Y)-1, max(c.src.Y, c.dst.Y)+1
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			loc := topology.Loc(x, y)
			n := l.f.nodes[loc]
			if n == nil {
				continue
			}
			for _, id := range n.AgentIDs() {
				if l.agentCourier(l.f.halfOf(loc), loc, id) == c {
					return true
				}
			}
		}
	}
	return false
}

// settled checks the unresolved ops: it marks couriers found hosted
// nowhere on two consecutive checks as lost, and reports whether every
// op is now resolved or lost. A reassembly buffer hides an agent for at
// most one receive overhead, far less than the interval between checks.
func (l *opLoop) settled() bool {
	done := true
	for _, o := range l.ops {
		if o.resolved || o.lost {
			continue
		}
		if o.kind == opCourier && !l.hosted(o) {
			o.missing++
			if o.lost = o.missing >= 2; o.lost {
				continue
			}
		} else {
			o.missing = 0
		}
		done = false
	}
	return done
}

// gap draws the time to the next op falling due.
func (l *opLoop) gap() time.Duration {
	return time.Duration(l.rng.ExpFloat64() * float64(l.f.sp.opEvery))
}

func (l *opLoop) resolve(o *op) {
	if !o.resolved {
		o.resolved = true
		l.pending--
	}
}

// courierSrc moves to dst and stamps <"cv", num> wherever it resumes: at
// dst after a successful move, or where the move failed.
func courierSrc(num int, dst topology.Location) string {
	return fmt.Sprintf("pushn cv\npushcl %d\npushc 2\npushloc %d %d\nsmove\nout\nhalt", num, dst.X, dst.Y)
}

// maxCoord is the largest coordinate pushloc can encode (one signed
// byte), so ops stay in the part of a big field a courier can address.
const maxCoord = 127

// pick draws a live source mote and a live destination 1-5 hops away.
func (l *opLoop) pick() (src, dst *core.Node, ok bool) {
	w, h := min(l.f.sp.w, maxCoord), min(l.f.sp.h, maxCoord)
	for try := 0; try < 64; try++ {
		s := topology.Loc(int16(1+l.rng.Intn(w)), int16(1+l.rng.Intn(h)))
		hops := 1 + l.rng.Intn(5)
		dx := l.rng.Intn(hops + 1)
		dy := hops - dx
		if l.rng.Intn(2) == 0 {
			dx = -dx
		}
		if l.rng.Intn(2) == 0 {
			dy = -dy
		}
		d := topology.Loc(s.X+int16(dx), s.Y+int16(dy))
		sn, dn := l.f.nodes[s], l.f.nodes[d]
		if d.X > maxCoord || d.Y > maxCoord || sn == nil || dn == nil || sn.Life() != core.NodeUp || dn.Life() != core.NodeUp {
			continue
		}
		return sn, dn, true
	}
	return nil, nil, false
}

// issueOp starts one op that fell due at virtual time due; latency counts
// from there.
func (l *opLoop) issueOp(due time.Duration) error {
	t0 := time.Now()
	defer func() { l.issue += time.Since(t0) }()
	s := l.f.tr.begin("issue", l.f.span)
	defer l.f.tr.end(s)

	kind := len(l.ops) % numOpKinds
	src, dst, ok := l.pick()
	if !ok {
		return fmt.Errorf("no live source/destination pair after 64 draws")
	}
	o := &op{kind: kind, due: due, issued: l.f.now, src: src.Loc(), dst: dst.Loc()}
	l.ops = append(l.ops, o)
	l.pending++
	h := l.f.halfOf(o.src)
	switch kind {
	case opCourier:
		num := len(l.couriers)
		if num > 1<<15-1 {
			return fmt.Errorf("courier numbers exhausted")
		}
		l.couriers = append(l.couriers, o)
		code, err := asm.Assemble(courierSrc(num, o.dst))
		if err != nil {
			return fmt.Errorf("assemble courier: %w", err)
		}
		if _, err := src.CreateAgent(code); err != nil {
			// The source is full: the op fails at once.
			l.resolve(o)
		}
	default:
		key := tuplespace.Int(int16(l.rng.Intn(keySpace)))
		t := tuplespace.T(tuplespace.Str("k"), key)
		p := tuplespace.Tmpl(tuplespace.Str("k"), key)
		wop := map[int]wire.RemoteOp{opRout: wire.OpRout, opRrdp: wire.OpRrdp, opRinp: wire.OpRinp}[kind]
		src.RemoteOp(wop, o.dst, t, p, func(r wire.RemoteReply, err error) {
			if o.resolved {
				return
			}
			// A miss on rrdp/rinp is a completed read; a rout that was
			// not stored is an error.
			o.ok = err == nil && (kind != opRout || r.OK)
			o.lat = h.d.Sim.Now() - o.due
			l.resolve(o)
		})
	}
	return nil
}

// outcome summarises the op loop.
type outcome struct {
	couriers, couriersOK, remote, remoteOK int
	// unresolved counts ops still in flight after the drain; lost
	// counts couriers that vanished with no stamp and no death.
	unresolved, lost, arrivedUnstamped int
	migLat, remLat                     []float64 // ms, sorted
	lateMean, lateMax                  float64   // ms from falling due to issue
}

func (l *opLoop) outcome() outcome {
	var o outcome
	for _, x := range l.ops {
		ms := float64(x.lat) / float64(time.Millisecond)
		late := float64(x.issued-x.due) / float64(time.Millisecond)
		o.lateMean += late / float64(len(l.ops))
		o.lateMax = max(o.lateMax, late)
		switch {
		case x.lost:
			o.lost++
		case !x.resolved:
			o.unresolved++
		}
		if x.kind == opCourier {
			o.couriers++
			if x.arrived && !x.stamped && !x.died {
				o.arrivedUnstamped++
			}
			if x.ok {
				o.couriersOK++
				o.migLat = append(o.migLat, ms)
			}
			continue
		}
		o.remote++
		if x.ok {
			o.remoteOK++
			o.remLat = append(o.remLat, ms)
		}
	}
	sort.Float64s(o.migLat)
	sort.Float64s(o.remLat)
	return o
}

// band is the diagonal the churn workload kills.
func (sp spec) band() []topology.Location {
	var out []topology.Location
	for _, loc := range topology.GridLocations(sp.w, sp.h) {
		if d := loc.X - loc.Y; d == 0 || d == 1 {
			out = append(out, loc)
		}
	}
	return out
}

// counters are the deterministic totals of a run: they repeat exactly
// for a seed, whatever the host, the chunking or the profiler.
type counters map[string]uint64

func (f *field) counters() counters {
	c := counters{}
	for _, h := range f.h {
		c["kernel.events"] += h.d.Sim.Executed()
		c["kernel.dispatched"] += h.d.Sim.Dispatched()
		st := h.d.TotalStats()
		c["vm.instr"] += st.InstrExecuted
		c["mig.started"] += st.MigrationsOut
		c["mig.ok"] += st.MigrationsOK
		c["mig.fail"] += st.MigrationsFail
		c["remote.ok"] += st.RemoteOK
		c["remote.fail"] += st.RemoteFail
		c["agents.died"] += st.AgentsDied
		c["world.frames_missed"] += st.FramesMissed
		c["replica.digests_sent"] += st.DigestsSent
		c["replica.digests_suppressed"] += st.DigestsSuppressed
		c["replica.tuples_replicated"] += st.TuplesReplicated
		c["replica.tuples_recovered"] += st.TuplesRecovered
		ws := h.d.WorldStats()
		c["world.kills"] += ws.Kills
		c["world.revives"] += ws.Revives
		m := h.d.Medium.Stats()
		c["radio.sent"] += m.Sent
		c["radio.delivered"] += m.Delivered
		c["radio.dropped"] += m.Dropped
		c["radio.bytes"] += m.Bytes
		for _, n := range h.motes {
			c["net.beacons"] += n.Net().Stats().BeaconsSent
		}
		bs := h.br.Stats()
		c["border.relayed"] += bs.Relayed
		c["border.relayed_bytes"] += bs.RelayedBytes
		c["border.injected"] += bs.Injected
		c["border.misrouted"] += bs.Misrouted
		c["border.stale"] += bs.Stale
		c["border.send_errs"] += bs.SendErrs
		for _, ps := range h.tr.Stats() {
			c["transport.sent"] += ps.Sent
			c["transport.recv"] += ps.Recv
			c["transport.batches"] += ps.Batches
			c["transport.dropped"] += ps.Dropped
			c["transport.send_errs"] += ps.SendErrs
		}
	}
	return c
}

func (c counters) sub(o counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - o[k]
	}
	return out
}

// stateHash digests every node's final counters and tuple space plus the
// op outcomes, in location order.
func (f *field) stateHash(l *opLoop) uint64 {
	h := fnv.New64a()
	var buf []byte
	word := func(v uint64) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], v)
		h.Write(buf)
	}
	for _, hf := range f.h {
		for _, n := range hf.d.Nodes() {
			loc := n.Loc()
			word(uint64(sim.Key2D(loc.X, loc.Y)))
			s := n.Stats()
			for _, v := range []uint64{
				s.InstrExecuted, s.AgentsHosted, s.AgentsHalted, s.AgentsDied,
				s.MigrationsOut, s.MigrationsOK, s.MigrationsFail,
				s.RemoteInitiated, s.RemoteOK, s.RemoteFail, s.FramesMissed,
				s.TuplesReplicated, s.TuplesRecovered, s.DigestsSent, s.DigestsSuppressed,
				n.Net().Stats().BeaconsSent, uint64(n.Net().Acquaintances().Len()), uint64(n.Life()),
			} {
				word(v)
			}
			for _, t := range n.Space().All() {
				h.Write(t.Marshal(buf[:0]))
			}
		}
	}
	for _, o := range l.ops {
		word(uint64(o.lat))
		var b uint64
		if o.ok {
			b = 1
		}
		word(b)
	}
	return h.Sum64()
}
