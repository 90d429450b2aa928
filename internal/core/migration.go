package core

import (
	"time"

	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sim"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
	"github.com/agilla-go/agilla/internal/wire"
)

// The agent sender/receiver pair (Figure 4) and the migration protocol of
// §3.2: an agent is divided into state, code, heap, stack, and reaction
// messages (Figure 5) and moved one hop at a time. Every message is
// acknowledged; an unacknowledged message is retransmitted after 0.1 s up
// to four times, and a receiver whose transfer stalls for 0.25 s aborts.
// A sender that cannot complete the handoff resumes the agent locally with
// the condition code cleared — duplicates are preferred over loss.

type migKey struct {
	agentID uint16
	seq     uint16
}

// inKey identifies an inbound transfer on the receiver. The sender's
// location is part of the key: seq counters are per-sender, so two
// different senders may reuse the same (agentID, seq) pair — an agent
// whose walk re-crosses a node would otherwise collide with the stale
// duplicate-suppression entry from its first visit and be silently
// swallowed.
type inKey struct {
	migKey
	from topology.Location
}

// doneEntry is one rememberDone insertion, queued in time order.
type doneEntry struct {
	key inKey
	at  time.Duration
}

// snapshot is everything that travels with an agent.
type snapshot struct {
	kind  wire.MigKind
	dest  topology.Location // final destination
	pc    uint16
	cond  int16
	code  []byte
	heap  []wire.HeapEntry
	stack []tuplespace.Value
	rxns  []tuplespace.Reaction
}

// msgMeta identifies one migration message for ack matching.
type msgMeta struct {
	typ wire.MsgType
	idx uint8
}

// outMigration is the agent sender's per-transfer state.
type outMigration struct {
	key     migKey
	rec     *record
	snap    snapshot
	nextHop topology.Location
	msgs    [][]byte
	metas   []msgMeta
	acked   int
	retries int
	timer   *sim.Event
	origin  bool // false when relaying an agent passing through
}

// inMigration is the agent receiver's per-transfer state. The sender to
// ack (previous hop, or the origin in end-to-end mode) is key.from.
type inMigration struct {
	key        inKey
	st         wire.StateMsg
	haveState  bool
	code       map[uint8][CodeBlockSize]byte
	heap       []wire.HeapEntry
	heapSeen   map[uint8]bool
	stack      map[uint8][]tuplespace.Value
	rxns       map[uint8]tuplespace.Reaction
	stall      *sim.Event
	finalizing bool
	e2e        bool
}

// CodeBlockSize re-exports the wire block size for readability here.
const CodeBlockSize = wire.CodeBlockSize

// migKindOf translates the VM's migration kinds to the wire encoding.
func migKindOf(k vm.MigrateKind) wire.MigKind {
	switch k {
	case vm.StrongMove:
		return wire.MigStrongMove
	case vm.WeakMove:
		return wire.MigWeakMove
	case vm.StrongClone:
		return wire.MigStrongClone
	case vm.WeakClone:
		return wire.MigWeakClone
	default:
		return 0
	}
}

// startMigration handles EffectMigrate: the agent has popped its
// destination and must now move or clone there.
func (n *Node) startMigration(rec *record, out vm.Outcome) {
	kind := migKindOf(out.Migrate)
	dest := out.Dest

	if dest == n.loc {
		n.migrateToSelf(rec, kind)
		return
	}
	rec.state = AgentMigrating
	snap := n.snapshotAgent(rec, kind, dest)
	if n.tracker != nil {
		n.tracker.migStarted(n.sim.Now(), n.loc, rec.agent.ID)
	}
	if n.trace != nil && n.trace.MigrationStarted != nil {
		n.trace.MigrationStarted(n.loc, rec.agent.ID, kind, dest)
	}
	// Packaging the agent costs CPU time before the first byte is sent.
	n.sim.Schedule(n.cfg.MigSendOverhead, func() {
		n.beginTransfer(rec, snap, true)
	})
}

// migrateToSelf implements the degenerate migration to the current node.
func (n *Node) migrateToSelf(rec *record, kind wire.MigKind) {
	switch kind {
	case wire.MigStrongMove, wire.MigWeakMove:
		if !kind.Strong() {
			rec.agent.Reset()
		}
		n.resumeAgent(rec, 1)
	case wire.MigStrongClone, wire.MigWeakClone:
		clone := rec.agent.Clone(n.NextAgentID())
		if !kind.Strong() {
			clone.Reset()
		}
		crec, err := n.admitRecord(clone)
		if err != nil {
			n.resumeAgent(rec, 0)
			return
		}
		if n.tracker != nil {
			n.tracker.cloned(n.sim.Now(), n.loc, rec.agent.ID, clone.ID)
		}
		if kind.Strong() {
			// The clone inherits the parent's registered reactions.
			for _, r := range n.registry.ForAgent(rec.agent.ID) {
				r.AgentID = clone.ID
				_ = n.registry.Register(r)
			}
		}
		clone.Condition = 1
		crec.state = AgentReady
		n.enqueue(crec)
		n.noteArrival(clone.ID, kind, n.loc)
		n.resumeAgent(rec, 1)
	}
}

// snapshotAgent captures the migrating state per Figure 5. Weak operations
// carry only code (§2.2: "In a weak operation, only the code is
// transferred").
func (n *Node) snapshotAgent(rec *record, kind wire.MigKind, dest topology.Location) snapshot {
	a := rec.agent
	snap := snapshot{
		kind: kind,
		dest: dest,
		code: append([]byte(nil), a.Code...),
	}
	if kind.Strong() {
		snap.pc = a.PC
		snap.cond = a.Condition
		for _, i := range a.HeapUsed() {
			snap.heap = append(snap.heap, wire.HeapEntry{Addr: uint8(i), Value: a.Heap[i]})
		}
		snap.stack = a.StackSlice()
		snap.rxns = n.registry.ForAgent(a.ID)
	}
	return snap
}

// beginTransfer resolves the next hop and starts sending. origin marks
// transfers initiated by a local agent (vs. relays).
func (n *Node) beginTransfer(rec *record, snap snapshot, origin bool) {
	if rec.state != AgentMigrating {
		return // agent was reclaimed meanwhile
	}
	n.migSeq++
	om := &outMigration{
		key:    migKey{agentID: rec.agent.ID, seq: n.migSeq},
		rec:    rec,
		snap:   snap,
		origin: origin,
	}
	hop, ok := n.net.NextHop(snap.dest)
	if !ok {
		n.failTransfer(om)
		return
	}
	om.nextHop = hop
	om.msgs, om.metas = n.encodeSnapshot(om)
	n.out[om.key] = om
	n.stats.MigrationsOut++
	n.sendCurrent(om)
}

// encodeSnapshot renders the Figure 5 message sequence.
func (n *Node) encodeSnapshot(om *outMigration) ([][]byte, []msgMeta) {
	var msgs [][]byte
	var metas []msgMeta
	s := om.snap
	id, seq := om.key.agentID, om.key.seq

	nCode := BlocksFor(len(s.code))
	nHeap := (len(s.heap) + wire.HeapVarsPerMsg - 1) / wire.HeapVarsPerMsg
	nStack := (len(s.stack) + wire.StackVarsPerMsg - 1) / wire.StackVarsPerMsg
	nRxn := len(s.rxns)

	st := wire.StateMsg{
		AgentID: id, Seq: seq, Kind: s.kind, Dest: s.dest,
		PC: s.pc, CodeLen: uint16(len(s.code)), Cond: s.cond,
		SP: uint8(len(s.stack)), NCode: uint8(nCode), NHeap: uint8(nHeap),
		NRxn: uint8(nRxn), NStack: uint8(nStack),
	}
	msgs = append(msgs, st.Encode())
	metas = append(metas, msgMeta{wire.MsgState, 0})

	for i := 0; i < nCode; i++ {
		cm := wire.CodeMsg{AgentID: id, Seq: seq, Index: uint8(i)}
		copy(cm.Block[:], s.code[i*CodeBlockSize:])
		msgs = append(msgs, cm.Encode())
		metas = append(metas, msgMeta{wire.MsgCode, uint8(i)})
	}
	for i := 0; i < nHeap; i++ {
		lo := i * wire.HeapVarsPerMsg
		hi := min(lo+wire.HeapVarsPerMsg, len(s.heap))
		b, err := (wire.HeapMsg{AgentID: id, Seq: seq, Index: uint8(i), Entries: s.heap[lo:hi]}).Encode()
		if err != nil {
			continue // unencodable entries are dropped; invariants prevent this
		}
		msgs = append(msgs, b)
		metas = append(metas, msgMeta{wire.MsgHeap, uint8(i)})
	}
	for i := 0; i < nStack; i++ {
		lo := i * wire.StackVarsPerMsg
		hi := min(lo+wire.StackVarsPerMsg, len(s.stack))
		b, err := (wire.StackMsg{AgentID: id, Seq: seq, Index: uint8(i), Values: s.stack[lo:hi]}).Encode()
		if err != nil {
			continue
		}
		msgs = append(msgs, b)
		metas = append(metas, msgMeta{wire.MsgStack, uint8(i)})
	}
	for i, r := range s.rxns {
		b, err := (wire.ReactionMsg{AgentID: id, Seq: seq, Index: uint8(i), PC: r.PC, Template: r.Template}).Encode()
		if err != nil {
			continue
		}
		msgs = append(msgs, b)
		metas = append(metas, msgMeta{wire.MsgReaction, uint8(i)})
	}
	return msgs, metas
}

// sendCurrent transmits the next unacknowledged message and arms the
// retransmission timer. In end-to-end mode all messages go out back to
// back, routed to the final destination, and a single completion ack is
// awaited.
func (n *Node) sendCurrent(om *outMigration) {
	if n.cfg.EndToEndMigration {
		for _, m := range om.msgs {
			env := wire.Envelope{Src: n.loc, Dst: om.snap.dest, TTL: 32, Kind: uint8(radio.KindMigrate), Body: m}
			if hop, ok := n.net.NextHop(om.snap.dest); ok {
				n.net.SendDirect(hop, radio.KindMigrate, env.Encode())
			}
		}
		om.timer = n.sim.Schedule(n.cfg.AckTimeout*10, func() { n.onAckTimeout(om) })
		return
	}
	n.net.SendDirect(om.nextHop, radio.KindMigrate, om.msgs[om.acked])
	om.timer = n.sim.Schedule(n.cfg.AckTimeout, func() { n.onAckTimeout(om) })
}

func (n *Node) onAckTimeout(om *outMigration) {
	if n.out[om.key] != om {
		return
	}
	om.retries++
	if om.retries > n.cfg.MaxRetries {
		n.failTransfer(om)
		return
	}
	n.sendCurrent(om)
}

// recvMigrationAck is the sender half of ack processing. In end-to-end
// mode acks travel in routed envelopes and may need forwarding.
func (n *Node) recvMigrationAck(f radio.Frame) {
	payload := f.Payload
	if n.cfg.EndToEndMigration {
		env, err := wire.DecodeEnvelope(payload)
		if err != nil {
			return
		}
		if env.Dst != n.loc {
			if env.TTL > 0 {
				env.TTL--
				if hop, ok := n.net.NextHop(env.Dst); ok {
					n.net.SendDirect(hop, radio.KindMigrateCtl, env.Encode())
				}
			}
			return
		}
		payload = env.Body
	}
	ack, err := wire.DecodeAck(payload)
	if err != nil {
		return
	}
	key := migKey{agentID: ack.AgentID, seq: ack.Seq}
	om, ok := n.out[key]
	if !ok {
		return
	}
	if n.cfg.EndToEndMigration {
		if ack.Of == wire.MsgState && ack.Index == 0xff {
			n.finishTransferOK(om)
		}
		return
	}
	want := om.metas[om.acked]
	if ack.Of != want.typ || ack.Index != want.idx {
		return // stale ack for an already-confirmed message
	}
	if om.timer != nil {
		om.timer.Cancel()
		om.timer = nil
	}
	om.acked++
	om.retries = 0
	if om.acked == len(om.msgs) {
		n.finishTransferOK(om)
		return
	}
	n.sendCurrent(om)
}

// finishTransferOK concludes a fully acknowledged handoff.
func (n *Node) finishTransferOK(om *outMigration) {
	n.clearOut(om)
	n.stats.MigrationsOK++
	isClone := om.snap.kind == wire.MigStrongClone || om.snap.kind == wire.MigWeakClone
	// Clone transfers travel under the parent's ID (the clone's ID is
	// minted at the destination), so crediting these hops would inflate
	// a stationary cloning agent's hop count.
	if n.tracker != nil && !isClone {
		n.tracker.hopDone(n.sim.Now(), n.loc, om.key.agentID, true)
	}
	if n.trace != nil && n.trace.MigrationDone != nil {
		n.trace.MigrationDone(n.loc, om.key.agentID, om.snap.kind, om.snap.dest, true)
	}
	if om.origin && isClone {
		// The original keeps running with the condition set (§2.2).
		n.resumeAgent(om.rec, 1)
		return
	}
	// Moves, injections, and relayed agents leave this node entirely.
	n.reclaim(om.rec.agent.ID)
}

// failTransfer implements the paper's failure semantics: "If the sender
// detects a failure, it resumes the agent running on the local machine
// with the condition code set to zero. While this may result in duplicate
// agents, the alternative is to simply kill the agent."
func (n *Node) failTransfer(om *outMigration) {
	n.clearOut(om)
	n.stats.MigrationsFail++
	if n.tracker != nil {
		n.tracker.hopDone(n.sim.Now(), n.loc, om.key.agentID, false)
	}
	if n.trace != nil && n.trace.MigrationDone != nil {
		n.trace.MigrationDone(n.loc, om.key.agentID, om.snap.kind, om.snap.dest, false)
	}
	n.resumeAgent(om.rec, 0)
}

func (n *Node) clearOut(om *outMigration) {
	if om.timer != nil {
		om.timer.Cancel()
		om.timer = nil
	}
	delete(n.out, om.key)
}

// --- receiver side -------------------------------------------------------

// recvMigrationData handles hop-by-hop migration messages.
func (n *Node) recvMigrationData(f radio.Frame) {
	payload := f.Payload
	e2e := false
	from := f.Src
	// End-to-end mode wraps messages in routed envelopes; unwrap or
	// forward them.
	if n.cfg.EndToEndMigration {
		env, err := wire.DecodeEnvelope(payload)
		if err != nil {
			return
		}
		if env.Dst != n.loc {
			if env.TTL > 0 {
				env.TTL--
				if hop, ok := n.net.NextHop(env.Dst); ok {
					n.net.SendDirect(hop, radio.KindMigrate, env.Encode())
				}
			}
			return
		}
		payload = env.Body
		from = env.Src
		e2e = true
	}
	n.acceptMigrationMsg(payload, from, e2e)
}

func (n *Node) acceptMigrationMsg(payload []byte, from topology.Location, e2e bool) {
	t, err := wire.Type(payload)
	if err != nil {
		return
	}
	switch t {
	case wire.MsgState:
		st, err := wire.DecodeState(payload)
		if err != nil {
			return
		}
		n.recvState(st, from, e2e)
	case wire.MsgCode:
		m, err := wire.DecodeCode(payload)
		if err != nil {
			return
		}
		key := inKey{migKey{m.AgentID, m.Seq}, from}
		im := n.liveIn(key, wire.MsgCode, m.Index)
		if im == nil {
			return
		}
		im.code[m.Index] = m.Block
		n.touchIn(im, wire.MsgCode, m.Index)
	case wire.MsgHeap:
		m, err := wire.DecodeHeap(payload)
		if err != nil {
			return
		}
		key := inKey{migKey{m.AgentID, m.Seq}, from}
		im := n.liveIn(key, wire.MsgHeap, m.Index)
		if im == nil {
			return
		}
		if !im.heapSeen[m.Index] {
			im.heapSeen[m.Index] = true
			im.heap = append(im.heap, m.Entries...)
		}
		n.touchIn(im, wire.MsgHeap, m.Index)
	case wire.MsgStack:
		m, err := wire.DecodeStack(payload)
		if err != nil {
			return
		}
		key := inKey{migKey{m.AgentID, m.Seq}, from}
		im := n.liveIn(key, wire.MsgStack, m.Index)
		if im == nil {
			return
		}
		im.stack[m.Index] = m.Values
		n.touchIn(im, wire.MsgStack, m.Index)
	case wire.MsgReaction:
		m, err := wire.DecodeReaction(payload)
		if err != nil {
			return
		}
		key := inKey{migKey{m.AgentID, m.Seq}, from}
		im := n.liveIn(key, wire.MsgReaction, m.Index)
		if im == nil {
			return
		}
		im.rxns[m.Index] = tuplespace.Reaction{AgentID: m.AgentID, Template: m.Template, PC: m.PC}
		n.touchIn(im, wire.MsgReaction, m.Index)
	}
}

// recvState opens (or re-acks) an inbound transfer.
func (n *Node) recvState(st wire.StateMsg, from topology.Location, e2e bool) {
	key := inKey{migKey{st.AgentID, st.Seq}, from}
	if _, finished := n.done[key]; finished {
		n.ackIn(from, key, wire.MsgState, 0, e2e)
		return
	}
	if im, ok := n.in[key]; ok {
		n.touchIn(im, wire.MsgState, 0)
		return
	}
	// Admission control: an agent slot plus instruction memory must be
	// available before the transfer is accepted. A refused transfer is
	// silently ignored; the sender times out and resumes the agent.
	if len(n.agents)+n.reserve >= n.cfg.MaxAgents || !n.instr.CanAlloc(int(st.CodeLen)) {
		return
	}
	if _, hosted := n.agents[st.AgentID]; hosted && (st.Kind == wire.MigStrongMove || st.Kind == wire.MigWeakMove || st.Kind == wire.MigInject) {
		return // an agent with this identity already lives here
	}
	n.reserve++
	im := &inMigration{
		key:      key,
		st:       st,
		code:     make(map[uint8][CodeBlockSize]byte),
		heapSeen: make(map[uint8]bool),
		stack:    make(map[uint8][]tuplespace.Value),
		rxns:     make(map[uint8]tuplespace.Reaction),
		e2e:      e2e,
	}
	im.haveState = true
	n.in[key] = im
	n.touchIn(im, wire.MsgState, 0)
}

// liveIn fetches the open transfer for a data message, re-acking messages
// that belong to an already-finalized transfer.
func (n *Node) liveIn(key inKey, t wire.MsgType, idx uint8) *inMigration {
	if im, ok := n.in[key]; ok {
		return im
	}
	if _, finished := n.done[key]; finished {
		n.ackIn(key.from, key, t, idx, n.cfg.EndToEndMigration)
	}
	return nil
}

// touchIn acks a message, resets the stall timer, and finalizes when the
// transfer is complete.
func (n *Node) touchIn(im *inMigration, t wire.MsgType, idx uint8) {
	if !im.e2e {
		n.ackIn(im.key.from, im.key, t, idx, false)
	}
	if im.finalizing {
		return
	}
	if im.stall != nil {
		im.stall.Cancel()
	}
	im.stall = n.sim.Schedule(n.cfg.ReceiverStall, func() { n.abortIn(im) })
	if n.inComplete(im) {
		im.finalizing = true
		im.stall.Cancel()
		im.stall = nil
		// Reassembling and installing the agent costs CPU time.
		n.sim.Schedule(n.cfg.MigRecvOverhead, func() { n.finalizeIn(im) })
	}
}

// ackIn sends one acknowledgment back to the previous hop (or, end-to-end,
// the completion ack back to the origin).
func (n *Node) ackIn(to topology.Location, key inKey, t wire.MsgType, idx uint8, e2e bool) {
	ack := wire.AckMsg{AgentID: key.agentID, Seq: key.seq, Of: t, Index: idx}
	if e2e {
		ack.Of, ack.Index = wire.MsgState, 0xff
		env := wire.Envelope{Src: n.loc, Dst: to, TTL: 32, Kind: uint8(radio.KindMigrateCtl), Body: ack.Encode()}
		if hop, ok := n.net.NextHop(to); ok {
			n.net.SendDirect(hop, radio.KindMigrateCtl, env.Encode())
		}
		return
	}
	n.net.SendDirect(to, radio.KindMigrateCtl, ack.Encode())
}

func (n *Node) inComplete(im *inMigration) bool {
	if !im.haveState {
		return false
	}
	if len(im.code) < int(im.st.NCode) {
		return false
	}
	if len(im.heapSeen) < int(im.st.NHeap) {
		return false
	}
	if len(im.stack) < int(im.st.NStack) {
		return false
	}
	return len(im.rxns) >= int(im.st.NRxn)
}

// abortIn implements the receiver stall abort (§3.2).
func (n *Node) abortIn(im *inMigration) {
	if n.in[im.key] != im || im.finalizing {
		return
	}
	delete(n.in, im.key)
	n.reserve--
}

// finalizeIn instantiates the transferred agent, either to run here (final
// destination) or to be relayed onward.
func (n *Node) finalizeIn(im *inMigration) {
	if n.in[im.key] != im {
		return
	}
	delete(n.in, im.key)
	n.reserve--
	n.rememberDone(im.key)
	if im.e2e {
		// End-to-end mode: one completion ack, routed back to the origin.
		n.ackIn(im.key.from, im.key, wire.MsgState, 0xff, true)
	}

	st := im.st
	code := make([]byte, 0, int(st.CodeLen))
	for i := uint8(0); i < st.NCode; i++ {
		block := im.code[i]
		code = append(code, block[:]...)
	}
	if len(code) > int(st.CodeLen) {
		code = code[:st.CodeLen]
	}

	atDest := n.loc == st.Dest
	id := st.AgentID
	isClone := st.Kind == wire.MigStrongClone || st.Kind == wire.MigWeakClone
	if atDest && isClone {
		// "A cloned agent is assigned a new ID" (§3.3).
		id = n.NextAgentID()
	}
	if _, hosted := n.agents[id]; hosted {
		return // duplicate arrival of an agent that already lives here
	}

	a := vm.NewAgent(id, code)
	if st.Kind.Strong() {
		a.PC = st.PC
		a.Condition = st.Cond
		var stack []tuplespace.Value
		for i := uint8(0); i < st.NStack; i++ {
			stack = append(stack, im.stack[i]...)
		}
		if err := a.SetStack(stack); err != nil {
			return // corrupt transfer; drop
		}
		for _, e := range im.heap {
			if int(e.Addr) < vm.HeapSlots {
				a.Heap[e.Addr] = e.Value
			}
		}
	}

	rec, err := n.admitRecord(a)
	if err != nil {
		return // capacity vanished despite the reservation; drop
	}
	// Restore the agent's reactions (§3.2: "When an agent arrives, it
	// automatically restores all of the agent's reactions").
	if st.Kind.Strong() {
		for i := uint8(0); i < st.NRxn; i++ {
			r := im.rxns[i]
			r.AgentID = id
			_ = n.registry.Register(r)
		}
	}

	if atDest {
		if !st.Kind.Strong() {
			a.Reset()
		}
		rec.state = AgentReady
		a.Condition = 1
		n.enqueue(rec)
		if isClone && n.tracker != nil {
			n.tracker.cloned(n.sim.Now(), n.loc, st.AgentID, id)
		}
		n.noteArrival(id, st.Kind, im.key.from)
		return
	}
	// Relay: keep the agent suspended and continue toward the final
	// destination. If forwarding fails the agent becomes resident here
	// with condition zero (duplicate-tolerant semantics).
	rec.state = AgentMigrating
	snap := n.snapshotAgent(rec, st.Kind, st.Dest)
	// Preserve in-flight register state for strong transfers.
	snap.pc, snap.cond = st.PC, st.Cond
	n.sim.Schedule(n.cfg.MigSendOverhead, func() {
		n.beginTransfer(rec, snap, false)
	})
}

// admitRecord installs an agent without enqueueing it; callers decide when
// it becomes runnable.
func (n *Node) admitRecord(a *vm.Agent) (*record, error) {
	if len(n.agents) >= n.cfg.MaxAgents {
		return nil, ErrAgentLimit
	}
	if err := n.instr.Alloc(a.ID, len(a.Code)); err != nil {
		return nil, err
	}
	rec := &record{agent: a, state: AgentMigrating, arrivedAt: n.sim.Now()}
	rec.wakeFn = func() {
		if rec.state != AgentSleeping {
			return
		}
		rec.wake = nil
		rec.state = AgentReady
		n.enqueue(rec)
	}
	if n.burst {
		rec.prog = progCache.Get(a.Code) // nil when the code does not verify
	}
	n.agents[a.ID] = rec
	n.stats.AgentsHosted++
	n.replicaMuted(func() {
		_ = n.space.Out(tuplespace.T(tuplespace.Str("agt"), tuplespace.AgentIDV(a.ID)))
	})
	return rec, nil
}

// rememberDone records a finalized transfer so retransmitted stragglers
// are re-acked instead of reopening the transfer. Entries are garbage
// collected after a grace period. Node time is monotonic, so the queue
// beside the map holds insertions oldest first and expiry pops only its
// front; a key finalized again since its entry was queued carries a
// newer time in the map, and its stale entry expires without deleting
// it.
func (n *Node) rememberDone(key inKey) {
	now := n.sim.Now()
	n.done[key] = now
	n.doneQ = append(n.doneQ, doneEntry{key, now})
	const grace = 3 * time.Second
	for len(n.doneQ) > 0 && now-n.doneQ[0].at > grace {
		old := n.doneQ[0]
		n.doneQ = n.doneQ[1:]
		if n.done[old.key] == old.at {
			delete(n.done, old.key)
		}
	}
}
