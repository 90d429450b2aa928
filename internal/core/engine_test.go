package core

import (
	"strings"
	"testing"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/radio"
	"github.com/agilla-go/agilla/internal/sensor"
	"github.com/agilla-go/agilla/internal/topology"
	"github.com/agilla-go/agilla/internal/tuplespace"
	"github.com/agilla-go/agilla/internal/vm"
)

// quietDeployment builds a small zero-loss testbed for protocol tests.
func quietDeployment(t *testing.T, w, h int) *Deployment {
	t.Helper()
	params := radio.ZeroLoss()
	d, err := NewDeployment(DeploymentSpec{
		Layout: topology.GridLayout(w, h), Seed: 1, Radio: &params,
		Field: sensor.Constant(25),
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	return d
}

// runFor advances virtual time by dt.
func runFor(t *testing.T, d *Deployment, dt time.Duration) {
	t.Helper()
	if err := d.Sim.Run(d.Sim.Now() + dt); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestAgentRunsAndHalts(t *testing.T) {
	d := quietDeployment(t, 2, 1)
	n := d.Node(topology.Loc(1, 1))

	code := asm.MustAssemble(`
		pushc 42
		pushc 1
		out     // <42>
		halt
	`)
	id, err := n.CreateAgent(code)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	runFor(t, d, time.Second)

	if _, ok := n.AgentInfo(id); ok {
		t.Error("halted agent not reclaimed")
	}
	if _, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.Int(42))); !ok {
		t.Error("tuple <42> not inserted")
	}
	if n.Stats().AgentsHalted != 1 {
		t.Errorf("AgentsHalted = %d", n.Stats().AgentsHalted)
	}
	// Resources released.
	if n.InstrMem().FreeBlocks() != n.InstrMem().TotalBlocks() {
		t.Error("instruction memory leaked")
	}
	if _, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.Str("agt"), tuplespace.AgentIDV(id))); ok {
		t.Error("agent context tuple not removed on death")
	}
}

func TestAgentErrorReclaims(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	var diedID uint16
	var diedErr error
	d.Trace.AgentDied = func(_ topology.Location, id uint16, err error) {
		diedID, diedErr = id, err
	}
	// pop on an empty stack is a fatal agent error. The assembler's
	// static verifier rejects this program, so build the bytes by hand —
	// the engine must still reclaim an agent that dies at runtime.
	id, err := n.CreateAgent([]byte{byte(vm.OpPop), byte(vm.OpHalt)})
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	if diedID != id || diedErr == nil {
		t.Errorf("death not traced: id=%d err=%v", diedID, diedErr)
	}
	if n.NumAgents() != 0 {
		t.Error("dead agent still hosted")
	}
}

func TestSleepSuspends(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	// Sleep 8 ticks = 1 s, then out a tuple.
	code := asm.MustAssemble(`
		pushc 8
		sleep
		pushc 7
		pushc 1
		out
		halt
	`)
	if _, err := n.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 900*time.Millisecond)
	if _, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.Int(7))); ok {
		t.Fatal("agent acted before its sleep expired")
	}
	runFor(t, d, 300*time.Millisecond)
	if _, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.Int(7))); !ok {
		t.Error("agent did not resume after sleep")
	}
}

func TestBlockingInWakesOnInsert(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	// Consumer blocks on in(<value-wildcard>) — a template no context
	// tuple matches — then re-outs the value incremented.
	consumer := asm.MustAssemble(`
		pusht VALUE
		pushc 1
		in
		pop      // field count
		inc
		pushc 1
		out
		halt
	`)
	cid, err := n.CreateAgent(consumer)
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	if st, _ := n.AgentInfo(cid); st != AgentBlocked {
		t.Fatalf("consumer state = %v, want blocked", st)
	}

	// Producer inserts <9>; consumer must wake and produce <10>.
	if _, err := n.CreateAgent(asm.MustAssemble("pushc 9\npushc 1\nout\nhalt")); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	if _, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.Int(10))); !ok {
		t.Error("blocked agent did not wake and process the tuple")
	}
	if _, ok := n.AgentInfo(cid); ok {
		t.Error("consumer should have halted")
	}
}

func TestWaitAndReaction(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	// The FIRETRACKER pattern (Figure 2): register a reaction on
	// <"fir", location>, wait, and on firing clone... here we out a
	// marker instead of cloning to keep the test local.
	tracker := asm.MustAssemble(`
		     pushn fir
		     pusht LOCATION
		     pushc 2
		     pushcl FIRE
		     regrxn
		     wait
		FIRE pop      // field count pushed by the firing
		     pop      // the location field
		     pop      // the "fir" string field
		     pushc 99
		     pushc 1
		     out      // marker <99>
		     halt
	`)
	tid, err := n.CreateAgent(tracker)
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	if st, _ := n.AgentInfo(tid); st != AgentWaiting {
		t.Fatalf("tracker state = %v, want waiting", st)
	}
	if n.Registry().Len() != 1 {
		t.Fatalf("reaction not registered")
	}

	// A detector-style agent inserts the fire tuple locally.
	detector := asm.MustAssemble(`
		pushn fir
		loc
		pushc 2
		out
		halt
	`)
	if _, err := n.CreateAgent(detector); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	if _, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.Int(99))); !ok {
		t.Error("reaction did not fire on matching insert")
	}
	if n.Stats().ReactionsFired == 0 {
		t.Error("ReactionsFired not counted")
	}
}

func TestReactionSavesPC(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	// The reaction pops the tuple then returns to the interrupted point
	// via jumps; the main line then halts after outing <55>.
	agent := asm.MustAssemble(`
		     pusht VALUE
		     pushc 1
		     pushcl RXN
		     regrxn
		     wait
		DONE pushc 55
		     pushc 1
		     out
		     halt
		RXN  pop      // field count
		     pop      // the matched value
		     jumps    // resume at saved PC (the wait; it re-suspends...
		              // so instead the saved PC is past wait when woken)
	`)
	if _, err := n.CreateAgent(agent); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	// Fire the reaction.
	if _, err := n.CreateAgent(asm.MustAssemble("pushc 3\npushc 1\nout\nhalt")); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 2*time.Second)
	// After the reaction, jumps returns to the saved PC. The agent was at
	// `wait`; waking from wait advanced PC past it, so the saved PC is
	// DONE and the agent finishes.
	if _, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.Int(55))); !ok {
		t.Error("agent did not resume at saved PC after reaction")
	}
}

func TestAgentLimit(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	// Agents that sleep forever occupy their slots.
	sleeper := asm.MustAssemble("pushcl 30000\nsleep\nhalt")
	for i := 0; i < DefaultMaxAgents; i++ {
		if _, err := n.CreateAgent(sleeper); err != nil {
			t.Fatalf("agent %d rejected: %v", i, err)
		}
	}
	if _, err := n.CreateAgent(sleeper); err == nil {
		t.Error("5th agent must be rejected (§3.2: up to 4 agents)")
	} else if !strings.Contains(err.Error(), "agent limit") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestInstructionMemoryLimitRejectsBigAgent(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	// 442 bytes of code exceeds the 20-block budget.
	var sb strings.Builder
	for i := 0; i < 147; i++ {
		sb.WriteString("pushc 1\npop\n") // 3 bytes per pair
	}
	sb.WriteString("halt\n")
	big := asm.MustAssemble(sb.String()) // 442 bytes
	if len(big) <= 440 {
		t.Fatalf("test program only %d bytes", len(big))
	}
	if _, err := n.CreateAgent(big); err == nil {
		t.Error("agent larger than instruction memory must be rejected")
	}
}

func TestRoundRobinInterleaving(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	var order []uint16
	d.Trace.InstrExecuted = func(_ topology.Location, id uint16, _ vm.Op) {
		order = append(order, id)
	}
	// Two long-running agents; each slice is 4 instructions.
	loop := asm.MustAssemble(`
		TOP pushc 1
		    pop
		    rjump TOP
	`)
	a, err := n.CreateAgent(loop)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.CreateAgent(loop)
	if err != nil {
		t.Fatal(err)
	}
	runFor(t, d, 20*time.Millisecond)

	// Expect alternating runs of at most Slice instructions per agent.
	runs := 0
	cur := uint16(0)
	runLen := 0
	sawBoth := map[uint16]bool{}
	for _, id := range order {
		sawBoth[id] = true
		if id != cur {
			cur = id
			runs++
			runLen = 1
			continue
		}
		runLen++
		if runLen > DefaultSlice {
			t.Fatalf("agent %d ran %d consecutive instructions (slice=%d)", id, runLen, DefaultSlice)
		}
	}
	if !sawBoth[a] || !sawBoth[b] {
		t.Fatalf("both agents must run: %v", sawBoth)
	}
	if runs < 4 {
		t.Errorf("expected several context switches, got %d", runs)
	}
}

func TestSenseReadsField(t *testing.T) {
	d := quietDeployment(t, 1, 1) // field reads 25 everywhere
	n := d.Node(topology.Loc(1, 1))

	code := asm.MustAssemble(`
		pushc TEMPERATURE
		sense
		pushc 1
		out      // <reading{temp=25}>
		halt
	`)
	if _, err := n.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	got, ok := n.Space().Rdp(tuplespace.Tmpl(
		tuplespace.TypeV(tuplespace.TypeOfSensor(tuplespace.SensorTemperature))))
	if !ok {
		t.Fatal("reading tuple not inserted")
	}
	if got.Fields[0].B != 25 {
		t.Errorf("reading = %d, want 25", got.Fields[0].B)
	}
}

func TestContextTuplesSeeded(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))

	// Location tuple.
	if _, ok := n.Space().Rdp(tuplespace.Tmpl(
		tuplespace.Str("loc"), tuplespace.LocV(topology.Loc(1, 1)))); !ok {
		t.Error("location context tuple missing")
	}
	// Sensor tuples for the default board.
	for _, s := range sensor.DefaultSensors() {
		if _, ok := n.Space().Rdp(tuplespace.Tmpl(
			tuplespace.Str("sns"), tuplespace.TypeV(tuplespace.TypeOfSensor(s)))); !ok {
			t.Errorf("sensor context tuple for %v missing", s)
		}
	}
}

func TestLED(t *testing.T) {
	d := quietDeployment(t, 1, 1)
	n := d.Node(topology.Loc(1, 1))
	if _, err := n.CreateAgent(asm.MustAssemble("pushc 5\nputled\nhalt")); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	if n.LED() != 5 {
		t.Errorf("LED = %d, want 5", n.LED())
	}
}

func TestNeighborInstructions(t *testing.T) {
	d := quietDeployment(t, 3, 1)
	if err := d.WarmUp(); err != nil {
		t.Fatal(err)
	}
	n := d.Node(topology.Loc(2, 1))

	// numnbrs should see (1,1) and (3,1); out the count.
	code := asm.MustAssemble(`
		numnbrs
		pushc 1
		out
		halt
	`)
	if _, err := n.CreateAgent(code); err != nil {
		t.Fatal(err)
	}
	runFor(t, d, time.Second)
	got, ok := n.Space().Rdp(tuplespace.Tmpl(tuplespace.TypeV(tuplespace.TypeValue)))
	if !ok {
		t.Fatal("count tuple missing")
	}
	// (2,1) hears (1,1), (3,1) — and not the base station at (0,0).
	if got.Fields[0].A != 2 {
		t.Errorf("numnbrs = %d, want 2", got.Fields[0].A)
	}
}
