package core

import (
	"testing"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/topology"
)

// TestTrackerIDReuse: a node's 8-bit agent counter wraps, so long
// deployments reuse 16-bit agent IDs. A creation landing on a dead
// record must start a fresh lifetime, not resurrect the dead agent's
// stats.
func TestTrackerIDReuse(t *testing.T) {
	d, err := NewDeployment(DeploymentSpec{Layout: topology.GridLayout(2, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	code := asm.MustAssemble("halt")

	first, err := d.Base.CreateAgent(code)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Base.KillAgent(first) {
		t.Fatal("kill failed")
	}
	// Burn through the remaining 255 counter values so the next ID
	// wraps back to the first.
	for i := 0; i < 255; i++ {
		id, err := d.Base.CreateAgent(code)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		d.Base.KillAgent(id)
	}
	dead, ok := d.AgentRecord(first)
	if !ok || !dead.Done() {
		t.Fatalf("pre-reuse record should be dead: %+v ok=%v", dead, ok)
	}

	reused, err := d.Base.CreateAgent(code)
	if err != nil {
		t.Fatal(err)
	}
	if reused != first {
		t.Fatalf("expected ID reuse after wrap: first=%d reused=%d", first, reused)
	}
	rec, ok := d.AgentRecord(reused)
	if !ok {
		t.Fatal("reused agent untracked")
	}
	if rec.Done() {
		t.Fatalf("fresh agent under a reused ID reports dead: %+v", rec)
	}
	if rec.Hops != 0 || rec.Clones != 0 || rec.Halted || rec.Err != nil {
		t.Fatalf("reused ID inherited the dead lifetime's stats: %+v", rec)
	}
}
