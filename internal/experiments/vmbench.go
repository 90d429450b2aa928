package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/asm"
	"github.com/agilla-go/agilla/internal/core"
	"github.com/agilla-go/agilla/internal/topology"
)

// The vm experiment benchmarks the execution engine in isolation: the
// same compute-loop workload run under both execution backends — the
// seed per-event interpreter (step) and the burst engine driving
// compiled closures (auto). The workload is deterministic in virtual
// time, so both modes execute the identical instruction stream and must
// finish with the identical state hash; only the wall clock differs.
// The speedup column is step's wall clock over each mode's.

// vmLoopSrc is the maximal-burst workload: pure straight-line compute
// with a relative jump, no host effects, no blocking.
const vmLoopSrc = `
	LOOP pushc 1
	     pushc 2
	     add
	     pop
	     rjump LOOP
`

// VMRow is one execution-mode measurement.
type VMRow struct {
	Mode        string  `json:"mode"`
	Nodes       int     `json:"nodes"`
	Agents      int     `json:"agents"`
	Events      uint64  `json:"events"`
	Dispatched  uint64  `json:"dispatched"`
	Instr       uint64  `json:"instr"`
	Hash        string  `json:"hash"`
	VirtualSecs float64 `json:"virtual_secs"`
	WallSecs    float64 `json:"wall_secs"`
	InstrPerSec float64 `json:"instr_per_sec"`
	NsPerInstr  float64 `json:"ns_per_instr"`
	Speedup     float64 `json:"speedup"`
}

// VMResult is the two-mode comparison.
type VMResult struct {
	Rows []VMRow
}

// JSON renders the rows as the machine-readable BENCH_vm.json schema.
func (r *VMResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Rows, "", "  ")
}

func (r *VMResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "VM execution backends: identical instruction stream, wall clock compared\n")
	fmt.Fprintf(&b, "%-6s %6s %7s %12s %12s %12s %10s %8s  %s\n",
		"mode", "nodes", "agents", "instr", "instr/sec", "ns/instr", "wall(s)", "speedup", "hash")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-6s %6d %7d %12d %12.0f %12.1f %10.2f %7.2fx  %s\n",
			row.Mode, row.Nodes, row.Agents, row.Instr,
			row.InstrPerSec, row.NsPerInstr, row.WallSecs, row.Speedup, row.Hash)
	}
	b.WriteString("(instr, events, hash must be identical across modes — step is the oracle)")
	return b.String()
}

// VM runs the backend comparison. Modes run in oracle-first order so the
// speedup baseline is the seed interpreter's wall clock.
func VM(cfg Config) (*VMResult, error) {
	cfg = cfg.withDefaults()
	grid, agents, virtual := 4, 2, 2*time.Second
	if cfg.Quick {
		virtual = 500 * time.Millisecond
	}
	modes := []struct {
		name string
		exec core.ExecMode
	}{
		{"step", core.ExecStep},
		{"auto", core.ExecAuto},
	}
	res := &VMResult{}
	var baseline float64
	for _, m := range modes {
		row, err := vmRun(m.name, m.exec, grid, agents, virtual, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("vm %s: %w", m.name, err)
		}
		if m.name == "step" {
			baseline = row.WallSecs
		}
		if row.WallSecs > 0 {
			row.Speedup = baseline / row.WallSecs
		}
		if first := res.Rows; len(first) > 0 && (first[0].Hash != row.Hash || first[0].Instr != row.Instr) {
			return nil, fmt.Errorf("vm %s diverged from step oracle: instr %d vs %d, hash %s vs %s",
				m.name, row.Instr, first[0].Instr, row.Hash, first[0].Hash)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// vmRun executes the compute workload under one backend and measures it.
func vmRun(name string, exec core.ExecMode, grid, agents int, virtual time.Duration, seed int64) (VMRow, error) {
	d, err := core.NewDeployment(core.DeploymentSpec{
		Layout: topology.GridLayout(grid, grid),
		Seed:   seed,
		Node:   core.Config{Exec: exec},
	})
	if err != nil {
		return VMRow{}, err
	}
	code, err := asm.Assemble(vmLoopSrc)
	if err != nil {
		return VMRow{}, err
	}
	for _, n := range d.Motes() {
		for i := 0; i < agents; i++ {
			if _, err := n.CreateAgent(code); err != nil {
				return VMRow{}, err
			}
		}
	}
	d.Start()
	start := time.Now()
	if err := d.Sim.Run(virtual); err != nil {
		return VMRow{}, err
	}
	wall := time.Since(start).Seconds()

	stats := d.TotalStats()
	row := VMRow{
		Mode:        name,
		Nodes:       grid * grid,
		Agents:      grid * grid * agents,
		Events:      d.Sim.Executed(),
		Dispatched:  d.Sim.Dispatched(),
		Instr:       stats.InstrExecuted,
		Hash:        fmt.Sprintf("%016x", scaleHash(d)),
		VirtualSecs: virtual.Seconds(),
		WallSecs:    wall,
	}
	if wall > 0 {
		row.InstrPerSec = float64(row.Instr) / wall
		row.NsPerInstr = wall * 1e9 / float64(row.Instr)
	}
	return row, nil
}
