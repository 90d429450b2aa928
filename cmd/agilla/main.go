// Command agilla runs an Agilla network and injects agents into it from
// the command line, standing in for the paper's laptop base-station tool
// (§3.1: "a Java application that allows a user to interact with the WSN
// by injecting agents and performing remote tuple space operations").
//
// Usage:
//
//	agilla -inject prog.agilla -at 3,3 -run 30s
//	agilla -topo ring -nodes 12 -watch            # prints the mote list for -at
//	agilla -topo disk -nodes 20 -side 8 -range 2.5 -seed 3
//	agilla asm prog.agilla -o prog.bin            # assemble + verify
//	agilla asm prog.agilla                        # ... and print the report
//	agilla disasm prog.bin                        # bytecode (or source) -> listing
//	agilla vet -strict -lib examples/agents       # dataflow + energy analysis
//	agilla serve -listen udp:127.0.0.1:7001 \
//	    -peer udp:127.0.0.1:7002=4-6,1-4+100,100  # one process of a split field
//
// The program file uses the assembly dialect of the paper's Figures 2, 8,
// and 13; see the program package. The asm subcommand runs the static
// verifier and reports size, instruction count, and worst-case stack
// depth; disasm accepts either raw bytecode or source text; vet runs the
// full static dataflow and energy analysis (program.Analyze) over source
// files, bytecode, directories, or library agent names and fails on
// error-level findings (see its -budget and -strict flags). After a
// simulation run the tool dumps every node's tuple space and agent
// census.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/agilla-go/agilla"
	"github.com/agilla-go/agilla/program"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "asm":
		err = runAsm(args[1:])
	case len(args) > 0 && args[0] == "disasm":
		err = runDisasm(args[1:])
	case len(args) > 0 && args[0] == "vet":
		err = runVet(args[1:])
	case len(args) > 0 && args[0] == "serve":
		err = runServe(args[1:])
	default:
		err = run(args)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "agilla: %v\n", err)
		os.Exit(1)
	}
}

// runAsm assembles and verifies a source file, printing the verifier's
// report; with -o it also writes the bytecode.
func runAsm(args []string) error {
	fs := flag.NewFlagSet("agilla asm", flag.ExitOnError)
	out := fs.String("o", "", "write the assembled bytecode to this file")
	quiet := fs.Bool("q", false, "suppress the disassembly listing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: agilla asm [-o out.bin] prog.agilla")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	p, err := program.Parse(string(src))
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d bytes, %d instructions, worst-case stack depth %d/16\n",
		fs.Arg(0), p.Len(), p.Instructions(), p.MaxStackDepth())
	if *out != "" {
		if err := os.WriteFile(*out, p.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
	} else if !*quiet {
		fmt.Print(p.Disassemble())
	}
	return nil
}

// runDisasm prints the listing for a program file holding either raw
// bytecode (e.g. from `agilla asm -o`) or assembly source.
func runDisasm(args []string) error {
	fs := flag.NewFlagSet("agilla disasm", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: agilla disasm prog.bin|prog.agilla")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	code := data
	if looksLikeSource(data) {
		p, err := program.Parse(string(data))
		if err != nil {
			return err
		}
		code = p.Bytes()
	}
	// Decode-only on purpose: a disassembler must print anything that
	// decodes, including bytecode the static verifier would refuse to
	// launch (captured mid-experiment, older toolchains, death tests).
	text, err := program.Disassemble(code)
	if err != nil {
		return err
	}
	fmt.Printf("%d bytes\n%s", len(code), text)
	return nil
}

// looksLikeSource distinguishes assembly text from raw bytecode: source
// is valid UTF-8 with no control bytes besides whitespace, while any
// real program's bytecode starts with an opcode that is one.
func looksLikeSource(data []byte) bool {
	if !utf8.Valid(data) {
		return false
	}
	for _, b := range data {
		if b < 0x20 && b != '\n' && b != '\r' && b != '\t' {
			return false
		}
	}
	return true
}

func run(args []string) error {
	fs := flag.NewFlagSet("agilla", flag.ExitOnError)
	var (
		inject = fs.String("inject", "", "agent program file to inject")
		at     = fs.String("at", "1,1", "destination node, e.g. 3,3")
		topo   = fs.String("topo", "grid", "topology: grid, line, ring, disk")
		width  = fs.Int("width", 5, "grid width")
		height = fs.Int("height", 5, "grid height")
		nodes  = fs.Int("nodes", 12, "node count for line/ring/disk topologies")
		side   = fs.Int("side", 8, "region side for the disk topology")
		rng    = fs.Float64("range", 2.5, "radio range for the disk topology")
		seed   = fs.Int64("seed", 1, "simulation seed")
		runFor = fs.Duration("run", 30*time.Second, "virtual time to run after injecting")
		lossy  = fs.Bool("lossy", true, "use the calibrated lossy radio")
		watch  = fs.Bool("watch", false, "print middleware events as they happen")
		fireAt = fs.String("fire", "", "ignite a fire at this node, e.g. 4,4")
		repl   = fs.Bool("replication", false, "replicate tuple spaces by anti-entropy gossip")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var top agilla.Topology
	switch *topo {
	case "grid":
		top = agilla.Grid(*width, *height)
	case "line":
		top = agilla.Line(*nodes)
	case "ring":
		top = agilla.Ring(*nodes)
	case "disk":
		top = agilla.RandomDisk(*nodes, *side, *rng)
	default:
		return fmt.Errorf("-topo: unknown topology %q (want grid, line, ring, disk)", *topo)
	}
	opts := []agilla.Option{agilla.WithTopology(top), agilla.WithSeed(*seed)}
	if !*lossy {
		opts = append(opts, agilla.WithReliableRadio())
	}
	if *repl {
		opts = append(opts, agilla.WithReplication(0, 0)) // defaults: k=2, 500ms
	}
	var fire *agilla.Fire
	if *fireAt != "" {
		fire = agilla.NewFire(30*time.Second, *width, *height)
		opts = append(opts, agilla.WithField(fire))
	}
	nw, err := agilla.New(opts...)
	if err != nil {
		return err
	}
	if fire != nil {
		// Clip the fire to the realized layout, not the grid flags: ring
		// and disk motes can sit outside the -width/-height box.
		b := nw.Bounds()
		fire.Bounds = &b
	}

	finishWatch := func() {}
	if *watch {
		finishWatch = attachWatch(nw)
	}

	fmt.Printf("warming up %s (seed %d)...\n", nw.Topology(), *seed)
	if *topo != "grid" {
		// Non-grid mote placement isn't guessable; print it so the user
		// knows what -at accepts.
		fmt.Printf("motes: %v\n", nw.Locations())
	}
	if err := nw.WarmUp(); err != nil {
		return err
	}

	if fire != nil {
		loc, err := parseLoc(*fireAt)
		if err != nil {
			return fmt.Errorf("-fire: %w", err)
		}
		fire.Ignite(loc, nw.Now())
		fmt.Printf("fire ignited at %v\n", loc)
	}

	if *inject != "" {
		src, err := os.ReadFile(*inject)
		if err != nil {
			return err
		}
		p, err := program.Parse(string(src))
		if err != nil {
			return err
		}
		p = p.WithName(*inject)
		dest, err := parseLoc(*at)
		if err != nil {
			return fmt.Errorf("-at: %w", err)
		}
		ag, err := nw.Launch(p, dest)
		if err != nil {
			return err
		}
		fmt.Printf("injected agent %d (%v) toward %v\n", ag.ID(), p, dest)
		defer func() { fmt.Printf("final agent state: %v\n", ag) }()
	}

	if err := nw.Run(*runFor); err != nil {
		return err
	}
	finishWatch()

	fmt.Printf("\n=== network state at t=%v ===\n", nw.Now())
	for _, loc := range append([]agilla.Location{agilla.Loc(0, 0)}, nw.Locations()...) {
		node := nw.Node(loc)
		if node == nil {
			continue
		}
		agentIDs := node.AgentIDs()
		tuples := nw.Space(loc).All()
		if len(agentIDs) == 0 && len(tuples) <= 4 {
			continue // quiet node: just context tuples
		}
		fmt.Printf("%v  agents=%v led=%d\n", loc, agentIDs, node.LED())
		for _, tup := range tuples {
			fmt.Printf("      %v\n", tup)
		}
	}
	fmt.Printf("total live agents: %d\n", nw.TotalAgents())
	return nil
}

// attachWatch subscribes to the middleware event stream and prints each
// event as it happens. The returned func ends the subscription and waits
// for the printer to drain, so watch lines never interleave with the
// final network dump.
func attachWatch(nw *agilla.Network) (finish func()) {
	events := nw.Events(agilla.OfKind(
		agilla.EventAgentArrived,
		agilla.EventAgentHalted,
		agilla.EventAgentDied,
		agilla.EventRemoteDone,
		agilla.EventReactionFired,
		agilla.EventReplicaSynced,
		agilla.EventTupleRecovered,
	))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range events {
			fmt.Printf("%12v  %-17v  %v\n", e.When(), e.Kind(), e)
		}
	}()
	return func() {
		nw.Close()
		<-done
	}
}

func parseLoc(s string) (agilla.Location, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return agilla.Location{}, fmt.Errorf("want x,y — got %q", s)
	}
	x, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return agilla.Location{}, err
	}
	y, err := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err != nil {
		return agilla.Location{}, err
	}
	return agilla.Loc(int16(x), int16(y)), nil
}
