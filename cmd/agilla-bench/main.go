// Command agilla-bench regenerates every table and figure from the
// paper's evaluation (§4), the case study (§5), and the design-choice
// ablations, printing paper-style rows and series.
//
// Usage:
//
//	agilla-bench -exp all
//	agilla-bench -exp fig9 -trials 100 -seed 7
//	agilla-bench -exp fig10,fig11,fig12,fig5,memory,speed,casestudy,mate
//	agilla-bench -exp ablate
//
// Experiments (see DESIGN.md §3 for the index):
//
//	fig9      reliability of smove vs rout across 1-5 hops  (E1)
//	fig10     latency of smove vs rout across 1-5 hops      (E2)
//	fig11     one-hop latency of every remote operation     (E3)
//	fig12     local instruction latency classes             (E4)
//	fig5      migration message formats and sizes           (E5)
//	memory    the 3.59KB SRAM budget decomposition          (E6)
//	speed     maximum migration rate / tracking speed       (E7)
//	casestudy the fire detection and tracking scenario      (E8)
//	ensemble  the fire scenario swept over -runs seeds,
//	          fanned out across cores by the scenario
//	          runner (Ctrl-C cancels outstanding runs)
//	mate      reprogramming cost vs a Maté-style VM          (E9)
//	ablate    protocol and channel-model ablations
//	scale     kernel event throughput on grids from 5×5 to
//	          100×100, swept over worker counts up to
//	          -workers; -json writes the machine-readable
//	          rows (BENCH_scale.json schema: scenario,
//	          nodes, workers, events, events_per_sec,
//	          wall_secs, hash, ...). Benchmarks the kernel
//	          rather than a paper figure, so it is not part
//	          of "-exp all" — request it explicitly.
//	churn     the dynamic-world benchmark: grids under a
//	          scripted kill/revive/move schedule with the
//	          energy model active, swept over -workers like
//	          scale; -json writes BENCH_churn.json rows.
//	          With -replication it adds gossip-replicated
//	          rows beside the baseline ones, quantifying
//	          the tuple-survival and remote-lookup gains
//	          under the identical schedule and seed.
//	          Also opt-in, for the same reason as scale.
//	vm        execution-backend comparison: the same
//	          compute workload under the seed per-event
//	          interpreter (step) and the burst engine with
//	          compiled closures (auto); asserts identical
//	          instruction streams and hashes, reports the
//	          wall-clock speedup; -json writes
//	          BENCH_vm.json rows. Opt-in like scale.
//	wire      transport throughput for the distributed
//	          runtime: a fixed migration+gossip frame mix
//	          through the in-memory loopback, localhost
//	          UDP, and localhost TCP transports, with the
//	          wire transports coalescing frames into
//	          batches; -json writes BENCH_wire.json rows
//	          (transport, frames, bytes, received, batches,
//	          frames_per_batch, wall_secs, frames_per_sec,
//	          bytes_per_sec), where bytes counts frame
//	          records (11 B header plus payload each).
//	          Opt-in like scale and churn.
//	          tools/benchdiff compares two such snapshots
//	          with a tolerance band for the wall-clock
//	          columns.
//
// With -json PATH and a single JSON-capable experiment selected, PATH is
// the output file. With both scale and churn selected, PATH is treated
// as a directory and receives BENCH_scale.json and BENCH_churn.json —
// the artifact names CI uploads to track the perf trajectory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/agilla-go/agilla/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: fig9,fig10,fig11,fig12,fig5,memory,speed,casestudy,ensemble,mate,ablate,scale,churn,vm,wire,all")
	trials := flag.Int("trials", 100, "trials per data point")
	seed := flag.Int64("seed", 7, "simulation seed")
	runs := flag.Int("runs", 8, "seeds for the ensemble experiment")
	quick := flag.Bool("quick", false, "reduced trial counts for a fast pass")
	workers := flag.Int("workers", 4, "max kernel parallelism the scale/churn experiments sweep up to")
	jsonPath := flag.String("json", "", "write scale/churn/wire rows as JSON: a file when one such experiment is selected, a directory (BENCH_scale.json, BENCH_churn.json, BENCH_wire.json) when several are")
	replication := flag.Bool("replication", false, "add gossip-replicated rows to the churn sweep, beside the baseline rows")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the selected experiments to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agilla-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "agilla-bench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "agilla-bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle: profile live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "agilla-bench: memprofile: %v\n", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// After the first Ctrl-C, unregister the handler so a second one
	// kills the process the default way.
	context.AfterFunc(ctx, stop)

	cfg := experiments.Config{Trials: *trials, Seed: *seed, Quick: *quick, Workers: *workers, Replication: *replication}

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	ran := 0

	section := func(names ...string) bool {
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return all
	}
	start := time.Now()

	if section("fig9", "fig10") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.Fig9and10(cfg) })
	}
	if section("fig11") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.Fig11(cfg) })
	}
	if section("fig12") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.Fig12(cfg) })
	}
	if section("fig5") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.Fig5Sizes() })
	}
	if section("memory") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.Memory(), nil })
	}
	if section("speed") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.Speed(cfg) })
	}
	if section("casestudy") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.CaseStudy(cfg) })
	}
	if section("ensemble") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.CaseStudyEnsemble(ctx, cfg, *runs) })
	}
	if section("mate") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.MateCompare(cfg) })
	}
	if section("ablate") {
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.AblationEndToEnd(cfg) })
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.AblationLossModel(cfg) })
		run(ctx, &ran, func() (fmt.Stringer, error) { return experiments.AblationRetries(cfg) })
	}
	// scale and churn benchmark the kernel rather than reproducing a
	// figure, so they are opt-in: "-exp all" keeps meaning "every figure
	// and table". With both selected, -json is a directory receiving the
	// BENCH_*.json artifacts; with one, it is the output file.
	jsonFile := func(name string) (string, error) {
		if *jsonPath == "" {
			return "", nil
		}
		jsonable := 0
		for _, n := range []string{"scale", "churn", "vm", "wire"} {
			if want[n] {
				jsonable++
			}
		}
		if jsonable < 2 {
			return *jsonPath, nil
		}
		if err := os.MkdirAll(*jsonPath, 0o755); err != nil {
			return "", fmt.Errorf("json dir %s: %w", *jsonPath, err)
		}
		return filepath.Join(*jsonPath, name), nil
	}
	type jsonResult interface {
		fmt.Stringer
		JSON() ([]byte, error)
	}
	runJSON := func(name string, f func() (jsonResult, error)) {
		run(ctx, &ran, func() (fmt.Stringer, error) {
			res, err := f()
			if err != nil {
				return nil, err
			}
			path, err := jsonFile(name)
			if err != nil {
				return nil, err
			}
			if path != "" {
				data, err := res.JSON()
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					return nil, fmt.Errorf("write %s: %w", path, err)
				}
			}
			return res, nil
		})
	}
	if want["scale"] {
		runJSON("BENCH_scale.json", func() (jsonResult, error) { return experiments.Scale(cfg) })
	}
	if want["churn"] {
		runJSON("BENCH_churn.json", func() (jsonResult, error) { return experiments.Churn(cfg) })
	}
	if want["vm"] {
		runJSON("BENCH_vm.json", func() (jsonResult, error) { return experiments.VM(cfg) })
	}
	if want["wire"] {
		runJSON("BENCH_wire.json", func() (jsonResult, error) { return experiments.Wire(cfg) })
	}

	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "agilla-bench: interrupted")
		os.Exit(130)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "agilla-bench: no experiment matches %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Printf("\n%d experiment group(s) in %.1fs (wall clock)\n", ran, time.Since(start).Seconds())
}

// run executes one experiment group unless the context was cancelled; the
// experiments themselves are uninterruptible except for the ensemble,
// which polls the context internally.
func run(ctx context.Context, ran *int, f func() (fmt.Stringer, error)) {
	if ctx.Err() != nil {
		return
	}
	res, err := f()
	if err != nil {
		fmt.Fprintf(os.Stderr, "agilla-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res)
	*ran++
}
