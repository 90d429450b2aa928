// Command perfbench is the repository benchmark: three workloads over the
// Agilla middleware, each reporting end-to-end metrics on untraced runs
// and per-layer metrics on a traced run. See README.md.
//
//	perfbench --workload field|roam|bridged --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// outDir receives the traced run's spans and CPU profile.
const outDir = ".bench_build/trace"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: field, roam or bridged")
	seed := flag.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 10, "nominal wall seconds of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	sp, ok := lookupWorkload(*name)

	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload field|roam|bridged, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(sp, *seed, sp.horizon(*seconds))
	} else {
		res, err = untracedRun(sp, *seed, sp.horizon(*seconds))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// settleEvery is the drain's check interval for unresolved ops.
const settleEvery = 500 * time.Millisecond

// run is one timed phase on a set-up workload.
type run struct {
	sp       spec
	seed     int64
	horizon  time.Duration
	ph       phases
	setupS   []float64
	wall     float64 // host seconds of the timed phase
	cpu      float64 // process CPU seconds of the timed phase
	rt       [2]rtSnap
	heap     float64 // live heap after a forced GC at the end of the timed phase
	timed    counters
	final    counters
	out      outcome
	issue    time.Duration
	deaths   int
	hash     uint64
	gates    []string
	tr       *tracer
	timedIdx int
}

// execute runs the timed phase and the drain window, then checks gates.
func (sp spec) execute(f *field, seed int64, horizon time.Duration) (*run, error) {
	r := &run{sp: sp, seed: seed, horizon: horizon, tr: f.tr}
	l := newOpLoop(f, seed)
	t0 := f.now
	end := t0 + horizon
	if sp.churn {
		for _, loc := range sp.band() {
			d := f.halfOf(loc).d
			d.KillAt(t0+horizon/2, loc)
			d.ReviveAt(t0+horizon/2+horizon/4, loc)
		}
	}
	// Start the timed phase from a fresh collection, so the GC cycles it
	// contains are set by the workload's allocation, not by set-up leftovers.
	runtime.GC()
	r.timedIdx = f.tr.begin("timed", -1)
	f.span = r.timedIdx
	c0 := f.counters()
	r.rt[0] = readRuntime()
	cpu0 := cpuSeconds()
	w0 := time.Now()
	next := t0 + l.gap()
	for f.now < end {
		for next <= f.now && next < end-sp.opTail {
			if err := l.issueOp(next); err != nil {
				return nil, err
			}
			next += l.gap()
		}
		if err := f.step(); err != nil {
			return nil, err
		}
	}
	r.wall = time.Since(w0).Seconds()
	r.cpu = cpuSeconds() - cpu0
	r.rt[1] = readRuntime()
	f.tr.end(r.timedIdx)
	r.timed = f.counters().sub(c0)
	r.heap = liveHeap()

	// Drain: no new ops; in-flight ones resolve or the gate fails.
	s := f.tr.begin("drain", -1)
	f.span = s
	for limit := f.now + 30*time.Second; f.now < limit; {
		if l.pending == 0 || l.settled() {
			break
		}
		if err := f.runTo(f.now + settleEvery); err != nil {
			return nil, err
		}
	}
	f.tr.end(s)
	f.span = -1
	r.out = l.outcome()
	r.issue = l.issue
	r.deaths = l.deaths
	r.hash = f.stateHash(l)
	// A last pump on both sides empties the inboxes for the lossless check.
	for _, h := range f.h {
		h.br.Pump()
	}
	r.final = f.counters()
	r.gate(f)
	return r, nil
}

func (r *run) failf(format string, args ...any) {
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

// gate applies the correctness checks.
func (r *run) gate(f *field) {
	c, o := r.final, r.out
	if c["vm.instr"] == 0 {
		r.failf("no instructions executed")
	}
	if r.sp.monitors && r.deaths > 0 {
		r.failf("%d agents died on a field with no churn", r.deaths)
	}
	if o.unresolved > 0 {
		r.failf("%d ops still in flight after the drain window", o.unresolved)
	}
	if o.arrivedUnstamped > 0 {
		r.failf("%d couriers arrived but left no stamp", o.arrivedUnstamped)
	}
	if o.couriers == 0 || o.remote == 0 {
		r.failf("op loop issued %d couriers and %d remote ops", o.couriers, o.remote)
	}
	// Loopback is lossless: every frame one half sends the other
	// receives, and every received frame is injected.
	for i, h := range f.h {
		var sent, recv uint64
		for _, ps := range h.tr.Stats() {
			sent += ps.Sent
		}
		for _, ps := range f.h[1-i].tr.Stats() {
			recv += ps.Recv
		}
		if sent != recv {
			r.failf("loopback lost frames: half %d sent %d, peer received %d", i, sent, recv)
		}
	}
	if c["border.injected"] != c["transport.recv"] {
		r.failf("border injected %d of %d received frames", c["border.injected"], c["transport.recv"])
	}
	for _, k := range []string{"border.misrouted", "border.stale", "border.send_errs", "transport.send_errs", "transport.dropped"} {
		if c[k] != 0 {
			r.failf("%s = %d", k, c[k])
		}
	}
}

func (r *run) simRate() float64 { return r.horizon.Seconds() / r.wall }

// attempted and failed follow the workload's operations: each courier
// and remote op, plus each Monitor agent on field, which fails if it dies.
func (r *run) attempted() int { return r.out.couriers + r.out.remote + r.ph.agents }

func (r *run) failed() int {
	f := r.out.couriers - r.out.couriersOK + r.out.remote - r.out.remoteOK
	if r.sp.monitors {
		f += r.deaths
	}
	return f
}

// report prints provenance, samples and deterministic counters.
func (r *run) report(label string) {
	prov := map[string]any{
		"workload": r.sp.name, "seed": r.seed, "gomaxprocs": runtime.GOMAXPROCS(0),
		"ncpu": runtime.NumCPU(), "go_version": runtime.Version(), "workers": 1,
		"grid": fmt.Sprintf("%dx%d", r.sp.w, r.sp.h), "interleave": r.sp.interleave,
		"monitors": r.sp.monitors, "replication": r.sp.replicate, "churn": r.sp.churn,
		"horizon_vs": r.horizon.Seconds(), "quantum_ms": quantum.Seconds() * 1e3,
		"op_every_ms": r.sp.opEvery.Seconds() * 1e3, "setups": len(r.setupS),
	}
	b, _ := json.Marshal(prov)
	fmt.Printf("# %s provenance %s\n", label, b)
	fmt.Printf("# %s setup_s %v (construct %.3fs load %.3fs warmup %.3fs converge %.3fs)\n",
		label, r.setupS, r.ph.construct.Seconds(), r.ph.load.Seconds(), r.ph.warmup.Seconds(), r.ph.converge.Seconds())
	fmt.Printf("# %s samples couriers=%d ok=%d lost=%d remote=%d ok=%d generator_late_ms mean=%.3f max=%.3f\n",
		label, r.out.couriers, r.out.couriersOK, r.out.lost, r.out.remote, r.out.remoteOK,
		r.out.lateMean, r.out.lateMax)
	keys := make([]string, 0, len(r.final))
	for k := range r.final {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%d", k, r.final[k])
	}
	fmt.Printf("# %s counters%s hash=%016x\n", label, sb.String(), r.hash)
	for _, g := range r.gates {
		fmt.Fprintf(os.Stderr, "perfbench: gate failed (%s): %s\n", r.sp.name, g)
	}
}

// deterministic is the part of a run that must repeat exactly.
func (r *run) deterministic() string {
	return fmt.Sprintf("%v|%016x|%v", r.final, r.hash, r.out)
}

// measure sets the workload up sp.setups times and runs the timed phase
// on the last set-up; setup_s is the median.
func (sp spec) measure(seed int64, horizon time.Duration, setups int, tag string, tr *tracer) (*run, error) {
	var times []float64
	var f *field
	var ph phases
	for i := 0; i < setups; i++ {
		runtime.GC()
		var err error
		f, ph, err = sp.setup(seed, fmt.Sprintf("%s-%d", tag, i), tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, ph.total.Seconds())
		if i < setups-1 {
			f.close()
		}
	}
	defer f.close()
	r, err := sp.execute(f, seed, horizon)
	if err != nil {
		return nil, err
	}
	r.ph, r.setupS = ph, times
	return r, nil
}

func untracedRun(sp spec, seed int64, horizon time.Duration) (result, error) {
	r, err := sp.measure(seed, horizon, sp.setups, "u", nil)
	if err != nil {
		return result{}, err
	}
	r.report("untraced")
	o := r.out
	m := map[string]metric{
		"setup_s":        {median(r.setupS), "s"},
		"sim_rate":       {r.simRate(), "vs/s"},
		"cpu_per_vs":     {r.cpu / r.horizon.Seconds(), "CPU-s/vs"},
		"heap_mb":        {r.heap / 1e6, "MB"},
		"migrate_p50_ms": {hdQuantile(o.migLat, 0.50), "ms"},
		"migrate_p99_ms": {hdQuantile(o.migLat, 0.99), "ms"},
		"remote_p50_ms":  {hdQuantile(o.remLat, 0.50), "ms"},
		"remote_p99_ms":  {hdQuantile(o.remLat, 0.99), "ms"},
		"op_ok_rate":     {ratio(float64(o.couriersOK+o.remoteOK), float64(o.couriers+o.remote)), "fraction"},
		"border_fps":     {float64(r.timed["border.relayed"]) / r.wall, "frames/s"},
	}
	return result{Correct: len(r.gates) == 0, Attempted: r.attempted(), Failed: r.failed(), Metrics: m}, nil
}

// tracedRun makes one untraced reference run, then one traced run under
// the CPU profiler. The two must agree on every deterministic counter.
func tracedRun(sp spec, seed int64, horizon time.Duration) (result, error) {
	ref, err := sp.measure(seed, horizon, 1, "r", nil)
	if err != nil {
		return result{}, err
	}
	ref.report("reference")

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, fmt.Errorf("start profile: %w", err)
	}
	r, err := sp.measure(seed, horizon, 1, "t", tr)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	r.report("traced")
	if ref.deterministic() != r.deterministic() {
		r.failf("traced run diverged from the untraced reference")
		fmt.Fprintf(os.Stderr, "perfbench: gate failed (%s): traced run diverged\nperfbench: reference %s\nperfbench: traced    %s\n",
			sp.name, ref.deterministic(), r.deterministic())
	}
	shares, ns, err := selfShares(prof.Bytes())
	if err != nil {
		return result{}, err
	}
	base := fmt.Sprintf("%s-seed%d", sp.name, seed)
	path, err := tr.write(outDir, base+".spans.json")
	if err != nil {
		return result{}, err
	}
	fmt.Printf("# spans %s\n", path)
	ppath := filepath.Join(outDir, base+".cpu.pprof")
	if err := os.WriteFile(ppath, prof.Bytes(), 0o644); err != nil {
		return result{}, fmt.Errorf("write profile: %w", err)
	}
	fmt.Printf("# profile %s\n", ppath)

	m := r.layerMetrics(shares, ns)
	m["trace.overhead"] = metric{1 - r.simRate()/ref.simRate(), "fraction"}
	return result{Correct: len(r.gates) == 0, Attempted: r.attempted(), Failed: r.failed(), Metrics: m}, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics of a traced run.
func (r *run) layerMetrics(shares map[string]float64, ns map[string]int64) map[string]metric {
	c, fin := r.timed, r.final
	f := func(k string) float64 { return float64(c[k]) }
	events := f("kernel.events")
	kernelNs := float64(r.tr.totalUnder("kernel_run", r.timedIdx).Nanoseconds())
	pumpT := r.tr.totalUnder("pump", r.timedIdx)
	gc := func(get func(rtSnap) float64) float64 { return get(r.rt[1]) - get(r.rt[0]) }
	m := map[string]metric{
		"construct.s":                   {r.ph.construct.Seconds(), "s"},
		"construct.allocs_per_mote":     {r.ph.constructAllocs, "count"},
		"construct.heap_bytes_per_mote": {r.ph.constructHeap, "B"},
		"load.s":                        {r.ph.load.Seconds(), "s"},
		"load.us_per_agent":             {ratio(float64(r.ph.load.Microseconds()), float64(r.ph.agents)), "us"},
		"warmup.s":                      {r.ph.warmup.Seconds(), "s"},
		"net.beacons":                   {f("net.beacons"), "count"},
		"kernel.events":                 {events, "count"},
		"kernel.dispatched":             {f("kernel.dispatched"), "count"},
		"kernel.absorbed_ratio":         {1 - ratio(f("kernel.dispatched"), events), "fraction"},
		"kernel.ns_per_event":           {ratio(kernelNs, events), "ns"},
		"vm.instr":                      {f("vm.instr"), "count"},
		"vm.instr_per_event":            {ratio(f("vm.instr"), events), "ratio"},
		"vm.ns_per_instr":               {ratio(float64(ns["vm"]), float64(fin["vm.instr"])), "ns"},
		"radio.sent":                    {f("radio.sent"), "count"},
		"radio.delivered":               {f("radio.delivered"), "count"},
		"radio.dropped":                 {f("radio.dropped"), "count"},
		"radio.delivery_ratio":          {ratio(f("radio.delivered"), f("radio.delivered")+f("radio.dropped")), "fraction"},
		"radio.bytes":                   {f("radio.bytes"), "B"},
		"mig.started":                   {f("mig.started"), "count"},
		"mig.ok":                        {f("mig.ok"), "count"},
		"mig.fail":                      {f("mig.fail"), "count"},
		"remote.ok":                     {f("remote.ok"), "count"},
		"remote.fail":                   {f("remote.fail"), "count"},
		"issue.s":                       {r.issue.Seconds(), "s"},
		"replica.digests_sent":          {f("replica.digests_sent"), "count"},
		"replica.digests_suppressed":    {f("replica.digests_suppressed"), "count"},
		"replica.suppression_ratio":     {ratio(f("replica.digests_suppressed"), f("replica.digests_sent")+f("replica.digests_suppressed")), "fraction"},
		"replica.tuples_replicated":     {f("replica.tuples_replicated"), "count"},
		"replica.tuples_recovered":      {f("replica.tuples_recovered"), "count"},
		"converge.s":                    {r.ph.converge.Seconds(), "s"},
		"world.kills":                   {f("world.kills"), "count"},
		"world.revives":                 {f("world.revives"), "count"},
		"world.frames_missed":           {f("world.frames_missed"), "count"},
		"border.relayed":                {f("border.relayed"), "count"},
		"border.injected":               {f("border.injected"), "count"},
		"border.bytes_per_frame":        {ratio(f("border.relayed_bytes"), f("border.relayed")), "B"},
		"border.misrouted":              {f("border.misrouted"), "count"},
		"border.stale":                  {f("border.stale"), "count"},
		"transport.frames_per_batch":    {ratio(f("transport.sent"), f("transport.batches")), "ratio"},
		"pump.s":                        {pumpT.Seconds(), "s"},
		"pump.ns_per_frame":             {ratio(float64(pumpT.Nanoseconds()), f("border.injected")), "ns"},
		"gc.cycles":                     {gc(func(s rtSnap) float64 { return s.gcCycles }), "count"},
		"gc.cpu_share":                  {ratio(gc(func(s rtSnap) float64 { return s.cpuGC }), gc(func(s rtSnap) float64 { return s.cpuBusy })), "fraction"},
		"gc.allocs_per_event":           {ratio(gc(func(s rtSnap) float64 { return s.allocObjs }), events), "ratio"},
		"gc.alloc_bytes_per_event":      {ratio(gc(func(s rtSnap) float64 { return s.allocBytes }), events), "B"},
	}
	for _, l := range selfLayers {
		m["self."+l] = metric{shares[l], "fraction"}
	}
	return m
}
