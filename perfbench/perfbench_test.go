package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"sort"
	"testing"
	"time"
)

// small shrinks a workload to test size, keeping what it exercises.
func small(name string) spec {
	sp, _ := lookupWorkload(name)
	switch name {
	case "field":
		sp.w, sp.h = 12, 12
	case "roam":
		sp.w, sp.h = 8, 8
	case "bridged":
		sp.w, sp.h = 12, 12
	}
	sp.opEvery, sp.opTail = 20*time.Millisecond, 3*time.Second
	return sp
}

const testHorizon = 8 * time.Second

func smallRun(t *testing.T, sp spec, seed int64, tag string, tr *tracer) *run {
	t.Helper()
	r, err := sp.measure(seed, testHorizon, 1, tag, tr)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	for _, g := range r.gates {
		t.Errorf("%s seed %d: gate failed: %s", sp.name, seed, g)
	}
	if r.out.couriersOK == 0 || r.out.remoteOK == 0 {
		t.Errorf("%s: no successful ops: %+v", sp.name, r.out)
	}
	return r
}

func TestWorkloadsRepeat(t *testing.T) {
	for _, w := range workloads {
		sp := small(w.name)
		a := smallRun(t, sp, 7, "rep-a", nil)
		b := smallRun(t, sp, 7, "rep-b", nil)
		if a.deterministic() != b.deterministic() {
			t.Errorf("%s: two runs of seed 7 differ:\n%s\n%s", sp.name, a.deterministic(), b.deterministic())
		}
	}
}

// The traced run chunks nothing differently, but it records spans,
// forces collections during set-up and runs under the CPU profiler; none
// of that may move the schedule.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range workloads {
		sp := small(w.name)
		u := smallRun(t, sp, 3, "u", nil)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		tt := smallRun(t, sp, 3, "t", tr)
		pprof.StopCPUProfile()
		if u.deterministic() != tt.deterministic() {
			t.Errorf("%s: traced run diverged:\n%s\n%s", sp.name, u.deterministic(), tt.deterministic())
		}
		for _, name := range []string{"construct", "warmup", "kernel_run", "pump", "issue"} {
			found := false
			for _, s := range tr.spans {
				found = found || (s.Name == name && s.End >= s.Start)
			}
			if !found {
				t.Errorf("%s: no closed %q span", sp.name, name)
			}
		}
	}
}

// A seed no tuning used must pass every gate too.
func TestHeldOutSeed(t *testing.T) {
	for _, w := range workloads {
		smallRun(t, small(w.name), 904217, "held", nil)
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink = spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, _, err := selfShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range selfLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, shares)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("busy loop's package has share %v, want it to dominate: %v", shares["bench"], shares)
	}
}

func TestLayerOf(t *testing.T) {
	for name, want := range map[string]string{
		"github.com/agilla-go/agilla/internal/replica.(*Set).frontier":          "replica",
		"github.com/agilla-go/agilla/internal/core.(*Node).pump.func1":          "core",
		"github.com/agilla-go/agilla/internal/sim.heap[go.shape.*uint8,a/b].up": "sim",
		"github.com/agilla-go/agilla/internal/stats.Mean":                       "other",
		"github.com/agilla-go/agilla.(*Network).Run":                            "other",
		"github.com/agilla-go/agilla/perfbench.spin":                            "bench",
		"main.main":                             "bench",
		"runtime.mallocgc":                      "",
		"github.com/other/module/internal/vm.X": "",
	} {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestHDQuantile(t *testing.T) {
	xs := make([]float64, 2001)
	for i := range xs {
		xs[i] = float64(i) / 2000
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.5, 0.99} {
		if got := hdQuantile(xs, q); math.Abs(got-q) > 1e-3 {
			t.Errorf("hdQuantile(uniform, %v) = %v", q, got)
		}
	}
	flat := []float64{810, 810, 810, 810, 810}
	if got := hdQuantile(flat, 0.5); math.Abs(got-810) > 1e-9 {
		t.Errorf("hdQuantile(constant) = %v", got)
	}
}
