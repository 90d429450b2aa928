package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+sys CPU time so far (getrusage). It
// counts every thread, so GC workers and any extra core a change burns
// show up in cpu_per_vs even when wall time does not move.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// The runtime/metrics samples the benchmark reads.
const (
	mHeapLive    = "/memory/classes/heap/objects:bytes"
	mGCCycles    = "/gc/cycles/total:gc-cycles"
	mAllocObjs   = "/gc/heap/allocs:objects"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mCPUGC       = "/cpu/classes/gc/total:cpu-seconds"
	mCPUTotal    = "/cpu/classes/total:cpu-seconds"
	mCPUIdle     = "/cpu/classes/idle:cpu-seconds"
	numRTMetrics = 7
)

// rtSnap is one read of the runtime metrics above.
type rtSnap struct {
	heapLive, gcCycles, allocObjs, allocBytes float64
	cpuGC, cpuBusy                            float64
}

func readRuntime() rtSnap {
	s := [numRTMetrics]metrics.Sample{
		{Name: mHeapLive}, {Name: mGCCycles}, {Name: mAllocObjs}, {Name: mAllocBytes},
		{Name: mCPUGC}, {Name: mCPUTotal}, {Name: mCPUIdle},
	}
	metrics.Read(s[:])
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSnap{
		heapLive: v(0), gcCycles: v(1), allocObjs: v(2), allocBytes: v(3),
		cpuGC: v(4), cpuBusy: v(5) - v(6),
	}
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	return readRuntime().heapLive
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs must be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of sorted
// xs: a Beta((n+1)q, (n+1)(1-q))-weighted mean of the order statistics.
// Unlike a single order statistic it moves smoothly when latencies come
// in steps, such as the bridge quantum, and it varies less between runs.
// Weights beyond twelve standard deviations of the Beta are dropped.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 2 {
		return percentile(xs, q)
	}
	fn := float64(n)
	a, b := (fn+1)*q, (fn+1)*(1-q)
	sd := math.Sqrt(q * (1 - q) / (fn + 2))
	lo := max(0, int(math.Floor((q-12*sd)*fn)))
	hi := min(n, int(math.Ceil((q+12*sd)*fn)))
	prev := regIncBeta(a, b, float64(lo)/fn)
	var sum, wsum float64
	for i := lo + 1; i <= hi; i++ {
		cur := regIncBeta(a, b, float64(i)/fn)
		w := cur - prev
		sum += w * xs[i-1]
		wsum += w
		prev = cur
	}
	if wsum <= 0 {
		return percentile(xs, q)
	}
	return sum / wsum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Lentz's method).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case x > (a+1)/(a+b+2):
		return 1 - regIncBeta(b, a, 1-x)
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab-la-lb+a*math.Log(x)+b*math.Log1p(-x)) / a
	const tiny, eps = 1e-300, 1e-14
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	f := d
	for m := 1; m < 100000; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			f *= c * d
		}
		if math.Abs(c*d-1) < eps {
			break
		}
	}
	return front * f
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// span is one traced interval, in nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at the root
}

// tracer keeps spans in memory; a nil tracer records nothing, so the
// untraced path pays one nil check per boundary.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), End: -1, Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
}

// totalUnder sums the durations of the spans with the given name whose
// parent is parent.
func (t *tracer) totalUnder(name string, parent int) time.Duration {
	if t == nil {
		return 0
	}
	var d int64
	for _, s := range t.spans {
		if s.Name == name && s.Parent == parent && s.End >= 0 {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
