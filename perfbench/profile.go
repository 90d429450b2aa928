package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A stdlib-only reader for the CPU profiles runtime/pprof writes: a
// gzipped protocol buffer (github.com/google/pprof/proto/profile.proto).
// It decodes only what attribution needs: sample types, samples,
// locations with their inlined lines, functions and the string table.

const modulePath = "github.com/agilla-go/agilla"

// selfLayers are the buckets CPU samples are charged to. Every module
// package the simulation runs has its own; "other" holds the rest of the
// module, "bench" this benchmark, "gc" runtime work under the GC's
// background worker and "runtime" all other samples with no module frame.
var selfLayers = []string{
	"sim", "vm", "radio", "network", "core", "tuplespace", "replica",
	"wire", "transport", "topology", "asm", "sensor", "other",
	"gc", "runtime", "bench",
}

var moduleLayers = map[string]bool{
	"sim": true, "vm": true, "radio": true, "network": true, "core": true,
	"tuplespace": true, "replica": true, "wire": true, "transport": true,
	"topology": true, "asm": true, "sensor": true,
}

type pbSample struct {
	locs []uint64 // location ids, leaf first
	vals []uint64 // one value per sample type
}

type cpuProfile struct {
	strs     []string
	types    []int64 // sample_type type-name string indexes
	samples  []pbSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> name string index
}

type pbReader struct {
	b []byte
	i int
}

var errTruncated = errors.New("profile: truncated protobuf")

func (r *pbReader) done() bool { return r.i >= len(r.b) }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if r.i >= len(r.b) {
			return 0, errTruncated
		}
		c := r.b[r.i]
		r.i++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next reads a field key and, for length-delimited fields, the payload.
func (r *pbReader) next() (num int, wt int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1:
		if r.i+8 > len(r.b) {
			return 0, 0, 0, nil, errTruncated
		}
		r.i += 8
	case 2:
		var n uint64
		n, err = r.varint()
		if err == nil {
			if n > uint64(len(r.b)-r.i) {
				return 0, 0, 0, nil, errTruncated
			}
			data = r.b[r.i : r.i+int(n)]
			r.i += int(n)
		}
	case 5:
		if r.i+4 > len(r.b) {
			return 0, 0, 0, nil, errTruncated
		}
		r.i += 4
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wt)
	}
	return num, wt, v, data, err
}

// ints appends a repeated integer field, packed or not.
func ints(dst []uint64, wt int, v uint64, data []byte) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	r := pbReader{b: data}
	for !r.done() {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped (or raw) pprof CPU profile.
func parseProfile(b []byte) (*cpuProfile, error) {
	if len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if b, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &cpuProfile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := pbReader{b: b}
	for !r.done() {
		num, _, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			fr := pbReader{b: data}
			for !fr.done() {
				n, _, v, _, err := fr.next()
				if err != nil {
					return nil, err
				}
				if n == 1 {
					p.types = append(p.types, int64(v))
				}
			}
		case 2: // sample
			var locs, vals []uint64
			fr := pbReader{b: data}
			for !fr.done() {
				n, wt, v, d, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					locs, err = ints(locs, wt, v, d)
				case 2:
					vals, err = ints(vals, wt, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			p.samples = append(p.samples, pbSample{locs: locs, vals: vals})
		case 4: // location
			var id uint64
			var fns []uint64
			fr := pbReader{b: data}
			for !fr.done() {
				n, _, v, d, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line: function_id is field 1
					lr := pbReader{b: d}
					for !lr.done() {
						ln, _, lv, _, err := lr.next()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			fr := pbReader{b: data}
			for !fr.done() {
				n, _, v, _, err := fr.next()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
	}
	return p, nil
}

// valueIndex picks the CPU-time sample value where the profile has one,
// else the last.
func (p *cpuProfile) valueIndex() int {
	vi := len(p.types) - 1
	for i, t := range p.types {
		if t >= 0 && int(t) < len(p.strs) && p.strs[t] == "cpu" {
			vi = i
		}
	}
	return vi
}

func (p *cpuProfile) name(fn uint64) string {
	i, ok := p.funcName[fn]
	if !ok || i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// layerOf maps a function name to its self layer, or "" outside the
// module and this benchmark.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation brackets may hold slashes
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, modulePath)
	if !ok || rest == "" || (rest[0] != '/' && rest[0] != '.') {
		return ""
	}
	slash := strings.LastIndexByte(rest, '/')
	if slash < 0 {
		return "other" // the root package
	}
	pkg := rest[slash+1:]
	if dot := strings.IndexByte(pkg, '.'); dot >= 0 {
		pkg = pkg[:dot]
	}
	switch {
	case pkg == "perfbench":
		return "bench"
	case moduleLayers[pkg]:
		return pkg
	}
	return "other"
}

// selfTime charges each sample to the innermost frame in a module
// package (inlined frames included); samples with no module frame go to
// "gc" under runtime.gcBgMarkWorker and to "runtime" otherwise. It
// returns the charged value per layer and the total.
func (p *cpuProfile) selfTime() (map[string]int64, int64) {
	out := make(map[string]int64, len(selfLayers))
	var total int64
	vi := p.valueIndex()
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.vals) {
			continue
		}
		layer, gcWorker := "", false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				name := p.name(fn)
				if layer == "" {
					layer = layerOf(name)
				}
				if strings.HasPrefix(name, "runtime.gcBgMarkWorker") {
					gcWorker = true
				}
			}
		}
		if layer == "" {
			layer = "runtime"
			if gcWorker {
				layer = "gc"
			}
		}
		out[layer] += int64(s.vals[vi])
		total += int64(s.vals[vi])
	}
	return out, total
}

// selfShares returns every layer's share of the profile's CPU time.
func selfShares(profile []byte) (map[string]float64, map[string]int64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, nil, err
	}
	ns, total := p.selfTime()
	if total <= 0 {
		return nil, nil, errors.New("profile: no samples")
	}
	shares := make(map[string]float64, len(selfLayers))
	for _, l := range selfLayers {
		shares[l] = float64(ns[l]) / float64(total)
	}
	return shares, ns, nil
}
