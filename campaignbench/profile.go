package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the program's modules that profile samples are bucketed
// into, in report order. runtime takes every sample no module claims.
var layers = []string{
	"des", "traffic", "vehicle", "platoon", "nic", "phy", "mac", "trace",
	"classify", "scenario", "core", "runner", "analysis", "fabric", "obs",
	"math", "runtime",
}

// packageLayer maps the first path element under comfase/internal/ to
// its layer. Helper packages go to the layer they serve.
var packageLayer = map[string]string{
	"sim":       "des", // sim/des and sim/rng
	"traffic":   "traffic",
	"roadnet":   "traffic",
	"geo":       "traffic",
	"vehicle":   "vehicle",
	"safety":    "vehicle",
	"platoon":   "platoon",
	"teleop":    "platoon",
	"nic":       "nic",
	"msg":       "nic",
	"phy":       "phy",
	"mac":       "mac",
	"wave1609":  "mac",
	"trace":     "trace",
	"classify":  "classify",
	"scenario":  "scenario",
	"invariant": "scenario",
	"config":    "scenario",
	"registry":  "scenario",
	"core":      "core",
	"runner":    "runner",
	"analysis":  "analysis",
	"figures":   "analysis",
	"fabric":    "fabric",
	"obs":       "obs",
}

// importPath returns the package import path of a Go symbol name such as
// "comfase/internal/traffic.(*Simulator).step" or "math.Log".
func importPath(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfPath maps an import path to a layer, or "" when the package
// belongs to none (the standard library outside math, the runtime, the
// benchmark itself).
func layerOfPath(path string) string {
	if rest, ok := strings.CutPrefix(path, "comfase/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		return packageLayer[first]
	}
	if path == "math" || strings.HasPrefix(path, "math/") {
		return "math"
	}
	return ""
}

// isRuntimePath reports whether the package is part of the Go runtime
// proper: memory allocation, garbage collection, scheduling, copying.
func isRuntimePath(path string) bool {
	return path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/")
}

// attribute picks the layer of one sample from its frames, leaf first.
// A CPU sample whose leaf is in the Go runtime is runtime time. An
// allocation sample always ends in the allocator, so the allocating
// caller is looked for past the runtime frames. Otherwise the sample
// goes to the nearest frame that belongs to a layer, so standard-library
// work (sorting, formatting, JSON) counts for the layer that asked for
// it. Stacks with no such frame go to fabric when they run the HTTP
// stack — the loopback transport's own goroutines — and to runtime
// otherwise.
func attribute(frames []string, alloc bool) string {
	if len(frames) == 0 {
		return "runtime"
	}
	i := 0
	if alloc {
		for i < len(frames) && isRuntimePath(importPath(frames[i])) {
			i++
		}
	} else if isRuntimePath(importPath(frames[0])) {
		return "runtime"
	}
	for _, fn := range frames[i:] {
		if l := layerOfPath(importPath(fn)); l != "" {
			return l
		}
	}
	for _, fn := range frames {
		if p := importPath(fn); p == "net" || strings.HasPrefix(p, "net/") {
			return "fabric"
		}
	}
	return "runtime"
}

// stackSample is one profile sample: its frames (leaf first, inlined
// calls expanded) and the value of the chosen sample type.
type stackSample struct {
	frames []string
	value  int64
}

// parseProfile decodes a gzipped pprof protobuf and returns the samples'
// values of the sample type named valueType ("cpu", "alloc_space", ...).
// Only the fields the bucketing needs are read.
func parseProfile(data []byte, valueType string) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs      []string
		typeNames []int64 // string index of each sample type's name
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames = map[uint64]int64{}    // function id -> string index
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, pb []byte) error {
				switch f {
				case 1:
					return eachUint(v, pb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachUint(v, pb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, lb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(lb, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	col := -1
	for i, n := range typeNames {
		if n >= 0 && n < int64(len(strs)) && strs[n] == valueType {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("profile: no sample type %q", valueType)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if col >= len(s.values) {
			return nil, errors.New("profile: sample with too few values")
		}
		st := stackSample{value: s.values[col]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if n := funcNames[fn]; n >= 0 && n < int64(len(strs)) {
					st.frames = append(st.frames, strs[n])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message. For a
// varint field fn gets the value; for a length-delimited one, the bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// eachUint yields a repeated integer field given either unpacked (one
// varint, data == nil) or packed (a run of varints in data).
func eachUint(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		c := b[i]
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layerTotals buckets samples by layer. Every layer of `layers` is
// present in the result, so the totals always sum to the sampled total.
func layerTotals(samples []stackSample, alloc bool) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	for _, s := range samples {
		out[attribute(s.frames, alloc)] += s.value
	}
	return out
}

// allocDelta subtracts an earlier cumulative allocation profile from a
// later one, stack by stack, leaving the allocations made in between.
func allocDelta(before, after []stackSample) []stackSample {
	// Stacks are keyed by function names, so several samples (call sites
	// on different lines) can share a key: sum both sides per key first.
	delta := map[string]*stackSample{}
	var keys []string
	for _, s := range after {
		key := strings.Join(s.frames, "\x00")
		if d, ok := delta[key]; ok {
			d.value += s.value
			continue
		}
		delta[key] = &stackSample{frames: s.frames, value: s.value}
		keys = append(keys, key)
	}
	for _, s := range before {
		if d, ok := delta[strings.Join(s.frames, "\x00")]; ok {
			d.value -= s.value
		}
	}
	var out []stackSample
	for _, k := range keys {
		if d := delta[k]; d.value > 0 {
			out = append(out, *d)
		}
	}
	return out
}
