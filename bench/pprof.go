package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the CPU profile of a traced run and charges each
// sample to a layer. It reads only the parts of the pprof protobuf format
// the attribution needs: samples, locations, functions and strings.

// stackSample is one profile sample: its weight and the functions on its
// stack, innermost first, inlined frames included.
type stackSample struct {
	weight int64
	funcs  []string
}

var errTruncated = errors.New("pprof: truncated protobuf")

// parseProfile decodes a pprof profile, gzipped or not. Samples are
// weighted by their first value, the sample count in a CPU profile.
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %v", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %v", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var (
		strs     []string
		raw      []rawSample
		funcName = make(map[uint64]uint64)   // function id → string index
		locFuncs = make(map[uint64][]uint64) // location id → function ids, innermost first
	)
	err := eachField(data, func(num, typ int, v uint64, b []byte) error {
		var err error
		switch num {
		case 2: // sample
			var s rawSample
			err = eachField(b, func(num, typ int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, typ, v, b)
				case 2:
					var vals []uint64
					if vals, err = appendVarints(nil, typ, v, b); err == nil && len(vals) > 0 && s.weight == 0 {
						s.weight = int64(vals[0])
					}
				}
				return err
			})
			raw = append(raw, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, typ int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			err = eachField(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	samples := make([]stackSample, 0, len(raw))
	for _, r := range raw {
		s := stackSample{weight: r.weight}
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				idx, ok := funcName[fn]
				if !ok || idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("pprof: location %d names unknown function %d", loc, fn)
				}
				s.funcs = append(s.funcs, strs[idx])
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// eachField calls fn for every field of one protobuf message: v holds a
// varint's value, b a length-delimited field's bytes. Fixed-width fields
// are skipped.
func eachField(msg []byte, fn func(num, typ int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch typ {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", typ)
		}
		if err := fn(num, typ, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, typ int, v uint64, b []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst, nil
}

// layerOf maps a package below repro/internal/ to the layer whose CPU
// share its samples count in. Packages not listed here (rng, dist, stats,
// metrics, engine, fleet, sweep, ...) are treated like the standard
// library: their samples go to the innermost listed package that called
// them.
var layerOf = map[string]string{
	"experiments":        "render",
	"report":             "render",
	"analysis":           "analysis",
	"analysis/streaming": "streaming",
	"trace":              "trace",
	"scheduler":          "scheduler",
	"cluster":            "cluster",
	"sim":                "sim",
	"core":               "core",
	"autopilot":          "autopilot",
	"workload":           "workload",
}

// cpuLayers lists every layer a sample can be charged to, in report order:
// gc holds samples with no layer frame under a garbage-collector frame,
// other the rest.
var cpuLayers = []string{"render", "analysis", "streaming", "trace", "scheduler", "cluster",
	"sim", "core", "autopilot", "workload", "gc", "other"}

// sharedFuncs are functions many layers call; cpu.x.<name> is the share of
// samples with a matching function anywhere on the stack.
var sharedFuncs = []struct {
	name  string
	match func(fn string) bool
}{
	{"container_heap", func(fn string) bool { return strings.HasPrefix(fn, "container/heap.") }},
	{"malloc", func(fn string) bool { return strings.HasPrefix(fn, "runtime.mallocgc") }},
	{"sort", func(fn string) bool { return strings.HasPrefix(fn, "sort.") || strings.HasPrefix(fn, "slices.") }},
	{"mapaccess", func(fn string) bool { return strings.Contains(fn, "mapaccess") }},
}

// attribute returns each layer's share of the samples as cpu.<layer>, and
// each shared function's as cpu.x.<name>.
func attribute(samples []stackSample) map[string]float64 {
	var total int64
	byLayer := make(map[string]int64)
	byFunc := make(map[string]int64)
	for _, s := range samples {
		total += s.weight
		byLayer[layerFor(s.funcs)] += s.weight
		for _, sf := range sharedFuncs {
			for _, fn := range s.funcs {
				if sf.match(fn) {
					byFunc[sf.name] += s.weight
					break
				}
			}
		}
	}
	out := make(map[string]float64)
	share := func(n int64) float64 {
		if total == 0 {
			return 0
		}
		return float64(n) / float64(total)
	}
	for _, l := range cpuLayers {
		out["cpu."+l] = share(byLayer[l])
	}
	for _, sf := range sharedFuncs {
		out["cpu.x."+sf.name] = share(byFunc[sf.name])
	}
	return out
}

// layerFor charges a stack (innermost first) to its innermost layer frame.
func layerFor(funcs []string) string {
	gc := false
	for _, fn := range funcs {
		if pkg, ok := repoPackage(fn); ok {
			if l, ok := layerOf[pkg]; ok {
				return l
			}
			continue
		}
		gc = gc || isGC(fn)
	}
	if gc {
		return "gc"
	}
	return "other"
}

// repoPackage returns the package of a repro/internal function, relative to
// repro/internal/.
func repoPackage(fn string) (string, bool) {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	name := fn[len(prefix):]
	// Type parameters and receivers may hold dots and slashes of their own.
	if i := strings.IndexAny(name, "[("); i >= 0 {
		name = name[:i]
	}
	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndex(name, "/") + 1
	dot := strings.IndexByte(name[slash:], '.')
	if dot < 0 {
		return "", false
	}
	return name[:slash+dot], true
}

func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}
