package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// profileHz is the CPU profiler's sampling rate. The default 100 Hz gives
// too few samples per layer on a run of a few seconds.
const profileHz = 1000

// internalPrefix marks the simulator's layers: each directory under
// internal/ is one module.
const internalPrefix = "halsim/internal/"

// runtimeLayer collects samples with no frame under internalPrefix: the
// garbage collector, the scheduler and the allocator working for nobody
// in particular.
const runtimeLayer = "runtime"

// profiled runs fn under the CPU profiler and returns its samples by
// layer.
func profiled(fn func()) (map[string]int64, error) {
	var buf bytes.Buffer
	// Setting the rate first makes StartCPUProfile keep it; the runtime
	// prints a harmless warning about it on standard error.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return layerSamples(buf.Bytes())
}

// layerSamples decodes a gzipped pprof profile and attributes each sample
// to the innermost frame under internalPrefix, inlined frames included.
func layerSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("read cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decode cpu profile: %w", err)
	}
	layerOfFunc := make(map[uint64]string, len(p.funcName))
	for id, nameIdx := range p.funcName {
		if nameIdx < 0 || nameIdx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("decode cpu profile: function %d names string %d", id, nameIdx)
		}
		layerOfFunc[id] = moduleOf(p.strings[nameIdx])
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		layer := runtimeLayer
	frames:
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				if m := layerOfFunc[fid]; m != "" {
					layer = m
					break frames
				}
			}
		}
		out[layer] += s.count
	}
	return out, nil
}

// moduleOf returns the internal module a function belongs to, or "".
func moduleOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// profile holds the parts of a pprof Profile message the attribution
// reads.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // first value: the number of profiler ticks
}

// Field numbers of profile.proto.
const (
	profileSample   = 2
	profileLocation = 4
	profileFunction = 5
	profileStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(f int, v uint64, sub []byte) error {
		switch f {
		case profileSample:
			var s profSample
			var vals []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case sampleLocation:
					s.locs = appendVarints(s.locs, v, sub)
				case sampleValue:
					vals = appendVarints(vals, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			s.count = int64(vals[0])
			p.samples = append(p.samples, s)
		case profileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case locationID:
					id = v
				case locationLine:
					return eachField(sub, func(f int, v uint64, _ []byte) error {
						if f == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case profileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case profileStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, which arrives either as
// one varint (v) or as a packed run of varints (sub).
func appendVarints(dst []uint64, v uint64, sub []byte) []uint64 {
	if sub == nil {
		return append(dst, v)
	}
	for len(sub) > 0 {
		x, n := varint(sub)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes
// (non-nil, possibly empty).
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, sub); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
