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

// This file reads the CPU profiles runtime/pprof writes (a gzipped
// profile.proto message) and attributes every sample to a layer: the
// innermost repro/internal/<layer> frame on its stack, inlined frames
// included, so runtime.memmove or slices sorting under sim.(*Engine).insert
// counts as sim. Samples with no repro/internal frame count as runtime. The
// standard library has no importable profile decoder, so the few message
// fields the attribution needs are decoded here by hand.

const layerPrefix = "repro/internal/"

// profSample is one decoded sample: its stack as function names, leaf
// first (inlined callees before their callers), and its sample count.
type profSample struct {
	stack []string
	count int64
}

// layerOf returns the layer a function name belongs to, or "" when the
// function is outside repro/internal.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "/."); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// attribute sums sample counts per layer.
func attribute(samples []profSample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.count
	}
	return out
}

// shares converts per-layer counts into percentages of their total.
func shares(counts map[string]int64) map[string]float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	out := make(map[string]float64, len(counts))
	for l, c := range counts {
		out[l] = 100 * ratio(float64(c), float64(total))
	}
	return out
}

// parseProfile decodes a gzipped CPU profile into samples.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decodeProfile(raw)
}

// profile.proto field numbers used below.
const (
	profSampleField   = 2
	profLocationField = 4
	profFunctionField = 5
	profStringField   = 6

	sampleLocationField = 1
	sampleValueField    = 2

	locationIDField   = 1
	locationLineField = 4
	lineFunctionField = 1

	functionIDField   = 1
	functionNameField = 2
)

type rawSample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(raw []byte) ([]profSample, error) {
	var (
		strs      []string
		rawSamps  []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
	)
	err := eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case profStringField:
			strs = append(strs, string(b))
		case profSampleField:
			var s rawSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case sampleLocationField:
					return appendPacked(&s.locs, w, v, b)
				case sampleValueField:
					var vals []uint64
					if err := appendPacked(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			rawSamps = append(rawSamps, s)
		case profLocationField:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case locationIDField:
					id = v
				case locationLineField:
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == lineFunctionField {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case profFunctionField:
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case functionIDField:
					id = v
				case functionNameField:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcNames[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(rawSamps))
	for _, s := range rawSamps {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{count: s.values[0]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				idx := funcNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated message")

// eachField walks one protobuf message, calling fn with each field's number
// and wire type and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, which runtime/pprof writes
// packed for long lists and one value per field for short ones.
func appendPacked(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
