package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"slices"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).insert":                 "sim",
		"repro/internal/cc/cubic.(*Cubic).OnAck":              "cc",
		"repro/internal/ring.(*Ring[go.shape.int32]).Push":    "ring",
		"repro/internal/campaign.Executor.runPending.func1":   "campaign",
		"repro/internal/lint/linttest.Run":                    "lint",
		"runtime.memmove":                                     "",
		"main.(*churnJob).run.func1":                          "",
		"repro/perfbench/other.F":                             "",
		"slices.pdqsortCmpFunc[go.shape.struct { at int64 }]": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeInnermostRepoFrame(t *testing.T) {
	samples := []profSample{
		// memmove and a sort under the engine's insert count as sim.
		{stack: []string{"runtime.memmove", "slices.insertionSortCmpFunc", "repro/internal/sim.(*Engine).insert", "repro/internal/harness.(*Session).Run"}, count: 5},
		// An inlined cc call inside netsim counts as cc, the innermost.
		{stack: []string{"repro/internal/cc.(*Transport).OnAck", "repro/internal/netsim.(*Network).onDeliver", "repro/internal/sim.(*Engine).Run"}, count: 3},
		// Benchmark callbacks run by the campaign count as campaign.
		{stack: []string{"main.checkChurnCounts", "repro/internal/campaign.Executor.runPending.func1"}, count: 1},
		// No repro frame at all: the GC worker counts as runtime.
		{stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, count: 1},
	}
	got := attribute(samples)
	want := map[string]int64{"sim": 5, "cc": 3, "campaign": 1, "runtime": 1}
	if len(got) != len(want) {
		t.Fatalf("attribute = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("layer %s: %d samples, want %d", k, got[k], v)
		}
	}
	total := 0.0
	for _, s := range shares(got) {
		total += s
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %g, want 100", total)
	}
}

// protoBuf is a minimal profile.proto encoder for synthetic profiles.
type protoBuf struct{ b []byte }

func (p *protoBuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }
func (p *protoBuf) varint(field int, v uint64) {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, v)
}
func (p *protoBuf) bytes(field int, b []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}
func (p *protoBuf) packed(field int, vs ...uint64) {
	var q protoBuf
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// syntheticProfile builds a gzipped profile with string table
// ["", names...], function i+1 named names[i], the given locations (each a
// list of function ids, innermost first, so a location with two lines is an
// inlined call) and samples (location ids leaf first, then a count).
func syntheticProfile(names []string, locs [][]uint64, samples [][]uint64, counts []int64) []byte {
	var p protoBuf
	p.bytes(profStringField, nil)
	for _, n := range names {
		p.bytes(profStringField, []byte(n))
	}
	for i := range names {
		var f protoBuf
		f.varint(functionIDField, uint64(i+1))
		f.varint(functionNameField, uint64(i+1))
		p.bytes(profFunctionField, f.b)
	}
	for i, fns := range locs {
		var l protoBuf
		l.varint(locationIDField, uint64(i+1))
		for _, fn := range fns {
			var line protoBuf
			line.varint(lineFunctionField, fn)
			l.bytes(locationLineField, line.b)
		}
		p.bytes(profLocationField, l.b)
	}
	for i, s := range samples {
		var sm protoBuf
		if len(s) > 2 {
			sm.packed(sampleLocationField, s...)
		} else {
			for _, id := range s {
				sm.varint(sampleLocationField, id)
			}
		}
		sm.packed(sampleValueField, uint64(counts[i]), uint64(counts[i])*10_000_000)
		p.bytes(profSampleField, sm.b)
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.b)
	zw.Close()
	return z.Bytes()
}

func TestParseSyntheticProfile(t *testing.T) {
	names := []string{
		"runtime.memmove",                        // 1
		"repro/internal/sim.(*Engine).insert",    // 2
		"repro/internal/harness.(*Session).Run",  // 3
		"repro/internal/aqm.(*DropTail).Enqueue", // 4
		"repro/internal/netsim.(*Link).serve",    // 5
		"runtime.gcBgMarkWorker",                 // 6
	}
	locs := [][]uint64{
		{1},    // loc 1: memmove
		{2},    // loc 2: sim insert
		{3},    // loc 3: harness
		{4, 5}, // loc 4: aqm inlined into netsim
		{6},    // loc 5: GC worker
	}
	samples := [][]uint64{{1, 2, 3}, {4, 3}, {5}}
	counts := []int64{6, 3, 1}
	got, err := parseProfile(syntheticProfile(names, locs, samples, counts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("%d samples, want 3", len(got))
	}
	if want := []string{names[0], names[1], names[2]}; !slices.Equal(got[0].stack, want) {
		t.Errorf("stack %v, want %v", got[0].stack, want)
	}
	s := shares(attribute(got))
	for layer, want := range map[string]float64{"sim": 60, "aqm": 30, "runtime": 10} {
		if math.Abs(s[layer]-want) > 1e-9 {
			t.Errorf("%s share %g%%, want %g%%", layer, s[layer], want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted non-gzip input")
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write([]byte{0x12, 0x05, 0x01}) // field 2, length 5, one byte of body
	zw.Close()
	if _, err := parseProfile(z.Bytes()); err == nil {
		t.Error("parseProfile accepted a truncated message")
	}
}

// TestParseRuntimeProfile decodes a profile the runtime itself wrote.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.count <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample %+v has no count or no stack", s)
		}
	}
	if x < 0 {
		t.Log(x)
	}
}
