package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestMetricDefsFollowGrammar(t *testing.T) {
	if err := checkDefs(endToEnd); err != nil {
		t.Fatalf("end-to-end: %v", err)
	}
	if err := checkDefs(perLayer); err != nil {
		t.Fatalf("per-layer: %v", err)
	}
	if err := checkDefs(append(append([]metricDef{}, endToEnd...), perLayer...)); err != nil {
		t.Fatalf("end-to-end and per-layer share a name: %v", err)
	}
}

func TestCheckDefsRejectsBadMetrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		defs []metricDef
	}{
		{"leading underscore", []metricDef{{"_wall", "s", "lower"}}},
		{"space in name", []metricDef{{"wall s", "s", "lower"}}},
		{"name too long", []metricDef{{strings.Repeat("a", 65), "s", "lower"}}},
		{"unit with space", []metricDef{{"wall_s", "m s", "lower"}}},
		{"unit too long", []metricDef{{"wall_s", strings.Repeat("s", 17), "lower"}}},
		{"empty unit", []metricDef{{"wall_s", "", "lower"}}},
		{"unknown direction", []metricDef{{"wall_s", "s", "faster"}}},
		{"duplicate", []metricDef{{"wall_s", "s", "lower"}, {"wall_s", "ms", "lower"}}},
	} {
		if err := checkDefs(tc.defs); err == nil {
			t.Errorf("%s: checkDefs accepted %v", tc.name, tc.defs)
		}
	}
	if err := checkDefs([]metricDef{{"sim.events_per_sim_s", "1/s", "lower"}, {"a-b.c_9", "%", "higher"}}); err != nil {
		t.Errorf("valid metrics rejected: %v", err)
	}
}

func TestNewResultHasEveryMetric(t *testing.T) {
	r := newResult(perLayer, map[string]float64{"sim.events": 12}, 3, 1)
	if len(r.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(r.Metrics), len(perLayer))
	}
	if r.Correct || r.Attempted != 3 || r.Failed != 1 {
		t.Fatalf("result %+v: want correct=false attempted=3 failed=1", r)
	}
	if m := r.Metrics["sim.events"]; m.Value != 12 || m.Unit != "count" {
		t.Fatalf("sim.events = %+v", m)
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q), code has %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	largest := 0.0
	for _, m := range b.EndToEnd {
		largest = max(largest, m.Bound)
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %g is not the largest (%g)", m.Bound, largest)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths %v, want [perfbench]", b.Paths)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs reports the first metric whose name or unit breaks the grammar
// the result format allows, or a name used twice.
func checkDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q breaks the name grammar", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %q: unit %q breaks the unit grammar", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			return fmt.Errorf("metric %q: better must be lower or higher, got %q", d.name, d.better)
		}
		if seen[d.name] {
			return fmt.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
	return nil
}
