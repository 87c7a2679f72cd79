package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names one reported metric. Every name and unit here must also
// appear, with the same direction, in BENCHMARK.json at the repository root
// (TestBenchmarkJSONMatchesCode pins that).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run prints: what a user of the
// system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"train_score", "ratio", "higher"},
}

// layers are the repro/internal packages the CPU profile attributes samples
// to, plus "runtime" for samples with no repro frame on their stack.
var layers = []string{
	"aqm", "campaign", "cc", "core", "exp", "faults", "harness", "netsim",
	"optimizer", "ring", "scenario", "sim", "stats", "traces", "workload", "runtime",
}

// perLayer are the metrics a traced run prints.
var perLayer = append([]metricDef{
	{"exp.run_s", "s", "lower"},
	{"exp.sim_runs", "count", "lower"},
	{"campaign.run_s", "s", "lower"},
	{"campaign.report_s", "s", "lower"},
	{"campaign.cells", "count", "higher"},
	{"campaign.cells_failed", "count", "lower"},
	{"campaign.attempts", "count", "lower"},
	{"campaign.cpu_util", "ratio", "higher"},
	{"campaign.straggler_s", "s", "lower"},
	{"optimizer.round_p50_s", "s", "lower"},
	{"optimizer.round_max_s", "s", "lower"},
	{"optimizer.batch_s", "s", "lower"},
	{"optimizer.overhead_s", "s", "lower"},
	{"optimizer.batches", "count", "lower"},
	{"optimizer.batch_jobs_p50", "count", "higher"},
	{"optimizer.sims", "count", "lower"},
	{"optimizer.cache_hits", "count", "higher"},
	{"optimizer.pruned", "count", "higher"},
	{"optimizer.avoided_ratio", "ratio", "higher"},
	{"optimizer.cpu_util", "ratio", "higher"},
	{"scenario.compile_s", "s", "lower"},
	{"harness.session_build_s", "s", "lower"},
	{"harness.run_s", "s", "lower"},
	{"harness.ns_per_event", "ns", "lower"},
	{"harness.allocs_per_run", "count", "lower"},
	{"harness.alloc_bytes_per_run", "B", "lower"},
	{"harness.flows_spawned", "count", "higher"},
	{"harness.flows_completed", "count", "higher"},
	{"harness.flows_rejected", "count", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_sim_s", "1/s", "lower"},
	{"netsim.packets_offered", "count", "higher"},
	{"netsim.packets_delivered", "count", "higher"},
	{"netsim.packets_dropped", "count", "lower"},
	{"netsim.acks_dropped", "count", "lower"},
	{"cc.packets_sent", "count", "lower"},
	{"cc.retransmissions", "count", "lower"},
	{"cc.timeouts", "count", "lower"},
	{"cc.useful_ratio", "ratio", "higher"},
	{"runtime.gc_cpu_share", "%", "lower"},
	{"trace_overhead", "ratio", "lower"},
}, selfShareDefs()...)

func selfShareDefs() []metricDef {
	out := make([]metricDef, len(layers))
	for i, l := range layers {
		out[i] = metricDef{l + ".self_share", "%", "lower"}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every metric of defs from values; a metric the run did
// not produce reads 0.
func newResult(defs []metricDef, values map[string]float64, attempted, failed int) result {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
