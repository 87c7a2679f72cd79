package harness

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/cc/newreno"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchScenario is a quick saturated dumbbell: four always-on senders on a
// 20 Mbps bottleneck for three simulated seconds — the end-to-end shape of
// one experiment repetition.
func benchScenario(newAlgo func() cc.Algorithm) Scenario {
	always := workload.Spec{
		Mode:    workload.ByTime,
		On:      workload.Constant{Value: 10},
		Off:     workload.Constant{Value: 1},
		StartOn: true,
	}
	s := Scenario{
		Links:    dumbbell(20e6, dropTailFactory(100)),
		Duration: 3 * sim.Second,
	}
	for i := 0; i < 4; i++ {
		s.Flows = append(s.Flows, FlowSpec{
			RTTMs:        100,
			Workload:     always,
			NewAlgorithm: newAlgo,
			Path:         bottleneck,
		})
	}
	return s
}

// benchWarm runs one repetition of s per iteration through a warm reused
// Session — pooled engine, pooled network/transport state — after one
// warm-up run that grows slabs and pools, the production path for every
// repetition of a spec but its first.
func benchWarm(b *testing.B, s Scenario) {
	ss, err := NewSession(s)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ss.Run(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		if _, err := ss.Run(1); err != nil {
			b.Fatal(err)
		}
		events += ss.Engine().Executed()
	}
	reportPerEvent(b, events)
}

// benchCold runs one repetition of s per iteration with the full per-run
// construction (engine, network, transports) included — what harness.Run
// does, on an engine the benchmark owns so it can count the events.
func benchCold(b *testing.B, s Scenario) {
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		engine := sim.NewEngine()
		ss, err := NewSessionOn(engine, s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ss.Run(1); err != nil {
			b.Fatal(err)
		}
		events += engine.Executed()
	}
	reportPerEvent(b, events)
}

// reportPerEvent attaches the simulated events per iteration and the host
// time per event (the whole-scenario rung of the performance ladder) to the
// benchmark's output.
func reportPerEvent(b *testing.B, events uint64) {
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkRunQuickDumbbellNewReno measures a full harness.Run — engine,
// network, transports, workload switchers — per iteration. allocs/op here is
// the headline number the hot-path work optimizes.
func BenchmarkRunQuickDumbbellNewReno(b *testing.B) {
	benchCold(b, benchScenario(func() cc.Algorithm { return newreno.New() }))
}

// BenchmarkParkingLot measures one repetition of a multi-hop topology run the
// way the campaign and optimizer layers execute it: through a warm reused
// Session. allocs/op is the warm-start contract — near zero. The one-shot
// construction-included path survives as BenchmarkParkingLotCold.
func BenchmarkParkingLot(b *testing.B) {
	s := parkingLotScenario(20e6, 12e6, func() cc.Algorithm { return newreno.New() })
	s.Duration = 3 * sim.Second
	benchWarm(b, s)
}

// BenchmarkParkingLotCold measures the same repetition including the full
// per-run construction (engine, network, transports) that BenchmarkParkingLot
// amortizes away — the cost of a spec's first repetition.
func BenchmarkParkingLotCold(b *testing.B) {
	s := parkingLotScenario(20e6, 12e6, func() cc.Algorithm { return newreno.New() })
	s.Duration = 3 * sim.Second
	benchCold(b, s)
}

// BenchmarkFlowChurn measures one repetition of the dynamic-population
// engine — 500+ flows churning through the parking-lot topology (three
// Poisson classes plus one static long flow) over 20 simulated seconds —
// through a warm reused Session, the production path for campaign
// repetitions. The per-packet steady state allocates nothing (see
// TestChurnSteadyStateAllocs); what remains per run is event execution
// proper. BenchmarkFlowChurnCold keeps the construction-included number.
func BenchmarkFlowChurn(b *testing.B) {
	benchWarm(b, flowChurnBenchScenario(20*sim.Second))
}

// BenchmarkFlowChurnCold is BenchmarkFlowChurn with the full per-run
// construction included — a spec's first repetition, or what every repetition
// cost before sessions became reusable.
func BenchmarkFlowChurnCold(b *testing.B) {
	benchCold(b, flowChurnBenchScenario(20*sim.Second))
}

// BenchmarkRunQuickDumbbellCubic is the same end-to-end run with Cubic, a
// heavier per-ACK code path.
func BenchmarkRunQuickDumbbellCubic(b *testing.B) {
	benchCold(b, benchScenario(func() cc.Algorithm { return cubic.New() }))
}
