package harness

import (
	"math"
	"testing"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/cc/dctcp"
	"repro/internal/cc/newreno"
	"repro/internal/cc/vegas"
	"repro/internal/cc/xcp"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// alwaysOn is a workload that stays on for the whole run.
func alwaysOn() workload.Spec {
	return workload.Spec{
		Mode:    workload.ByTime,
		On:      workload.Constant{Value: 1e6},
		Off:     workload.Constant{Value: 1e6},
		StartOn: true,
	}
}

// bottleneck is the route of every flow over a dumbbell.
var bottleneck = []string{"bottleneck"}

// dumbbell is the paper's Figure 2 topology: one link, named "bottleneck",
// whose queue newQueue builds per run.
func dumbbell(rateBps float64, newQueue func(*sim.Engine) (netsim.Queue, error)) []LinkDef {
	return []LinkDef{{Name: "bottleneck", RateBps: rateBps, NewQueue: newQueue}}
}

func flowsOf(n int, rttMs float64, algo func() cc.Algorithm) []FlowSpec {
	out := make([]FlowSpec, n)
	for i := range out {
		out[i] = FlowSpec{RTTMs: rttMs, Workload: alwaysOn(), NewAlgorithm: algo, Path: bottleneck}
	}
	return out
}

// validScenario is a one-flow dumbbell that builds and runs.
func validScenario() Scenario {
	return Scenario{
		Links:    dumbbell(1e6, dropTailFactory(100)),
		Duration: sim.Second,
		Flows:    flowsOf(1, 100, func() cc.Algorithm { return newreno.New() }),
	}
}

// expectRunErrors applies each mutation to a valid scenario and checks that
// building the run rejects the result.
func expectRunErrors(t *testing.T, cases []struct {
	name string
	mut  func(*Scenario)
}) {
	t.Helper()
	for _, tc := range cases {
		s := validScenario()
		tc.mut(&s)
		if _, err := Run(s, 1); err == nil {
			t.Errorf("%s: scenario accepted", tc.name)
		}
	}
}

// TestScenarioValidate checks that a scenario is validated as its run is
// built: links without service, flows with a bad route, RTT, algorithm or
// workload are rejected, and a well-formed scenario is accepted.
func TestScenarioValidate(t *testing.T) {
	if _, err := Run(validScenario(), 1); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	expectRunErrors(t, []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no links", func(s *Scenario) { s.Links = nil }},
		{"zero rate", func(s *Scenario) { s.Links[0].RateBps = 0 }},
		{"no path", func(s *Scenario) { s.Flows[0].Path = nil }},
		{"unknown link", func(s *Scenario) { s.Flows[0].Path = []string{"nope"} }},
		{"negative rtt", func(s *Scenario) { s.Flows[0].RTTMs = -1 }},
		{"no algorithm", func(s *Scenario) { s.Flows[0].NewAlgorithm = nil }},
		{"invalid workload", func(s *Scenario) { s.Flows[0].Workload = workload.Spec{} }},
	})
}

// TestRunErrors checks that building a run surfaces failures of the
// constructors a scenario supplies: queue factories, fault schedules and
// algorithm constructors.
func TestRunErrors(t *testing.T) {
	expectRunErrors(t, []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no queue factory", func(s *Scenario) { s.Links[0].NewQueue = nil }},
		{"nil queue", func(s *Scenario) {
			s.Links[0].NewQueue = func(*sim.Engine) (netsim.Queue, error) { return nil, nil }
		}},
		{"queue factory error", func(s *Scenario) { s.Links[0].NewQueue = dropTailFactory(0) }},
		{"bad fault schedule", func(s *Scenario) {
			s.Links[0].Faults = &faults.Schedule{Outages: []faults.Outage{{StartS: -1, DurationS: 1}}}
		}},
		{"nil algorithm", func(s *Scenario) { s.Flows[0].NewAlgorithm = func() cc.Algorithm { return nil } }},
	})
}

func TestRunNewRenoFillsDumbbell(t *testing.T) {
	s := Scenario{
		Links:    dumbbell(15e6, dropTailFactory(1000)),
		Duration: 20 * sim.Second,
		Flows:    flowsOf(1, 150, func() cc.Algorithm { return newreno.New() }),
	}
	res, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 1 {
		t.Fatal("flow count")
	}
	m := res.Flows[0].Metrics
	if m.Mbps() < 10 {
		t.Errorf("single NewReno flow achieved only %.2f Mbps of 15 Mbps", m.Mbps())
	}
	if m.Mbps() > 15.5 {
		t.Errorf("throughput %.2f exceeds link rate", m.Mbps())
	}
	if m.MinRTT < 0.150 || m.MinRTT > 0.152 {
		t.Errorf("minRTT = %v", m.MinRTT)
	}
	if m.OnDuration < 19 {
		t.Errorf("on duration = %v", m.OnDuration)
	}
	if res.Flows[0].Algorithm != "newreno" {
		t.Error("algorithm name")
	}
	if res.Offered != res.Delivered+res.Dropped+int64(0) && res.Offered < res.Delivered {
		t.Error("packet conservation")
	}
}

func TestRunFairnessAmongIdenticalSenders(t *testing.T) {
	s := Scenario{
		Links:    dumbbell(15e6, dropTailFactory(1000)),
		Duration: 30 * sim.Second,
		Flows:    flowsOf(4, 150, func() cc.Algorithm { return newreno.New() }),
	}
	res, err := Run(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, f := range res.Flows {
		total += f.Metrics.Mbps()
	}
	if total < 10 || total > 15.5 {
		t.Errorf("aggregate throughput %.2f Mbps", total)
	}
	// No sender should be starved outright.
	for i, f := range res.Flows {
		if f.Metrics.Mbps() < 0.5 {
			t.Errorf("flow %d starved: %.2f Mbps", i, f.Metrics.Mbps())
		}
	}
}

func TestRunVegasKeepsQueuesSmallerThanCubic(t *testing.T) {
	base := Scenario{
		Links:    dumbbell(15e6, dropTailFactory(1000)),
		Duration: 30 * sim.Second,
	}
	vegasScenario := base
	vegasScenario.Flows = flowsOf(4, 150, func() cc.Algorithm { return vegas.New() })
	cubicScenario := base
	cubicScenario.Flows = flowsOf(4, 150, func() cc.Algorithm { return cubic.New() })

	vres, err := Run(vegasScenario, 3)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := Run(cubicScenario, 3)
	if err != nil {
		t.Fatal(err)
	}
	var vDelay, cDelay float64
	for i := range vres.Flows {
		vDelay += vres.Flows[i].Metrics.QueueingDelayMs()
		cDelay += cres.Flows[i].Metrics.QueueingDelayMs()
	}
	if vDelay >= cDelay {
		t.Errorf("Vegas queueing delay (%.1f ms total) should be below Cubic's (%.1f ms total)", vDelay, cDelay)
	}
}

func TestRunXCPQueueGivesHighThroughputLowLoss(t *testing.T) {
	s := Scenario{
		Links: dumbbell(15e6, func(e *sim.Engine) (netsim.Queue, error) {
			return aqm.NewXCPQueue(e, 1000, 15e6)
		}),
		Duration: 20 * sim.Second,
		Flows:    flowsOf(4, 150, func() cc.Algorithm { return xcp.New(netsim.MTU) }),
	}
	res, err := Run(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	var losses int64
	for _, f := range res.Flows {
		total += f.Metrics.Mbps()
		losses += f.Transport.LossEvents
	}
	if total < 8 {
		t.Errorf("XCP aggregate throughput %.2f Mbps too low", total)
	}
	if losses > 20 {
		t.Errorf("XCP suffered %d loss events; the router should prevent congestion", losses)
	}
}

func TestRunDCTCPOverECNQueue(t *testing.T) {
	s := Scenario{
		Links: dumbbell(100e6, func(*sim.Engine) (netsim.Queue, error) {
			return aqm.NewECNMarking(1000, 65)
		}),
		Duration: 10 * sim.Second,
		Flows:    flowsOf(8, 4, func() cc.Algorithm { return dctcp.New() }),
	}
	res, err := Run(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, f := range res.Flows {
		total += f.Metrics.Mbps()
	}
	if total < 50 {
		t.Errorf("DCTCP aggregate %.2f Mbps of 100 Mbps", total)
	}
	// DCTCP's whole point: queueing delay stays small (ECN, not buffer fill).
	for _, f := range res.Flows {
		if f.Metrics.QueueingDelayMs() > 20 {
			t.Errorf("DCTCP queueing delay %.2f ms too large", f.Metrics.QueueingDelayMs())
		}
	}
}

func TestRunRemySenderOnDesignRange(t *testing.T) {
	// The initial single-rule RemyCC (§4.3: m=1, b=1, r=0.01 ms) is
	// intentionally over-aggressive — it overloads the bottleneck, builds a
	// standing queue and loses heavily. A hand-tuned single rule with a 2 ms
	// pacing floor keeps the aggregate offered load under the link rate and
	// must therefore deliver high throughput with tiny queueing delay. The
	// gap between the two is exactly what the Remy optimizer exploits.
	defaultTree := core.DefaultWhiskerTree()
	pacedTree := core.NewWhiskerTree(core.Action{WindowMultiple: 1, WindowIncrement: 1, IntersendMs: 2})

	run := func(tree *core.WhiskerTree) Result {
		s := Scenario{
			Links:    dumbbell(15e6, dropTailFactory(1000)),
			Duration: 20 * sim.Second,
			Flows:    flowsOf(2, 150, func() cc.Algorithm { return core.NewSender(tree) }),
		}
		res, err := Run(s, 6)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	defRes := run(defaultTree)
	var defTotal float64
	for _, f := range defRes.Flows {
		defTotal += f.Metrics.Mbps()
		if f.Algorithm != "remy" {
			t.Error("algorithm name")
		}
	}
	if defTotal <= 0.5 {
		t.Errorf("default RemyCC delivered almost nothing: %.2f Mbps", defTotal)
	}

	pacedRes := run(pacedTree)
	var pacedTotal, pacedDelay float64
	for _, f := range pacedRes.Flows {
		pacedTotal += f.Metrics.Mbps()
		pacedDelay += f.Metrics.QueueingDelayMs()
	}
	if pacedTotal < 9 {
		t.Errorf("paced RemyCC aggregate %.2f Mbps too low", pacedTotal)
	}
	if pacedDelay/2 > 30 {
		t.Errorf("paced RemyCC mean queueing delay %.1f ms too high", pacedDelay/2)
	}
	if pacedTotal <= defTotal {
		t.Errorf("paced rule (%.2f Mbps) should outperform the default rule (%.2f Mbps) in goodput", pacedTotal, defTotal)
	}
}

func TestRunDeterministicAcrossCalls(t *testing.T) {
	s := Scenario{
		Links:    dumbbell(10e6, dropTailFactory(500)),
		Duration: 10 * sim.Second,
		Flows: []FlowSpec{
			{RTTMs: 100, Workload: workload.Spec{Mode: workload.ByBytes, On: workload.Exponential{MeanValue: 100e3}, Off: workload.Exponential{MeanValue: 0.5}}, NewAlgorithm: func() cc.Algorithm { return cubic.New() }, Path: bottleneck},
			{RTTMs: 100, Workload: workload.Spec{Mode: workload.ByBytes, On: workload.Exponential{MeanValue: 100e3}, Off: workload.Exponential{MeanValue: 0.5}}, NewAlgorithm: func() cc.Algorithm { return newreno.New() }, Path: bottleneck},
		},
	}
	a, err := Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Flows {
		if a.Flows[i].Metrics.ThroughputBps != b.Flows[i].Metrics.ThroughputBps ||
			a.Flows[i].Metrics.AvgRTT != b.Flows[i].Metrics.AvgRTT ||
			a.Flows[i].Transport.PacketsSent != b.Flows[i].Transport.PacketsSent {
			t.Fatalf("run not deterministic for flow %d", i)
		}
	}
	c, err := Run(s, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Flows {
		if a.Flows[i].Transport.PacketsSent != c.Flows[i].Transport.PacketsSent {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestRunOnOffWorkloadAccounting(t *testing.T) {
	s := Scenario{
		Links:    dumbbell(10e6, dropTailFactory(1000)),
		Duration: 60 * sim.Second,
		Flows: []FlowSpec{{
			RTTMs: 100,
			Workload: workload.Spec{
				Mode: workload.ByTime,
				On:   workload.Exponential{MeanValue: 1},
				Off:  workload.Exponential{MeanValue: 1},
			},
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
			Path:         bottleneck,
		}},
	}
	res, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Flows[0]
	if f.OnPeriods < 10 {
		t.Errorf("only %d on periods in 60 s with 1 s means", f.OnPeriods)
	}
	if f.Metrics.OnDuration <= 0 || f.Metrics.OnDuration >= 60 {
		t.Errorf("on duration = %v", f.Metrics.OnDuration)
	}
	duty := f.Metrics.OnDuration / 60
	if math.Abs(duty-0.5) > 0.25 {
		t.Errorf("duty cycle = %v, expected around 0.5", duty)
	}
	if f.Metrics.BytesAcked == 0 {
		t.Error("no bytes delivered")
	}
}

func TestRunTraceDrivenScenario(t *testing.T) {
	// A sparse handmade trace: throughput is bounded by the trace's delivery
	// opportunities regardless of the congestion controller.
	var trace []sim.Time
	for ms := 0; ms < 10000; ms += 2 { // one packet every 2 ms = 6 Mbps
		trace = append(trace, sim.Time(ms)*sim.Millisecond)
	}
	s := Scenario{
		Links:    []LinkDef{{Name: "bottleneck", Trace: trace, NewQueue: dropTailFactory(1000)}},
		Duration: 10 * sim.Second,
		Flows:    flowsOf(2, 50, func() cc.Algorithm { return cubic.New() }),
	}
	res, err := Run(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, f := range res.Flows {
		total += f.Metrics.Mbps()
	}
	if total > 6.2 {
		t.Errorf("aggregate %.2f Mbps exceeds the trace capacity of 6 Mbps", total)
	}
	if total < 3 {
		t.Errorf("aggregate %.2f Mbps suspiciously low for a loaded trace link", total)
	}
}

func TestRunOnDeliverHook(t *testing.T) {
	count := 0
	s := Scenario{
		Links:     dumbbell(10e6, dropTailFactory(100)),
		Duration:  2 * sim.Second,
		Flows:     flowsOf(1, 50, func() cc.Algorithm { return newreno.New() }),
		OnDeliver: func(p *netsim.Packet, now sim.Time) { count++ },
	}
	if _, err := Run(s, 9); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("OnDeliver hook never fired")
	}
}
