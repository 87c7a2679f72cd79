package harness

import (
	"testing"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/cc/newreno"
	"repro/internal/netsim"
	"repro/internal/sim"
)

func dropTailFactory(capacity int) func(*sim.Engine) (netsim.Queue, error) {
	return func(*sim.Engine) (netsim.Queue, error) { return aqm.NewDropTail(capacity) }
}

// parkingLotScenario is the canonical two-bottleneck parking lot: a long flow
// crosses both links while one cross flow loads each link.
func parkingLotScenario(rate1, rate2 float64, newAlgo func() cc.Algorithm) Scenario {
	s := Scenario{
		Links: []LinkDef{
			{Name: "hop1", RateBps: rate1, DelayMs: 10, NewQueue: dropTailFactory(250)},
			{Name: "hop2", RateBps: rate2, DelayMs: 10, NewQueue: dropTailFactory(250)},
		},
		Duration: 5 * sim.Second,
		Flows: []FlowSpec{
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: newAlgo, Path: []string{"hop1", "hop2"}},
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: newAlgo, Path: []string{"hop1"}},
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: newAlgo, Path: []string{"hop2"}},
		},
	}
	return s
}

// TestParkingLotConservation checks flow conservation on the parking lot: the
// flows crossing each bottleneck cannot jointly exceed its rate, and every
// flow actually moves data.
func TestParkingLotConservation(t *testing.T) {
	s := parkingLotScenario(10e6, 6e6, func() cc.Algorithm { return newreno.New() })
	res, err := Run(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 3 {
		t.Fatalf("got %d flows", len(res.Flows))
	}
	long := res.Flows[0].Metrics.ThroughputBps
	cross1 := res.Flows[1].Metrics.ThroughputBps
	cross2 := res.Flows[2].Metrics.ThroughputBps
	for i, tput := range []float64{long, cross1, cross2} {
		if tput <= 0 {
			t.Errorf("flow %d throughput = %v, want > 0", i, tput)
		}
	}
	// Conservation at each traversed bottleneck (small slack for edge effects
	// of measuring goodput over the on-time window).
	if sum := long + cross1; sum > 10e6*1.02 {
		t.Errorf("hop1 throughput sum %.0f exceeds link rate 10e6", sum)
	}
	if sum := long + cross2; sum > 6e6*1.02 {
		t.Errorf("hop2 throughput sum %.0f exceeds link rate 6e6", sum)
	}
	// The long flow is limited by the tighter of the two bottlenecks.
	if long > 6e6*1.02 {
		t.Errorf("long flow %.0f exceeds the narrow bottleneck", long)
	}
	if len(res.Links) != 2 || res.Links[0].Name != "hop1" || res.Links[1].Name != "hop2" {
		t.Fatalf("per-link results: %+v", res.Links)
	}
	for _, l := range res.Links {
		if l.Delivered == 0 {
			t.Errorf("link %s delivered nothing", l.Name)
		}
	}
}

// TestTopologyValidation exercises the topology-specific construction
// errors.
func TestTopologyValidation(t *testing.T) {
	base := parkingLotScenario(10e6, 6e6, func() cc.Algorithm { return newreno.New() })
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"duplicate link name", func(s *Scenario) { s.Links[1].Name = "hop1" }},
		{"flow without path", func(s *Scenario) { s.Flows[0].Path = nil }},
		{"unknown path link", func(s *Scenario) { s.Flows[0].Path = []string{"hop1", "nope"} }},
		{"unknown reverse path link", func(s *Scenario) { s.Flows[0].ReversePath = []string{"nope"} }},
		{"negative link delay", func(s *Scenario) { s.Links[0].DelayMs = -1 }},
	}
	for _, tc := range cases {
		s := base
		s.Links = append([]LinkDef{}, base.Links...)
		s.Flows = append([]FlowSpec{}, base.Flows...)
		tc.mut(&s)
		if _, err := NewSession(s); err == nil {
			t.Errorf("%s: topology accepted", tc.name)
		}
	}
}

// TestAsymmetricReverseSlowsFlow checks that routing acknowledgments over a
// slow reverse link materially reduces throughput versus the pure-delay
// return path, all else equal — the ACK clock is really crossing the queue.
func TestAsymmetricReverseSlowsFlow(t *testing.T) {
	build := func(reverse bool) Scenario {
		s := Scenario{
			Links: []LinkDef{
				{Name: "fwd", RateBps: 10e6, DelayMs: 5, NewQueue: dropTailFactory(500)},
				// 40-byte acks over 100 kbps: 312 acks/s, far below the ~833
				// packets/s the forward link can carry.
				{Name: "rev", RateBps: 1e5, DelayMs: 5, NewQueue: dropTailFactory(50)},
			},
			Duration: 5 * sim.Second,
			Flows: []FlowSpec{{
				RTTMs:        40,
				Workload:     alwaysOn(),
				NewAlgorithm: func() cc.Algorithm { return newreno.New() },
				Path:         []string{"fwd"},
			}},
		}
		if reverse {
			s.Flows[0].ReversePath = []string{"rev"}
		}
		return s
	}
	fast, err := Run(build(false), 3)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Run(build(true), 3)
	if err != nil {
		t.Fatal(err)
	}
	ff := fast.Flows[0].Metrics.ThroughputBps
	sf := slow.Flows[0].Metrics.ThroughputBps
	if sf <= 0 || ff <= 0 {
		t.Fatalf("throughputs: fast %v slow %v", ff, sf)
	}
	if sf > ff*0.75 {
		t.Errorf("ack-limited flow (%.0f bps) not materially slower than pure-delay reverse path (%.0f bps)", sf, ff)
	}
	// The ack-limited flow cannot deliver faster than one MTU per ack
	// opportunity: 312.5 acks/s * 1500 B * 8 = 3.75 Mbps.
	if sf > 3.75e6*1.05 {
		t.Errorf("ack-limited flow %.0f bps exceeds the ack-clock ceiling", sf)
	}
}

// TestAcksDroppedCountsDequeueTimeDrops: acks that a CoDel reverse queue
// drops at dequeue time must be counted in Result.AcksDropped, not only the
// enqueue-time tail drops. The reverse queue is given ample capacity so
// every drop is CoDel's.
func TestAcksDroppedCountsDequeueTimeDrops(t *testing.T) {
	s := Scenario{
		Links: []LinkDef{
			{Name: "fwd", RateBps: 15e6, DelayMs: 5, NewQueue: dropTailFactory(500)},
			{Name: "rev", RateBps: 3e5, DelayMs: 5, NewQueue: func(*sim.Engine) (netsim.Queue, error) {
				return aqm.NewSfqCoDel(64, 5000)
			}},
		},
		AckBytes: 40,
		Duration: 10 * sim.Second,
		Flows: []FlowSpec{
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: func() cc.Algorithm { return newreno.New() },
				Path: []string{"fwd"}, ReversePath: []string{"rev"}},
			{RTTMs: 40, Workload: alwaysOn(), NewAlgorithm: func() cc.Algorithm { return newreno.New() },
				Path: []string{"fwd"}, ReversePath: []string{"rev"}},
		},
	}
	res, err := Run(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.AcksDropped == 0 {
		t.Error("CoDel dequeue-time ack drops not counted in AcksDropped")
	}
	// They are the same drops the reverse queue reports.
	if res.Links[1].Drops < res.AcksDropped {
		t.Errorf("reverse queue drops %d < AcksDropped %d", res.Links[1].Drops, res.AcksDropped)
	}
}

// TestTopologyDeterminism: identical runs produce identical counters.
func TestTopologyDeterminism(t *testing.T) {
	s := parkingLotScenario(8e6, 5e6, func() cc.Algorithm { return newreno.New() })
	a, err := Run(s, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, 11)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offered != b.Offered || a.Delivered != b.Delivered || a.Dropped != b.Dropped {
		t.Errorf("bottleneck counters differ: %+v vs %+v", a, b)
	}
	for i := range a.Flows {
		if a.Flows[i].Transport != b.Flows[i].Transport {
			t.Errorf("flow %d transport counters differ", i)
		}
	}
}
