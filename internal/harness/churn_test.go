package harness

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/cc"
	"repro/internal/cc/cubic"
	"repro/internal/cc/newreno"
	"repro/internal/sim"
	"repro/internal/workload"
)

// churnDumbbell is a single-bottleneck scenario with one churn class:
// constant-size transfers arriving every interarrival seconds.
func churnDumbbell(interarrival, sizeBytes float64, maxLive int) Scenario {
	return Scenario{
		Links:        dumbbell(15e6, dropTailFactory(250)),
		Duration:     10 * sim.Second,
		MaxLiveFlows: maxLive,
		Churn: []ChurnClass{{
			Interarrival: workload.Constant{Value: interarrival},
			Size:         workload.Constant{Value: sizeBytes},
			RTTMs:        60,
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
			Path:         bottleneck,
		}},
	}
}

func TestChurnBasicCompletion(t *testing.T) {
	s := churnDumbbell(0.1, 30e3, 0)
	res, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 0 {
		t.Errorf("churn-only scenario reported %d static flows", len(res.Flows))
	}
	if len(res.Churn) != 1 {
		t.Fatalf("got %d churn results, want 1", len(res.Churn))
	}
	c := res.Churn[0]
	if c.Algorithm != "newreno" {
		t.Errorf("algorithm %q, want newreno", c.Algorithm)
	}
	// 10 s / 0.1 s interarrival = ~99 arrivals; the link is fast enough that
	// nearly all complete.
	if c.Spawned < 90 {
		t.Errorf("spawned %d flows, want ~99", c.Spawned)
	}
	if c.Completed < c.Spawned-10 {
		t.Errorf("completed %d of %d spawned; transfers should finish quickly", c.Completed, c.Spawned)
	}
	if c.Rejected != 0 {
		t.Errorf("rejected %d arrivals with no cap pressure", c.Rejected)
	}
	if c.FCT.Count != c.Completed {
		t.Errorf("FCT count %d != completed %d", c.FCT.Count, c.Completed)
	}
	if c.FCT.Mean <= 0 || c.FCT.Min <= 0 || c.FCT.Max < c.FCT.Min {
		t.Errorf("implausible FCT summary: %+v", c.FCT)
	}
	// Integer and floating aggregates must agree.
	if got, want := float64(c.FCTSumUs)/1e6/float64(c.Completed), c.FCT.Mean; math.Abs(got-want)/want > 1e-6 {
		t.Errorf("FCTSumUs-derived mean %g != summary mean %g", got, want)
	}
	// A 30 kB transfer at 15 Mbps with a 60 ms RTT takes a few RTTs of slow
	// start: completion times should be tens to hundreds of ms.
	if c.FCT.Mean < 0.02 || c.FCT.Mean > 2 {
		t.Errorf("mean FCT %.3fs outside plausible range", c.FCT.Mean)
	}
	// Every completed transfer acked at least its size.
	if c.Transport.BytesAcked < c.Completed*30000 {
		t.Errorf("BytesAcked %d < completed*size %d", c.Transport.BytesAcked, c.Completed*30000)
	}
}

func TestChurnDeterminism(t *testing.T) {
	s := churnDumbbell(0.05, 50e3, 0)
	s.Churn[0].Interarrival = workload.Exponential{MeanValue: 0.05}
	s.Churn[0].Size = workload.Exponential{MeanValue: 50e3}
	r1, err := Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("same scenario and seed produced different churn results")
	}
	r3, err := Run(s, 43)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Churn[0].FCTSumUs == r1.Churn[0].FCTSumUs && r3.Churn[0].Spawned == r1.Churn[0].Spawned {
		t.Error("different seeds produced identical churn outcomes (suspicious)")
	}
}

func TestChurnMaxLiveFlowsCap(t *testing.T) {
	// Arrivals every 10 ms of large transfers over a slow link: the
	// population hits the cap almost immediately.
	s := churnDumbbell(0.01, 1e6, 4)
	s.Links[0].RateBps = 2e6
	res, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Churn[0]
	if c.Rejected == 0 {
		t.Error("no arrivals rejected despite a saturated cap")
	}
	if live := c.Spawned - c.Completed; live > 4 {
		t.Errorf("%d flows live at the horizon, cap is 4", live)
	}
	if c.Spawned+c.Rejected < 900 {
		t.Errorf("arrival process stalled: %d spawned + %d rejected", c.Spawned, c.Rejected)
	}
}

func TestChurnMaxArrivals(t *testing.T) {
	s := churnDumbbell(0.05, 20e3, 0)
	s.Churn[0].MaxArrivals = 7
	res, err := Run(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Churn[0].Spawned + res.Churn[0].Rejected; got != 7 {
		t.Errorf("arrivals = %d, want exactly MaxArrivals = 7", got)
	}
}

// TestChurnAlongsideStaticFlows mixes a static long-running flow with churn
// classes on the parking-lot topology: both kinds must report, and the churn
// flows route over their declared hops.
func TestChurnAlongsideStaticFlows(t *testing.T) {
	s := parkingLotScenario(10e6, 6e6, func() cc.Algorithm { return cubic.New() })
	s.Duration = 10 * sim.Second
	s.Churn = []ChurnClass{
		{
			Interarrival: workload.Exponential{MeanValue: 0.1},
			Size:         workload.Exponential{MeanValue: 40e3},
			RTTMs:        40,
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
			Path:         []string{"hop1", "hop2"},
		},
		{
			Interarrival: workload.Exponential{MeanValue: 0.2},
			Size:         workload.Exponential{MeanValue: 40e3},
			RTTMs:        40,
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
			Path:         []string{"hop2"},
		},
	}
	res, err := Run(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 3 {
		t.Fatalf("static flow count %d, want 3", len(res.Flows))
	}
	if len(res.Churn) != 2 {
		t.Fatalf("churn class count %d, want 2", len(res.Churn))
	}
	for i, c := range res.Churn {
		if c.Class != i {
			t.Errorf("churn result %d has class %d", i, c.Class)
		}
		if c.Spawned == 0 || c.Completed == 0 {
			t.Errorf("class %d spawned %d completed %d; churn stalled", i, c.Spawned, c.Completed)
		}
	}
	for i, f := range res.Flows {
		if f.Metrics.ThroughputBps <= 0 {
			t.Errorf("static flow %d starved alongside churn", i)
		}
	}
}

// TestChurnStaticUnperturbed pins the degenerate-case contract: adding a
// churn class must not change the static flows' random streams or slots, so
// a static flow's results with and without an inert churn class match.
func TestChurnStaticUnperturbed(t *testing.T) {
	base := Scenario{
		Links:    dumbbell(15e6, dropTailFactory(250)),
		Duration: 5 * sim.Second,
		Flows: []FlowSpec{{
			RTTMs:        100,
			Workload:     workload.DumbbellDefault(),
			NewAlgorithm: func() cc.Algorithm { return newreno.New() },
			Path:         bottleneck,
		}},
	}
	plain, err := Run(base, 9)
	if err != nil {
		t.Fatal(err)
	}
	// An inert churn class: first arrival would land beyond the horizon.
	withChurn := base
	withChurn.Churn = []ChurnClass{{
		Interarrival: workload.Constant{Value: 1e6},
		Size:         workload.Constant{Value: 1e4},
		RTTMs:        60,
		NewAlgorithm: func() cc.Algorithm { return newreno.New() },
		Path:         bottleneck,
	}}
	mixed, err := Run(withChurn, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Flows, mixed.Flows) {
		t.Error("adding an inert churn class perturbed the static flow's results")
	}
}

// TestChurnValidation checks that a run rejects churn classes the network
// and workload constructors cannot realize. Routes are attached at each
// arrival, so route errors surface at the first one: every case runs the
// scenario.
func TestChurnValidation(t *testing.T) {
	algo := func() cc.Algorithm { return newreno.New() }
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no algorithm", func(s *Scenario) { s.Churn[0].NewAlgorithm = nil }},
		{"no interarrival", func(s *Scenario) { s.Churn[0].Interarrival = nil }},
		{"no size", func(s *Scenario) { s.Churn[0].Size = nil }},
		{"negative rtt", func(s *Scenario) { s.Churn[0].RTTMs = -1 }},
		{"negative max live", func(s *Scenario) { s.MaxLiveFlows = -1 }},
		{"negative max arrivals", func(s *Scenario) { s.Churn[0].MaxArrivals = -1 }},
		{"path without topology", func(s *Scenario) { s.Churn[0].Path = []string{"hop1"} }},
		{"no path", func(s *Scenario) { s.Churn[0].Path = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := churnDumbbell(1, 1e4, 0)
			tc.mut(&s)
			if _, err := Run(s, 1); err == nil {
				t.Error("invalid churn scenario accepted")
			}
		})
	}
	// A churn class referencing an unknown topology link must be rejected.
	s := parkingLotScenario(10e6, 6e6, algo)
	s.Churn = []ChurnClass{{Interarrival: workload.Constant{Value: 1}, Size: workload.Constant{Value: 1e4}, RTTMs: 40, NewAlgorithm: algo, Path: []string{"nope"}}}
	if _, err := Run(s, 1); err == nil {
		t.Error("churn path over unknown link accepted")
	}
	// Churn-only scenarios (no static flows) are valid.
	if _, err := Run(churnDumbbell(1, 1e4, 0), 1); err != nil {
		t.Errorf("churn-only scenario rejected: %v", err)
	}
}

// flowChurnBenchScenario is the many-flow churn workload of the acceptance
// criterion: three Poisson classes (end-to-end plus one per hop) churning
// through the parking-lot topology alongside one static long flow.
func flowChurnBenchScenario(duration sim.Time) Scenario {
	algo := func() cc.Algorithm { return newreno.New() }
	s := parkingLotScenario(10e6, 6e6, func() cc.Algorithm { return cubic.New() })
	s.Flows = s.Flows[:1] // keep the long flow, replace cross traffic by churn
	s.Duration = duration
	s.MaxLiveFlows = 512
	class := func(path []string, rate float64) ChurnClass {
		return ChurnClass{
			Interarrival: workload.Exponential{MeanValue: 1 / rate},
			Size:         workload.Exponential{MeanValue: 15e3},
			RTTMs:        40,
			NewAlgorithm: algo,
			Path:         path,
		}
	}
	// ~0.12 Mb per flow: 3 Mbps of churn on each hop, leaving room for the
	// static long flow, so transfers complete while the flow count stays in
	// the many-hundreds regime (35 arrivals/s).
	s.Churn = []ChurnClass{
		class([]string{"hop1", "hop2"}, 10),
		class([]string{"hop1"}, 15),
		class([]string{"hop2"}, 10),
	}
	return s
}

// TestFlowChurnScale checks the benchmark scenario actually exercises the
// many-flow regime: 500+ flows spawned and the overwhelming majority
// completed.
func TestFlowChurnScale(t *testing.T) {
	res, err := Run(flowChurnBenchScenario(20*sim.Second), 1)
	if err != nil {
		t.Fatal(err)
	}
	var spawned, completed int64
	for _, c := range res.Churn {
		spawned += c.Spawned
		completed += c.Completed
	}
	if spawned < 500 {
		t.Errorf("spawned %d churn flows, want 500+", spawned)
	}
	if float64(completed) < 0.8*float64(spawned) {
		t.Errorf("completed %d of %d; churn should mostly complete", completed, spawned)
	}
}

// TestChurnSteadyStateAllocs pins the allocation criterion: once pools have
// grown to the peak live population, extra simulated time (more packets, more
// spawns and retires) must cost no extra allocations per packet. It compares
// total allocations of a short and a long run of the same churning scenario;
// the difference is attributable to the extra steady-state work.
func TestChurnSteadyStateAllocs(t *testing.T) {
	// The horizons are deep enough that pools have plateaued at the peak live
	// population well before the short horizon ends (the allocation curve is
	// ~2.6k at 5s, ~4.3k at 30s, and nearly flat after).
	short := flowChurnBenchScenario(30 * sim.Second)
	long := flowChurnBenchScenario(60 * sim.Second)

	var shortPackets, longPackets int64
	allocShort := testing.AllocsPerRun(3, func() {
		res, err := Run(short, 1)
		if err != nil {
			t.Fatal(err)
		}
		shortPackets = res.Offered
	})
	allocLong := testing.AllocsPerRun(3, func() {
		res, err := Run(long, 1)
		if err != nil {
			t.Fatal(err)
		}
		longPackets = res.Offered
	})
	extraPackets := longPackets - shortPackets
	extraAllocs := allocLong - allocShort
	if extraPackets <= 0 {
		t.Fatalf("long run offered %d packets vs short %d; scenario broken", longPackets, shortPackets)
	}
	// Steady state must be allocation-free per packet. Pool growth differences
	// between the two horizons allow a small absolute slack.
	perPacket := extraAllocs / float64(extraPackets)
	t.Logf("short: %.0f allocs / %d pkts; long: %.0f allocs / %d pkts; marginal %.4f allocs/pkt",
		allocShort, shortPackets, allocLong, longPackets, perPacket)
	if perPacket > 0.01 {
		t.Errorf("steady-state allocation rate %.4f allocs/packet, want ~0", perPacket)
	}
}
