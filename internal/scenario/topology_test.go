package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/sim"
)

func topoWorkload() WorkloadSpec {
	return ByBytesWorkload(ExponentialDist(50_000), ExponentialDist(0.5))
}

func parkingLotConfig() FamilyConfig {
	return FamilyConfig{
		Scheme:          "newreno",
		Workload:        topoWorkload(),
		DurationSeconds: 2,
		Seed:            42,
		Repetitions:     2,
	}
}

// TestTopologySpecJSONRoundTrip: a topology spec must survive
// encode→decode→encode byte-identically, including routes and per-link
// queues.
func TestTopologySpecJSONRoundTrip(t *testing.T) {
	for _, fam := range BeyondDumbbellFamilies() {
		t.Run(fam.Name, func(t *testing.T) {
			spec := fam.Build(parkingLotConfig())
			if err := spec.Validate(); err != nil {
				t.Fatalf("family spec invalid: %v", err)
			}
			b1, err := spec.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(b1)
			if err != nil {
				t.Fatal(err)
			}
			if err := back.Validate(); err != nil {
				t.Fatalf("decoded spec invalid: %v", err)
			}
			b2, err := back.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if string(b1) != string(b2) {
				t.Errorf("round trip not a fixed point:\n%s\nvs\n%s", b1, b2)
			}
			if back.Topology == nil || len(back.Topology.Links) == 0 {
				t.Error("topology lost in round trip")
			}
		})
	}
}

// errContains runs Validate and checks the error mentions the fragment.
func errContains(t *testing.T, s Spec, fragment string) {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Errorf("Validate accepted a spec that should fail with %q", fragment)
		return
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not mention %q", err, fragment)
	}
}

func TestTopologyValidationErrors(t *testing.T) {
	base := ParkingLotSpec(parkingLotConfig())

	// Dangling node: link references an undeclared node.
	s := base
	topo := *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[1].To = "nowhere"
	s.Topology = &topo
	errContains(t, s, "dangles")

	// Cycle in a route: a route that revisits a node.
	s = base
	topo = *base.Topology
	topo.Links = append(append([]TopoLinkSpec{}, base.Topology.Links...),
		TopoLinkSpec{Name: "back", From: "dst", To: "src", RateBps: 1e6})
	s.Topology = &topo
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = []string{"hop1", "hop2", "back", "hop1"}
	errContains(t, s, "cycle")

	// Negative per-link queue capacity.
	s = base
	topo = *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[0].Queue.CapacityPackets = -1
	s.Topology = &topo
	errContains(t, s, "negative queue capacity")

	// Flow with no path.
	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = nil
	errContains(t, s, "no path")

	// Unknown link in a path.
	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = []string{"hop1", "nope"}
	errContains(t, s, "unknown link")

	// Disconnected route: hop2 does not start where... hop2 comes first.
	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[0].Path = []string{"hop2", "hop1"}
	errContains(t, s, "disconnected")

	// Reverse path with wrong endpoints: reusing a forward link reverses
	// nothing.
	s = base
	s.Flows = append([]FlowSpec{}, base.Flows...)
	s.Flows[1].ReversePath = []string{"hop1"}
	errContains(t, s, "reverse path")

	// Self-loop link.
	s = base
	topo = *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[0].To = topo.Links[0].From
	s.Topology = &topo
	errContains(t, s, "self-loop")

	// Duplicate node and link names.
	s = base
	topo = *base.Topology
	topo.Nodes = append(append([]NodeSpec{}, base.Topology.Nodes...), NodeSpec{Name: "src"})
	s.Topology = &topo
	errContains(t, s, "twice")
	s = base
	topo = *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[1].Name = "hop1"
	s.Topology = &topo
	errContains(t, s, "twice")

	// Link with neither rate nor model.
	s = base
	topo = *base.Topology
	topo.Links = append([]TopoLinkSpec{}, base.Topology.Links...)
	topo.Links[0].RateBps = 0
	s.Topology = &topo
	errContains(t, s, "rate_bps")

	// Routed flows require a topology.
	s = base
	s.Topology = nil
	s.Link.RateBps = 1e6
	errContains(t, s, "no topology")

	// Topologies with no nodes or no links.
	s = base
	s.Topology = &TopologySpec{}
	errContains(t, s, "no nodes")
	s = base
	s.Topology = &TopologySpec{Nodes: []NodeSpec{{Name: "a"}, {Name: "b"}}}
	errContains(t, s, "no links")
}

// TestFamiliesCompileAndRun executes one short repetition of each canonical
// family end to end through the runner.
func TestFamiliesCompileAndRun(t *testing.T) {
	for _, fam := range BeyondDumbbellFamilies() {
		t.Run(fam.Name, func(t *testing.T) {
			cfg := parkingLotConfig()
			cfg.Repetitions = 1
			spec := fam.Build(cfg)
			results, err := (Runner{Workers: 1}).RunOne(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 1 {
				t.Fatalf("got %d results", len(results))
			}
			res := results[0].Res
			if res.Offered == 0 {
				t.Error("no packets offered")
			}
			if len(res.Links) != len(spec.Topology.Links) {
				t.Errorf("got %d link results, want %d", len(res.Links), len(spec.Topology.Links))
			}
			var acked int64
			for _, f := range res.Flows {
				acked += f.Transport.BytesAcked
			}
			if acked == 0 {
				t.Error("no bytes acknowledged across flows")
			}
		})
	}
}

// TestTopologyWorkerDeterminism: topology repetitions are worker-count
// invariant like every other spec.
func TestTopologyWorkerDeterminism(t *testing.T) {
	cfg := parkingLotConfig()
	cfg.Repetitions = 3
	spec := ParkingLotSpec(cfg)
	one, err := (Runner{Workers: 1}).RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	four, err := (Runner{Workers: 4}).RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		a, b := one[i], four[i]
		if a.Seed != b.Seed || a.Res.Offered != b.Res.Offered || a.Res.Delivered != b.Res.Delivered {
			t.Errorf("rep %d differs across worker counts", i)
		}
		for j := range a.Res.Flows {
			if a.Res.Flows[j].Transport != b.Res.Flows[j].Transport {
				t.Errorf("rep %d flow %d transport counters differ", i, j)
			}
		}
	}
}

// TestCBRSchemeValidation: the cbr scheme requires a positive rate.
func TestCBRSchemeValidation(t *testing.T) {
	s := New(
		WithLink(10e6),
		WithDuration(1),
		WithFlow(FlowSpec{Scheme: "cbr", RTTMs: 50, Workload: topoWorkload()}),
	)
	if _, _, err := s.Compile(nil, 0); err == nil || !strings.Contains(err.Error(), "rate_bps") {
		t.Errorf("cbr without rate_bps compiled: %v", err)
	}
	s.Flows[0].RateBps = 2e6
	if _, _, err := s.Compile(nil, 0); err != nil {
		t.Errorf("cbr with rate_bps failed to compile: %v", err)
	}
}

// TestCBRPacingMatchesSpecMTU: the cbr pacing gap must be sized for the
// packets the transport actually sends, so a non-default MTU does not skew
// the offered rate by mtu/1500.
func TestCBRPacingMatchesSpecMTU(t *testing.T) {
	for _, mtu := range []int{0, 500, 9000} {
		s := New(
			WithLink(10e6),
			WithDuration(1),
			WithMTU(mtu),
			WithFlow(FlowSpec{Scheme: "cbr", RateBps: 1e6, RTTMs: 50, Workload: topoWorkload()}),
		)
		scn, _, err := s.Compile(nil, 0)
		if err != nil {
			t.Fatalf("mtu %d: %v", mtu, err)
		}
		bytes := mtu
		if bytes == 0 {
			bytes = 1500
		}
		want := sim.FromSeconds(float64(bytes) * 8 / 1e6)
		if got := scn.Flows[0].NewAlgorithm().PacingGap(); got != want {
			t.Errorf("mtu %d: pacing gap %v, want %v", mtu, got, want)
		}
	}
}

// TestCrossTrafficCBRIsUnresponsive: the cbr cross flow keeps sending at its
// configured rate while on, regardless of losses the responsive flows react
// to.
func TestCrossTrafficCBRIsUnresponsive(t *testing.T) {
	cfg := parkingLotConfig()
	cfg.Repetitions = 1
	cfg.DurationSeconds = 3
	spec := CrossTrafficSpec(cfg)
	results, err := (Runner{Workers: 1}).RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Res
	// Flow order: 2 responsive flows then the cbr flow.
	if len(res.Flows) != 3 {
		t.Fatalf("got %d flows", len(res.Flows))
	}
	cbrFlow := res.Flows[2]
	if cbrFlow.Algorithm != "cbr" {
		t.Fatalf("flow 2 runs %q, want cbr", cbrFlow.Algorithm)
	}
	if cbrFlow.Transport.PacketsSent == 0 {
		t.Error("cbr flow sent nothing")
	}
	// While on, CBR offers 5 Mbps = ~417 packets/s; over the run its average
	// send rate must be well above what a loss-responsive scheme would settle
	// at if it backed off, and bounded by the configured rate.
	onSeconds := res.Flows[2].Metrics.OnDuration
	if onSeconds > 0 {
		rate := float64(cbrFlow.Transport.PacketsSent) * 1500 * 8 / onSeconds
		if rate > 5e6*1.1 {
			t.Errorf("cbr sent at %.0f bps, above its configured 5e6", rate)
		}
		if rate < 5e6*0.5 {
			t.Errorf("cbr sent at %.0f bps, suspiciously below its configured 5e6", rate)
		}
	}
}

// asOneLinkTopology rewrites a spec without a Topology as the explicit
// one-link topology it stands for: a link named BottleneckLink with the
// spec's link description, every flow and churn class routed over it, and
// its fault schedule (if any) naming it.
func asOneLinkTopology(s Spec) Spec {
	route := []string{BottleneckLink}
	t := s
	t.Topology = &TopologySpec{
		Nodes: []NodeSpec{{Name: "src"}, {Name: "dst"}},
		Links: []TopoLinkSpec{{
			Name:           BottleneckLink,
			From:           "src",
			To:             "dst",
			RateBps:        s.Link.RateBps,
			Model:          s.Link.Model,
			TraceLoop:      s.Link.TraceLoop,
			XCPCapacityBps: s.Link.XCPCapacityBps,
		}},
	}
	t.Link = LinkSpec{}
	t.Flows = append([]FlowSpec(nil), s.Flows...)
	for i := range t.Flows {
		t.Flows[i].Path = route
	}
	if s.Churn != nil {
		churn := *s.Churn
		churn.Classes = append([]ChurnClassSpec(nil), churn.Classes...)
		for i := range churn.Classes {
			churn.Classes[i].Path = route
		}
		t.Churn = &churn
	}
	if s.Faults != nil {
		f := FaultsSpec{Links: append([]LinkFaultSpec(nil), s.Faults.Links...)}
		f.Links[0].Link = BottleneckLink
		t.Faults = &f
	}
	return t
}

// TestDumbbellIsOneLinkTopology pins that a spec without a Topology compiles
// to exactly the explicit one-link topology: both forms give deeply equal
// results for every queue discipline, a trace-model link, a fault schedule
// and a churn class.
func TestDumbbellIsOneLinkTopology(t *testing.T) {
	w := ByBytesWorkload(ExponentialDist(100e3), ExponentialDist(0.5))
	base := func(scheme string, opts ...Option) Spec {
		all := append([]Option{
			WithName("dumbbell-" + scheme),
			WithLink(15e6),
			WithDuration(3),
			WithSeed(7),
			WithRepetitions(2),
			WithFlows(3, scheme, 100, w),
		}, opts...)
		return New(all...)
	}
	cases := []struct {
		name string
		spec Spec
	}{
		{"droptail", base("cubic", WithQueue(QueueDropTail, 100))},
		{"sfqcodel", base("cubic/sfqcodel")},
		{"xcp", base("xcp")},
		{"ecn", base("dctcp", WithLink(100e6), WithECNThreshold(20))},
		{"trace-model", base("newreno", WithLinkModel("verizon"))},
		{"faults", base("newreno", WithFaults(FaultsSpec{Links: []LinkFaultSpec{{Schedule: faults.Schedule{
			Outages: []faults.Outage{{StartS: 1, DurationS: 0.5}},
			Loss:    &faults.GilbertElliott{PGoodBad: 0.02, PBadGood: 0.2, LossBad: 0.5},
		}}}}))},
		{"churn", base("newreno", WithChurn(ChurnSpec{Classes: []ChurnClassSpec{{
			Scheme:       "newreno",
			RTTMs:        60,
			Interarrival: ExponentialDist(0.1),
			Size:         ExponentialDist(30e3),
		}}}))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo := asOneLinkTopology(tc.spec)
			for rep := 0; rep < tc.spec.Reps(); rep++ {
				a, seedA, err := tc.spec.Compile(nil, rep)
				if err != nil {
					t.Fatalf("compile dumbbell: %v", err)
				}
				b, seedB, err := topo.Compile(nil, rep)
				if err != nil {
					t.Fatalf("compile one-link topology: %v", err)
				}
				if seedA != seedB {
					t.Fatalf("rep %d: seeds %d vs %d", rep, seedA, seedB)
				}
				ra, err := harness.Run(a, seedA)
				if err != nil {
					t.Fatal(err)
				}
				rb, err := harness.Run(b, seedB)
				if err != nil {
					t.Fatal(err)
				}
				if ra.Offered == 0 {
					t.Fatalf("rep %d: no traffic offered", rep)
				}
				if !reflect.DeepEqual(ra, rb) {
					t.Errorf("rep %d: dumbbell and one-link topology diverge\n dumbbell: %+v\ntopology: %+v", rep, ra, rb)
				}
			}
		})
	}
}
