package netsim_test

import (
	"testing"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// collector is a minimal Sender that records the acks it receives.
type collector struct {
	acks []netsim.Ack
	at   []sim.Time
}

func (c *collector) OnAck(a netsim.Ack, now sim.Time) {
	c.acks = append(c.acks, a)
	c.at = append(c.at, now)
}

// dumbbell builds the single-bottleneck network of Figure 2 the way every
// network is built: a graph with one link, named "bottleneck", serving link.
func dumbbell(t testing.TB, eng *sim.Engine, mtu int, link netsim.LinkConfig) *netsim.Network {
	t.Helper()
	n, err := netsim.NewGraph(eng, netsim.GraphConfig{MTU: mtu})
	if err != nil {
		t.Fatal(err)
	}
	link.Name = "bottleneck"
	if _, err := n.AddLink(link); err != nil {
		t.Fatal(err)
	}
	return n
}

// attach routes a flow over the dumbbell's link with the pure-delay return
// path of Figure 2.
func attach(t testing.TB, n *netsim.Network, s netsim.Sender, oneWay sim.Time) *netsim.Port {
	t.Helper()
	p, err := n.AttachFlowRoute(s, []*netsim.Link{n.Link()}, nil, oneWay)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConfigValidate checks which link configurations AddLink accepts: a link
// needs a queue and either a fixed rate or a delivery trace.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  netsim.LinkConfig
		ok   bool
	}{
		{"empty", netsim.LinkConfig{}, false},
		{"no rate or trace", netsim.LinkConfig{Queue: aqm.MustDropTail(10)}, false},
		{"fixed rate", netsim.LinkConfig{Queue: aqm.MustDropTail(10), RateBps: 1e6}, true},
		{"trace", netsim.LinkConfig{Queue: aqm.MustDropTail(10), Trace: []sim.Time{sim.Millisecond}}, true},
	}
	for _, tc := range cases {
		n, err := netsim.NewGraph(sim.NewEngine(), netsim.GraphConfig{})
		if err != nil {
			t.Fatal(err)
		}
		tc.cfg.Name = "bottleneck"
		if _, err := n.AddLink(tc.cfg); (err == nil) != tc.ok {
			t.Errorf("%s: AddLink error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestNewNetworkErrors checks that attaching a flow to a one-link network
// rejects a nil sender and a negative access delay.
func TestNewNetworkErrors(t *testing.T) {
	n := dumbbell(t, sim.NewEngine(), 0, netsim.LinkConfig{Queue: aqm.MustDropTail(1), RateBps: 1e6})
	route := []*netsim.Link{n.Link()}
	if _, err := n.AttachFlowRoute(nil, route, nil, 0); err == nil {
		t.Error("nil sender accepted")
	}
	if _, err := n.AttachFlowRoute(&collector{}, route, nil, -1); err == nil {
		t.Error("negative delay accepted")
	}
	if n.Flows() != 0 {
		t.Errorf("rejected attachments left %d flows", n.Flows())
	}
}

func TestSinglePacketRTT(t *testing.T) {
	eng := sim.NewEngine()
	// 15 Mbps link, 75 ms one-way delay: minRTT = 150 ms + 1500*8/15e6 = 150.8 ms.
	net := dumbbell(t, eng, 0, netsim.LinkConfig{Queue: aqm.MustDropTail(1000), RateBps: 15e6})
	c := &collector{}
	port := attach(t, net, c, 75*sim.Millisecond)
	net.Start(0)

	sendAt := 10 * sim.Millisecond
	eng.Schedule(sendAt, func(now sim.Time) {
		ok := port.Send(&netsim.Packet{Seq: 0, Size: 1500, SentAt: now}, now)
		if !ok {
			t.Error("send failed")
		}
	})
	eng.Run(sim.Second)

	if len(c.acks) != 1 {
		t.Fatalf("got %d acks, want 1", len(c.acks))
	}
	wantRTT := net.MinRTT(0)
	gotRTT := c.at[0] - sendAt
	if gotRTT != wantRTT {
		t.Errorf("RTT = %v, want %v", gotRTT, wantRTT)
	}
	a := c.acks[0]
	if a.Seq != 0 || a.CumAck != 1 || a.SentAt != sendAt || a.Flow != 0 {
		t.Errorf("ack = %+v", a)
	}
	if port.PacketsSent() != 1 || port.BytesSent() != 1500 {
		t.Error("port counters")
	}
	if net.Link().Delivered() != 1 || net.Link().DeliveredBytes() != 1500 {
		t.Error("link counters")
	}
	if net.PacketsOffered() != 1 || net.PacketsDropped() != 0 {
		t.Error("network counters")
	}
}

func TestMinRTTAndAccessors(t *testing.T) {
	eng := sim.NewEngine()
	net := dumbbell(t, eng, 1000, netsim.LinkConfig{Queue: aqm.MustDropTail(10), RateBps: 10e6})
	if net.MTU() != 1000 {
		t.Error("MTU override")
	}
	if net.MinRTT(0) != 0 {
		t.Error("MinRTT of missing flow should be 0")
	}
	c := &collector{}
	p := attach(t, net, c, 50*sim.Millisecond)
	want := 100*sim.Millisecond + sim.FromSeconds(1000*8/10e6)
	if net.MinRTT(0) != want {
		t.Errorf("MinRTT = %v, want %v", net.MinRTT(0), want)
	}
	if net.Flows() != 1 || net.PortFor(0) != p || net.PortFor(5) != nil || net.PortFor(-1) != nil {
		t.Error("flow accessors")
	}
	if p.Flow() != 0 || p.OneWayDelay() != 50*sim.Millisecond || p.Receiver() == nil {
		t.Error("port accessors")
	}
	if net.Engine() != eng || net.Link().Queue() == nil {
		t.Error("network accessors")
	}
}

func TestLinkSerializesPackets(t *testing.T) {
	// Two packets sent back to back: the second is delivered one
	// transmission time after the first.
	eng := sim.NewEngine()
	net := dumbbell(t, eng, 0, netsim.LinkConfig{Queue: aqm.MustDropTail(10), RateBps: 1e6})
	c := &collector{}
	port := attach(t, net, c, 0)
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		port.Send(&netsim.Packet{Seq: 0, Size: 1500, SentAt: now}, now)
		port.Send(&netsim.Packet{Seq: 1, Size: 1500, SentAt: now}, now)
	})
	eng.Run(sim.Second)
	if len(c.acks) != 2 {
		t.Fatalf("got %d acks", len(c.acks))
	}
	xmit := sim.FromSeconds(1500 * 8 / 1e6)
	if gap := c.at[1] - c.at[0]; gap != xmit {
		t.Errorf("delivery gap = %v, want one transmission time %v", gap, xmit)
	}
	if util := net.Link().Utilization(c.at[1]); util < 0.9 || util > 1.01 {
		t.Errorf("utilization = %v, want ~1 while busy", util)
	}
	if net.Link().Utilization(0) != 0 {
		t.Error("utilization with zero horizon")
	}
	if net.Link().RateBps() != 1e6 {
		t.Error("RateBps")
	}
}

func TestQueueOverflowDropsArePropagated(t *testing.T) {
	eng := sim.NewEngine()
	net := dumbbell(t, eng, 0, netsim.LinkConfig{Queue: aqm.MustDropTail(2), RateBps: 1e6})
	c := &collector{}
	port := attach(t, net, c, 0)
	net.Start(0)
	dropped := 0
	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 10; i++ {
			if !port.Send(&netsim.Packet{Seq: i, Size: 1500, SentAt: now}, now) {
				dropped++
			}
		}
	})
	eng.Run(sim.Second)
	if dropped == 0 {
		t.Error("no sends reported dropped despite a 2-packet buffer")
	}
	if net.PacketsDropped() != int64(dropped) {
		t.Errorf("network drop counter %d, sender saw %d", net.PacketsDropped(), dropped)
	}
	// Delivered + dropped = offered.
	if net.Link().Delivered()+net.PacketsDropped() != net.PacketsOffered() {
		t.Error("conservation violated")
	}
}

func TestReceiverCumAckAndReordering(t *testing.T) {
	r := netsim.NewReceiver(3)
	if r.Flow() != 3 {
		t.Error("Flow")
	}
	a0 := r.Receive(&netsim.Packet{Flow: 3, Seq: 0, Size: 100}, 10)
	if a0.CumAck != 1 || a0.Seq != 0 {
		t.Errorf("a0 = %+v", a0)
	}
	// Out of order: seq 2 before seq 1.
	a2 := r.Receive(&netsim.Packet{Flow: 3, Seq: 2, Size: 100}, 20)
	if a2.CumAck != 1 {
		t.Errorf("cumack after gap = %d, want 1", a2.CumAck)
	}
	a1 := r.Receive(&netsim.Packet{Flow: 3, Seq: 1, Size: 100}, 30)
	if a1.CumAck != 3 {
		t.Errorf("cumack after filling gap = %d, want 3", a1.CumAck)
	}
	// Duplicate delivery does not regress state.
	dup := r.Receive(&netsim.Packet{Flow: 3, Seq: 1, Size: 100}, 40)
	if dup.CumAck != 3 {
		t.Error("duplicate changed cumack")
	}
	if r.PacketsReceived() != 4 || r.BytesReceived() != 400 {
		t.Error("receiver counters")
	}
	r.Reset()
	if r.CumAck() != 0 {
		t.Error("Reset")
	}
}

func TestReceiverEchoesECNAndXCP(t *testing.T) {
	r := netsim.NewReceiver(0)
	p := &netsim.Packet{Seq: 0, Size: 100, ECNMarked: true, XCP: &netsim.XCPHeader{Feedback: 123}}
	a := r.Receive(p, 5)
	if !a.ECNEcho || !a.HasXCP || a.XCPFeedback != 123 {
		t.Errorf("ack did not echo ECN/XCP: %+v", a)
	}
	plain := r.Receive(&netsim.Packet{Seq: 1, Size: 100}, 6)
	if plain.ECNEcho || plain.HasXCP {
		t.Error("plain packet should not echo ECN/XCP")
	}
}

func TestTraceLinkDeliversAtOpportunities(t *testing.T) {
	eng := sim.NewEngine()
	trace := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 40 * sim.Millisecond}
	net := dumbbell(t, eng, 0, netsim.LinkConfig{Queue: aqm.MustDropTail(100), Trace: trace})
	c := &collector{}
	port := attach(t, net, c, 0)
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 2; i++ {
			port.Send(&netsim.Packet{Seq: i, Size: 1500, SentAt: now}, now)
		}
	})
	eng.Run(sim.Second)
	// Two packets, three opportunities: deliveries at exactly 10 ms and 20 ms.
	if len(c.at) != 2 {
		t.Fatalf("got %d acks", len(c.at))
	}
	if c.at[0] != 10*sim.Millisecond || c.at[1] != 20*sim.Millisecond {
		t.Errorf("deliveries at %v", c.at)
	}
}

func TestTraceLinkLoops(t *testing.T) {
	eng := sim.NewEngine()
	trace := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond}
	net := dumbbell(t, eng, 0, netsim.LinkConfig{Queue: aqm.MustDropTail(100), Trace: trace, TraceLoop: true})
	c := &collector{}
	port := attach(t, net, c, 0)
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 4; i++ {
			port.Send(&netsim.Packet{Seq: i, Size: 1500, SentAt: now}, now)
		}
	})
	eng.Run(sim.Second)
	if len(c.at) != 4 {
		t.Fatalf("got %d acks, want 4 (trace should loop)", len(c.at))
	}
	// Second lap is shifted by the trace's final timestamp (20 ms).
	want := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond, 40 * sim.Millisecond}
	for i := range want {
		if c.at[i] != want[i] {
			t.Errorf("delivery %d at %v, want %v", i, c.at[i], want[i])
		}
	}
}

func TestTraceLinkValidation(t *testing.T) {
	eng := sim.NewEngine()
	q := aqm.MustDropTail(10)
	if _, err := netsim.NewTraceLink(eng, q, nil, false, func(*netsim.Packet, sim.Time) {}); err == nil {
		t.Error("empty trace accepted")
	}
	bad := []sim.Time{20, 10}
	if _, err := netsim.NewTraceLink(eng, q, bad, false, func(*netsim.Packet, sim.Time) {}); err == nil {
		t.Error("unsorted trace accepted")
	}
	if _, err := netsim.NewFixedRateLink(eng, q, 0, func(*netsim.Packet, sim.Time) {}); err == nil {
		t.Error("zero-rate link accepted")
	}
	if _, err := netsim.NewFixedRateLink(nil, q, 1e6, func(*netsim.Packet, sim.Time) {}); err == nil {
		t.Error("nil engine accepted")
	}
}

func TestOnDeliverCallback(t *testing.T) {
	eng := sim.NewEngine()
	net := dumbbell(t, eng, 0, netsim.LinkConfig{Queue: aqm.MustDropTail(10), RateBps: 1e6})
	c := &collector{}
	port := attach(t, net, c, 10*sim.Millisecond)
	var delivered []int64
	net.OnDeliver = func(p *netsim.Packet, now sim.Time) { delivered = append(delivered, p.Seq) }
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		port.Send(&netsim.Packet{Seq: 7, Size: 1500, SentAt: now}, now)
	})
	eng.Run(sim.Second)
	if len(delivered) != 1 || delivered[0] != 7 {
		t.Errorf("OnDeliver saw %v", delivered)
	}
}

func TestMultipleFlowsShareBottleneck(t *testing.T) {
	eng := sim.NewEngine()
	net := dumbbell(t, eng, 0, netsim.LinkConfig{Queue: aqm.MustDropTail(1000), RateBps: 10e6})
	const flows = 4
	cs := make([]*collector, flows)
	ports := make([]*netsim.Port, flows)
	for i := 0; i < flows; i++ {
		cs[i] = &collector{}
		ports[i] = attach(t, net, cs[i], 20*sim.Millisecond)
	}
	net.Start(0)
	eng.Schedule(0, func(now sim.Time) {
		for i := 0; i < flows; i++ {
			for s := int64(0); s < 25; s++ {
				ports[i].Send(&netsim.Packet{Seq: s, Size: 1500, SentAt: now}, now)
			}
		}
	})
	eng.Run(2 * sim.Second)
	for i := 0; i < flows; i++ {
		if len(cs[i].acks) != 25 {
			t.Errorf("flow %d received %d acks, want 25", i, len(cs[i].acks))
		}
	}
	if net.Link().Delivered() != 100 {
		t.Errorf("link delivered %d packets", net.Link().Delivered())
	}
}
