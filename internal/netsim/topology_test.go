package netsim_test

import (
	"testing"

	"repro/internal/aqm"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// ackSink collects acknowledgments with their arrival times.
type ackSink struct {
	acks []netsim.Ack
	at   []sim.Time
}

func (s *ackSink) OnAck(a netsim.Ack, now sim.Time) {
	s.acks = append(s.acks, a)
	s.at = append(s.at, now)
}

func TestGraphValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := netsim.NewGraph(nil, netsim.GraphConfig{}); err == nil {
		t.Error("nil engine accepted")
	}
	n, err := netsim.NewGraph(eng, netsim.GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddLink(netsim.LinkConfig{Name: "a", Queue: nil, RateBps: 1e6}); err == nil {
		t.Error("nil queue accepted")
	}
	if _, err := n.AddLink(netsim.LinkConfig{Name: "a", Queue: aqm.MustDropTail(1), RateBps: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := n.AddLink(netsim.LinkConfig{Name: "a", Queue: aqm.MustDropTail(1), RateBps: 1e6, Delay: -1}); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := n.AddLink(netsim.LinkConfig{Name: "a", Queue: aqm.MustDropTail(1), RateBps: 1e6}); err != nil {
		t.Fatalf("AddLink: %v", err)
	}
	if _, err := n.AddLink(netsim.LinkConfig{Name: "a", Queue: aqm.MustDropTail(1), RateBps: 1e6}); err == nil {
		t.Error("duplicate link name accepted")
	}
	if _, err := n.AttachFlowRoute(&ackSink{}, nil, nil, 0); err == nil {
		t.Error("empty forward route accepted")
	}
	// A link from a different network must be rejected.
	other, _ := netsim.NewGraph(sim.NewEngine(), netsim.GraphConfig{})
	foreign, _ := other.AddLink(netsim.LinkConfig{Name: "x", Queue: aqm.MustDropTail(1), RateBps: 1e6})
	if _, err := n.AttachFlowRoute(&ackSink{}, []*netsim.Link{foreign}, nil, 0); err == nil {
		t.Error("foreign link accepted in route")
	}
	if _, err := n.AttachFlowRoute(&ackSink{}, []*netsim.Link{n.LinkByName("a")}, nil, 0); err != nil || n.Flows() != 1 {
		t.Errorf("AttachFlowRoute over a valid route: %v", err)
	}
}

// TestTwoHopForwardRoute checks that a packet crossing two fixed-rate links
// arrives after both service times and both propagation delays, and that the
// acknowledgment returns over the pure-delay reverse path.
func TestTwoHopForwardRoute(t *testing.T) {
	eng := sim.NewEngine()
	n, err := netsim.NewGraph(eng, netsim.GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// 1 Mbps links: one 1500-byte packet takes 12 ms of service each.
	l1, err := n.AddLink(netsim.LinkConfig{Name: "l1", RateBps: 1e6, Delay: 10 * sim.Millisecond, Queue: aqm.MustDropTail(10)})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := n.AddLink(netsim.LinkConfig{Name: "l2", RateBps: 1e6, Delay: 20 * sim.Millisecond, Queue: aqm.MustDropTail(10)})
	if err != nil {
		t.Fatal(err)
	}
	sink := &ackSink{}
	port, err := n.AttachFlowRoute(sink, []*netsim.Link{l1, l2}, nil, 5*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	xmit := sim.FromSeconds(1500 * 8 / 1e6)
	wantRTT := 2*5*sim.Millisecond + 10*sim.Millisecond + 20*sim.Millisecond + 2*xmit
	if got := n.MinRTT(0); got != wantRTT {
		t.Errorf("MinRTT = %v, want %v", got, wantRTT)
	}

	eng.Schedule(0, func(now sim.Time) {
		p := port.NewPacket()
		p.Seq = 0
		p.SentAt = now
		port.Send(p, now)
	})
	eng.Run(sim.Second)

	if len(sink.acks) != 1 {
		t.Fatalf("got %d acks, want 1", len(sink.acks))
	}
	// Send at 0: service on l1 until xmit, +10ms propagation, service on l2
	// until +xmit, +20ms propagation, +5ms access delay to the receiver, then
	// +5ms access delay back (no reverse links).
	want := xmit + 10*sim.Millisecond + xmit + 20*sim.Millisecond + 5*sim.Millisecond + 5*sim.Millisecond
	if sink.at[0] != want {
		t.Errorf("ack arrived at %v, want %v", sink.at[0], want)
	}
	if l1.Delivered() != 1 || l2.Delivered() != 1 {
		t.Errorf("per-link delivered: l1=%d l2=%d, want 1/1", l1.Delivered(), l2.Delivered())
	}
	if n.LinkByName("l2") != l2 || n.LinkByName("nope") != nil {
		t.Error("LinkByName")
	}
}

// TestIntermediateHopDrop checks that a packet dropped at its second hop is
// counted and never delivered.
func TestIntermediateHopDrop(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := netsim.NewGraph(eng, netsim.GraphConfig{})
	// Fast first link feeding a capacity-1 queue on a slow second link: the
	// burst's later packets get tail-dropped at the second hop.
	l1, _ := n.AddLink(netsim.LinkConfig{Name: "fast", RateBps: 100e6, Queue: aqm.MustDropTail(100)})
	l2, _ := n.AddLink(netsim.LinkConfig{Name: "slow", RateBps: 1e5, Queue: aqm.MustDropTail(1)})
	sink := &ackSink{}
	port, _ := n.AttachFlowRoute(sink, []*netsim.Link{l1, l2}, nil, 0)

	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 5; i++ {
			p := port.NewPacket()
			p.Seq = i
			p.SentAt = now
			port.Send(p, now)
		}
	})
	eng.Run(10 * sim.Second)

	if n.PacketsDropped() == 0 {
		t.Error("expected drops at the second hop")
	}
	delivered := int64(len(sink.acks))
	if delivered+n.PacketsDropped() != 5 {
		t.Errorf("delivered %d + dropped %d != offered 5", delivered, n.PacketsDropped())
	}
}

// TestReverseLinkThrottlesAcks checks that a flow with a reverse route sends
// its acknowledgments through the reverse link's queue: the ACK stream is
// spaced by the reverse link's service time, and its transmission time is
// part of the flow's minimum RTT.
func TestReverseLinkThrottlesAcks(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := netsim.NewGraph(eng, netsim.GraphConfig{AckBytes: 1000})
	fwd, _ := n.AddLink(netsim.LinkConfig{Name: "fwd", RateBps: 100e6, Queue: aqm.MustDropTail(100)})
	// 1000-byte acks over 1 Mbps: 8 ms service per ack.
	rev, _ := n.AddLink(netsim.LinkConfig{Name: "rev", RateBps: 1e6, Queue: aqm.MustDropTail(100)})
	sink := &ackSink{}
	port, _ := n.AttachFlowRoute(sink, []*netsim.Link{fwd}, []*netsim.Link{rev}, 0)

	ackXmit := sim.FromSeconds(1000 * 8 / 1e6)
	fwdXmit := sim.FromSeconds(1500 * 8 / 100e6)
	if want := fwdXmit + ackXmit; n.MinRTT(0) != want {
		t.Errorf("MinRTT = %v, want %v", n.MinRTT(0), want)
	}

	// A burst of 4 packets crosses the fast forward link almost instantly;
	// the acks then serialize on the slow reverse link.
	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 4; i++ {
			p := port.NewPacket()
			p.Seq = i
			p.SentAt = now
			port.Send(p, now)
		}
	})
	eng.Run(sim.Second)

	if len(sink.acks) != 4 {
		t.Fatalf("got %d acks, want 4", len(sink.acks))
	}
	for i := 1; i < len(sink.at); i++ {
		gap := sink.at[i] - sink.at[i-1]
		if gap < ackXmit {
			t.Errorf("ack gap %d = %v, want >= %v (reverse service time)", i, gap, ackXmit)
		}
	}
	if rev.Delivered() != 4 {
		t.Errorf("reverse link delivered %d, want 4", rev.Delivered())
	}
	if rev.DeliveredBytes() != 4000 {
		t.Errorf("reverse link delivered %d bytes, want 4000", rev.DeliveredBytes())
	}
}

// TestReverseLinkAckDrop checks that acks over capacity on the reverse queue
// are counted as dropped and not delivered.
func TestReverseLinkAckDrop(t *testing.T) {
	eng := sim.NewEngine()
	n, _ := netsim.NewGraph(eng, netsim.GraphConfig{})
	fwd, _ := n.AddLink(netsim.LinkConfig{Name: "fwd", RateBps: 100e6, Queue: aqm.MustDropTail(100)})
	// Tiny reverse queue and very slow reverse link: most acks are dropped.
	rev, _ := n.AddLink(netsim.LinkConfig{Name: "rev", RateBps: 1e4, Queue: aqm.MustDropTail(1)})
	sink := &ackSink{}
	port, _ := n.AttachFlowRoute(sink, []*netsim.Link{fwd}, []*netsim.Link{rev}, 0)

	eng.Schedule(0, func(now sim.Time) {
		for i := int64(0); i < 10; i++ {
			p := port.NewPacket()
			p.Seq = i
			p.SentAt = now
			port.Send(p, now)
		}
	})
	eng.Run(100 * sim.Second)

	if n.AcksDropped() == 0 {
		t.Error("expected ack drops on the reverse path")
	}
	if int64(len(sink.acks))+n.AcksDropped() != 10 {
		t.Errorf("acks %d + dropped %d != 10", len(sink.acks), n.AcksDropped())
	}
	// Data packets themselves were never dropped.
	if n.PacketsDropped() != 0 {
		t.Errorf("data drops = %d, want 0", n.PacketsDropped())
	}
}
