package cc_test

import (
	"testing"

	"repro/internal/aqm"
	"repro/internal/cc"
	"repro/internal/cc/newreno"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// fixedWindow is a trivial algorithm with a constant window and optional
// pacing, used to exercise the Transport in isolation.
type fixedWindow struct {
	window       float64
	gap          sim.Time
	losses       int
	timeouts     int
	acks         int
	timeoutTimes []sim.Time
}

func (f *fixedWindow) Name() string         { return "fixed" }
func (f *fixedWindow) Reset(sim.Time)       {}
func (f *fixedWindow) OnAck(ev cc.AckEvent) { f.acks++ }
func (f *fixedWindow) OnLoss(sim.Time)      { f.losses++ }
func (f *fixedWindow) OnTimeout(now sim.Time) {
	f.timeouts++
	f.timeoutTimes = append(f.timeoutTimes, now)
}
func (f *fixedWindow) Window() float64     { return f.window }
func (f *fixedWindow) PacingGap() sim.Time { return f.gap }

// outageInjector is a minimal netsim.FaultInjector: one full blackout of the
// link in [start, end), nothing else.
type outageInjector struct{ start, end sim.Time }

func (o outageInjector) Outage(now sim.Time) (bool, sim.Time) {
	if now >= o.start && now < o.end {
		return true, o.end
	}
	return false, 0
}
func (o outageInjector) RateScale(sim.Time) float64   { return 1 }
func (o outageInjector) ExtraDelay(sim.Time) sim.Time { return 0 }
func (o outageInjector) DropDelivered(sim.Time) bool  { return false }

// dumbbellPort builds a one-link network (the Figure 2 dumbbell) serving
// link and attaches one flow to it with a pure-delay return path.
func dumbbellPort(t *testing.T, eng *sim.Engine, link netsim.LinkConfig, sender netsim.Sender, owd sim.Time) (*netsim.Port, *netsim.Network) {
	t.Helper()
	net, err := netsim.NewGraph(eng, netsim.GraphConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.AddLink(link)
	if err != nil {
		t.Fatal(err)
	}
	port, err := net.AttachFlowRoute(sender, []*netsim.Link{l}, nil, owd)
	if err != nil {
		t.Fatal(err)
	}
	return port, net
}

// buildFlow wires one transport onto a fresh dumbbell network.
func buildFlow(t *testing.T, eng *sim.Engine, queue netsim.Queue, rateBps float64, owd sim.Time, algo cc.Algorithm) (*cc.Transport, *netsim.Network) {
	t.Helper()
	// Attach a placeholder first; transport needs the port, port needs the sender.
	var tr *cc.Transport
	port, net := dumbbellPort(t, eng, netsim.LinkConfig{Queue: queue, RateBps: rateBps},
		netsim.SenderFunc(func(a netsim.Ack, now sim.Time) { tr.OnAck(a, now) }), owd)
	tr, err := cc.NewTransport(eng, port, algo, netsim.MTU)
	if err != nil {
		t.Fatal(err)
	}
	net.Start(0)
	return tr, net
}

func TestNewTransportValidation(t *testing.T) {
	eng := sim.NewEngine()
	port, _ := dumbbellPort(t, eng, netsim.LinkConfig{Queue: aqm.MustDropTail(10), RateBps: 1e6},
		netsim.SenderFunc(func(netsim.Ack, sim.Time) {}), 0)
	if _, err := cc.NewTransport(nil, port, &fixedWindow{window: 1}, 0); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := cc.NewTransport(eng, nil, &fixedWindow{window: 1}, 0); err == nil {
		t.Error("nil port accepted")
	}
	if _, err := cc.NewTransport(eng, port, nil, 0); err == nil {
		t.Error("nil algorithm accepted")
	}
	tr, err := cc.NewTransport(eng, port, &fixedWindow{window: 1}, -5)
	if err != nil || tr == nil {
		t.Fatal("valid construction failed")
	}
	if tr.Algorithm().Name() != "fixed" {
		t.Error("Algorithm accessor")
	}
}

func TestTransportWindowLimitedThroughput(t *testing.T) {
	// Window of 4 packets on a 150 ms RTT path: throughput must be about
	// 4 packets per RTT, far below the 10 Mbps link rate.
	eng := sim.NewEngine()
	algo := &fixedWindow{window: 4}
	tr, _ := buildFlow(t, eng, aqm.MustDropTail(1000), 10e6, 75*sim.Millisecond, algo)
	tr.StartFlow(0)
	eng.Run(10 * sim.Second)
	st := tr.Stats()

	rtt := 150*sim.Millisecond + sim.FromSeconds(1500*8/10e6)
	wantPackets := int64(10 * sim.Second / rtt * 4)
	if st.BytesAcked < int64(float64(wantPackets)*1500*0.8) || st.BytesAcked > int64(float64(wantPackets)*1500*1.2) {
		t.Errorf("bytes acked = %d, want about %d", st.BytesAcked, wantPackets*1500)
	}
	if st.LossEvents != 0 || st.Retransmissions != 0 {
		t.Errorf("unexpected losses on an uncongested path: %+v", st)
	}
	if tr.InFlight() > 4 {
		t.Errorf("in-flight %d exceeds window", tr.InFlight())
	}
	if st.MeanRTT() < rtt || st.MeanRTT() > rtt+5*sim.Millisecond {
		t.Errorf("mean RTT = %v, want about %v", st.MeanRTT(), rtt)
	}
	if tr.MinRTT() != rtt {
		t.Errorf("min RTT = %v, want %v", tr.MinRTT(), rtt)
	}
	if !tr.Active() {
		t.Error("flow should still be active")
	}
}

func TestTransportPacingLimitsRate(t *testing.T) {
	// Huge window but a 10 ms pacing gap: at most ~100 packets per second.
	eng := sim.NewEngine()
	algo := &fixedWindow{window: 1000, gap: 10 * sim.Millisecond}
	tr, _ := buildFlow(t, eng, aqm.MustDropTail(2000), 100e6, 5*sim.Millisecond, algo)
	tr.StartFlow(0)
	eng.Run(5 * sim.Second)
	st := tr.Stats()
	if st.PacketsSent > 520 {
		t.Errorf("pacing failed: %d packets in 5 s with a 10 ms gap", st.PacketsSent)
	}
	if st.PacketsSent < 400 {
		t.Errorf("pacing too strict: only %d packets sent", st.PacketsSent)
	}
}

func TestTransportRecoversFromLossViaDupAcks(t *testing.T) {
	// A tiny 5-packet buffer with a large fixed window forces drops; the
	// transport must detect them via duplicate ACKs, retransmit, and keep
	// the connection making forward progress.
	eng := sim.NewEngine()
	algo := &fixedWindow{window: 40}
	tr, net := buildFlow(t, eng, aqm.MustDropTail(5), 5e6, 20*sim.Millisecond, algo)
	tr.StartFlow(0)
	eng.Run(20 * sim.Second)
	st := tr.Stats()
	if net.PacketsDropped() == 0 {
		t.Fatal("test expected drops at the bottleneck")
	}
	if st.LossEvents == 0 {
		t.Error("no loss events detected despite drops")
	}
	if algo.losses == 0 {
		t.Error("algorithm was not notified of losses")
	}
	if st.Retransmissions == 0 {
		t.Error("no retransmissions")
	}
	// Forward progress: a 40-packet window over ~41ms RTT should still
	// deliver a significant fraction of the 5 Mbps link over 20 s.
	if st.BytesAcked < 2_000_000 {
		t.Errorf("connection stalled: only %d bytes acked", st.BytesAcked)
	}
}

func TestTransportTimeoutRecovery(t *testing.T) {
	// A trace-driven link with only three delivery opportunities: after they
	// are used up the ACK clock dies, so recovery must come from the
	// retransmission timer.
	eng := sim.NewEngine()
	trace := []sim.Time{10 * sim.Millisecond, 20 * sim.Millisecond, 30 * sim.Millisecond}
	var tr *cc.Transport
	port, net := dumbbellPort(t, eng, netsim.LinkConfig{Queue: aqm.MustDropTail(1000), Trace: trace},
		netsim.SenderFunc(func(a netsim.Ack, now sim.Time) { tr.OnAck(a, now) }), 5*sim.Millisecond)
	algo := &fixedWindow{window: 10}
	tr, err := cc.NewTransport(eng, port, algo, netsim.MTU)
	if err != nil {
		t.Fatal(err)
	}
	net.Start(0)
	tr.StartFlow(0)
	eng.Run(10 * sim.Second)
	st := tr.Stats()
	if st.Timeouts == 0 {
		t.Error("expected at least one retransmission timeout")
	}
	if algo.timeouts == 0 {
		t.Error("algorithm was not notified of timeouts")
	}
	if st.BytesAcked != 3*netsim.MTU {
		t.Errorf("bytes acked = %d, want exactly the three delivered packets", st.BytesAcked)
	}
	if tr.RTO() <= 200*sim.Millisecond {
		t.Error("RTO should have backed off after repeated timeouts")
	}
}

func TestTransportStartStopFlow(t *testing.T) {
	eng := sim.NewEngine()
	algo := &fixedWindow{window: 8}
	tr, _ := buildFlow(t, eng, aqm.MustDropTail(100), 10e6, 10*sim.Millisecond, algo)

	var ackedBytes int64
	tr.OnBytesAcked = func(now sim.Time, b int64) { ackedBytes += b }

	tr.StartFlow(0)
	eng.Run(500 * sim.Millisecond)
	if ackedBytes == 0 {
		t.Fatal("no bytes acked during the on period")
	}
	eng.Schedule(500*sim.Millisecond, func(now sim.Time) { tr.StopFlow(now) })
	eng.Run(600 * sim.Millisecond)
	after := ackedBytes
	if tr.Active() {
		t.Error("flow should be inactive after StopFlow")
	}
	if tr.InFlight() != 0 {
		t.Error("outstanding packets should be cleared on StopFlow")
	}
	// No further progress while off.
	eng.Run(2 * sim.Second)
	if ackedBytes != after {
		t.Error("bytes acked advanced while the flow was off")
	}
	// A new on period starts from a fresh sequence space and makes progress.
	eng.Schedule(2*sim.Second, func(now sim.Time) { tr.StartFlow(now) })
	eng.Run(3 * sim.Second)
	if ackedBytes <= after {
		t.Error("no progress after restarting the flow")
	}
	sent := tr.Stats().PacketsSent
	if sent == 0 {
		t.Error("stats should accumulate across on periods")
	}
}

func TestTransportOnSendObserver(t *testing.T) {
	eng := sim.NewEngine()
	algo := &fixedWindow{window: 2}
	tr, _ := buildFlow(t, eng, aqm.MustDropTail(100), 10e6, 10*sim.Millisecond, algo)
	var seen []int64
	tr.OnSend = func(p *netsim.Packet, now sim.Time) { seen = append(seen, p.Seq) }
	tr.StartFlow(0)
	eng.Run(200 * sim.Millisecond)
	if len(seen) == 0 {
		t.Fatal("OnSend never called")
	}
	if seen[0] != 0 || seen[1] != 1 {
		t.Errorf("first sends = %v", seen[:2])
	}
}

func TestTransportSRTTAndRTO(t *testing.T) {
	eng := sim.NewEngine()
	algo := &fixedWindow{window: 2}
	tr, _ := buildFlow(t, eng, aqm.MustDropTail(100), 10e6, 50*sim.Millisecond, algo)
	tr.StartFlow(0)
	eng.Run(2 * sim.Second)
	rtt := 100*sim.Millisecond + sim.FromSeconds(1500*8/10e6)
	if srtt := tr.SRTT(); srtt < rtt-sim.Millisecond || srtt > rtt+5*sim.Millisecond {
		t.Errorf("SRTT = %v, want about %v", srtt, rtt)
	}
	if tr.RTO() < 200*sim.Millisecond {
		t.Errorf("RTO = %v below the 200 ms floor", tr.RTO())
	}
}

func TestTransportWithNewRenoFillsLink(t *testing.T) {
	// End-to-end sanity: NewReno over a 10 Mbps, 40 ms RTT path with an
	// adequate buffer should achieve high utilization.
	eng := sim.NewEngine()
	tr, net := buildFlow(t, eng, aqm.MustDropTail(1000), 10e6, 20*sim.Millisecond, newreno.New())
	tr.StartFlow(0)
	dur := 20 * sim.Second
	eng.Run(dur)
	st := tr.Stats()
	gotBps := float64(st.BytesAcked) * 8 / dur.Seconds()
	if gotBps < 0.7*10e6 {
		t.Errorf("NewReno achieved only %.2f Mbps of a 10 Mbps link", gotBps/1e6)
	}
	if gotBps > 10.5e6 {
		t.Errorf("throughput %.2f Mbps exceeds link rate", gotBps/1e6)
	}
	if util := net.Link().Utilization(dur); util > 1.001 {
		t.Errorf("link utilization %v exceeds 1", util)
	}
}

func TestStatsMeanRTTNoSamples(t *testing.T) {
	var s cc.Stats
	if s.MeanRTT() != 0 {
		t.Error("MeanRTT with no samples should be 0")
	}
}

// TestRTOBackoffClampsDuringOutage pins the retransmission timer's behavior
// when the link goes fully dark: consecutive timeouts must double the RTO
// (starting from the estimator's pre-outage value) and clamp at 60 s, never
// fire faster, and never stop firing while data is outstanding.
func TestRTOBackoffClampsDuringOutage(t *testing.T) {
	eng := sim.NewEngine()
	algo := &fixedWindow{window: 8}
	tr, net := buildFlow(t, eng, aqm.MustDropTail(5000), 10e6, 25*sim.Millisecond, algo)
	// One second of healthy traffic to settle the RTT estimator, then the
	// link blacks out for the rest of the run.
	net.Links()[0].SetFaults(outageInjector{start: 1 * sim.Second, end: 500 * sim.Second})
	tr.StartFlow(0)
	eng.Run(400 * sim.Second)

	times := algo.timeoutTimes
	if len(times) < 8 {
		t.Fatalf("only %d timeouts in a 399 s outage; the timer stopped firing", len(times))
	}
	var prev sim.Time
	var clamped int
	for i := 1; i < len(times); i++ {
		gap := times[i] - times[i-1]
		if gap > 60*sim.Second {
			t.Errorf("timeout %d fired %v after the previous one; RTO must clamp at 60 s", i, gap)
		}
		if prev > 0 && gap < prev {
			t.Errorf("timeout gap shrank from %v to %v; backoff must be monotone during an outage", prev, gap)
		}
		// Before the clamp each gap must double; once at the clamp it stays.
		if prev > 0 && gap < 60*sim.Second && gap != 2*prev {
			t.Errorf("timeout gap %v after %v; want exact doubling below the clamp", gap, prev)
		}
		if gap == 60*sim.Second {
			clamped++
		}
		prev = gap
	}
	if clamped == 0 {
		t.Error("RTO never reached the 60 s clamp in a 399 s outage")
	}
	if tr.RTO() != 60*sim.Second {
		t.Errorf("RTO = %v at the end of the outage, want the 60 s clamp", tr.RTO())
	}
}

// TestOutageRecoveryNoSpuriousRetransmit pins recovery after the link comes
// back. Outages queue packets rather than dropping them, so the pre-outage
// flight eventually delivers and is cumulatively acknowledged; the sender
// must then skip past that data instead of resending the whole rewound
// window, and Karn's rule must keep the outage out of the RTT estimator
// (an ACK for a pre-outage copy of a rewound sequence is ambiguous).
func TestOutageRecoveryNoSpuriousRetransmit(t *testing.T) {
	// NewReno matters here: its window collapses to 1 on the timeout, so the
	// go-back-N rewind resends only the first hole — and when the queued
	// pre-outage flight then delivers, the cumulative ack jumps far past the
	// rewound nextSeq. The sender must skip forward, not walk nextSeq through
	// tens of already-acknowledged sequence numbers.
	// The 50-packet buffer (just above the ~43-packet BDP) makes slow start
	// overshoot drop packets shortly before the outage, so the receiver holds
	// out-of-order data above a hole when the timeout rewinds — exactly the
	// state where the cumulative ack later leaps past the rewound nextSeq.
	eng := sim.NewEngine()
	tr, net := buildFlow(t, eng, aqm.MustDropTail(50), 10e6, 25*sim.Millisecond, newreno.New())
	net.Links()[0].SetFaults(outageInjector{start: 1 * sim.Second, end: 3 * sim.Second})

	// Count transmissions of data the receiver has already cumulatively
	// acknowledged (BytesAcked/MTU is exactly the cumulative ack in packets).
	var spurious int64
	tr.OnSend = func(p *netsim.Packet, now sim.Time) {
		if p.Seq < tr.Stats().BytesAcked/int64(netsim.MTU) {
			spurious++
		}
	}
	tr.StartFlow(0)
	eng.Run(8 * sim.Second)
	st := tr.Stats()

	if st.Timeouts == 0 {
		t.Fatal("a 2 s outage must trigger retransmission timeouts")
	}
	if spurious != 0 {
		t.Errorf("%d packets of already-acknowledged data were retransmitted after the outage", spurious)
	}
	// The flow must actually recover: ~6 s of link uptime on a 10 Mbps path
	// NewReno normally fills must deliver well over 2 MB.
	if st.BytesAcked < 2_000_000 {
		t.Errorf("only %d bytes acked over 6 s of link uptime; recovery failed", st.BytesAcked)
	}
	// ACKs echo the delivered copy's own SentAt, so the pre-outage packets
	// that sat queued through the blackout report their true (outage-length)
	// RTT — MaxRTT legitimately spans the outage. What must NOT happen is
	// that one such sample poisons the timer for good: 5 s of ordinary ~50 ms
	// samples afterwards must pull the RTO back to the floor.
	if st.MaxRTT < 2*sim.Second {
		t.Errorf("max RTT %v; packets queued through the 2 s outage should report their true delay", st.MaxRTT)
	}
	if tr.RTO() > sim.Second {
		t.Errorf("RTO %v never recovered after the outage-spanning RTT samples", tr.RTO())
	}
}
