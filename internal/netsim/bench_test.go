package netsim

import (
	"testing"

	"repro/internal/sim"
)

// benchQueue is a minimal FIFO so link benchmarks measure the link service
// path itself rather than any AQM logic.
type benchQueue struct {
	pkts  []*Packet
	bytes int
}

func (q *benchQueue) Enqueue(p *Packet, now sim.Time) bool {
	q.pkts = append(q.pkts, p)
	q.bytes += p.Size
	return true
}

func (q *benchQueue) Dequeue(now sim.Time) *Packet {
	if len(q.pkts) == 0 {
		return nil
	}
	p := q.pkts[0]
	q.pkts[0] = nil
	q.pkts = q.pkts[1:]
	q.bytes -= p.Size
	return p
}

func (q *benchQueue) Len() int     { return len(q.pkts) }
func (q *benchQueue) Bytes() int   { return q.bytes }
func (q *benchQueue) Drops() int64 { return 0 }

// BenchmarkFixedRateLinkService measures the per-packet cost of the
// fixed-rate service loop: enqueue, back-to-back transmission events, and
// delivery, 1000 packets per iteration.
func BenchmarkFixedRateLinkService(b *testing.B) {
	const packets = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine := sim.NewEngine()
		q := &benchQueue{}
		delivered := 0
		link, err := NewFixedRateLink(engine, q, 1e9, func(p *Packet, now sim.Time) { delivered++ })
		if err != nil {
			b.Fatal(err)
		}
		pkts := make([]Packet, packets)
		b.StartTimer()
		for j := range pkts {
			pkts[j] = Packet{Seq: int64(j), Size: MTU}
			q.Enqueue(&pkts[j], engine.Now())
			link.Offer(engine.Now())
		}
		engine.Run(sim.Minute)
		if delivered != packets {
			b.Fatalf("delivered %d of %d", delivered, packets)
		}
	}
}

// BenchmarkNetworkRoundTrip measures the full per-packet journey through a
// dumbbell: port send, bottleneck service, forward propagation, receiver
// acknowledgment, and the ACK's return propagation.
func BenchmarkNetworkRoundTrip(b *testing.B) {
	const packets = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		engine := sim.NewEngine()
		q := &benchQueue{}
		net, err := NewGraph(engine, GraphConfig{})
		if err != nil {
			b.Fatal(err)
		}
		link, err := net.AddLink(LinkConfig{Name: "bottleneck", RateBps: 1e9, Queue: q})
		if err != nil {
			b.Fatal(err)
		}
		acked := 0
		port, err := net.AttachFlowRoute(SenderFunc(func(a Ack, now sim.Time) { acked++ }), []*Link{link}, nil, sim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j := 0; j < packets; j++ {
			p := port.NewPacket()
			p.Seq = int64(j)
			p.Size = MTU
			port.Send(p, engine.Now())
		}
		engine.Run(sim.Minute)
		if acked != packets {
			b.Fatalf("acked %d of %d", acked, packets)
		}
	}
}
