package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// This file is the directed-graph topology engine. A Network owns a set of
// named links — each with its own service model (fixed-rate or trace-driven),
// one-way propagation delay and queue discipline — and a set of flows that
// follow explicit multi-hop routes across those links. Data packets traverse
// the flow's forward route hop by hop; acknowledgments either return over a
// pure propagation delay (the paper's uncongested reverse path) or, when the
// flow declares a reverse route, travel as real packets through the reverse
// links' queues, so a slow or congested ACK channel throttles the ACK clock.
//
// The classic single-bottleneck dumbbell of Figure 2 is the degenerate graph:
// one link (NewGraph, then AddLink) that every flow routes over with no
// reverse route (AttachFlowRoute).
//
// Flows may attach and detach at runtime (churn scenarios spawn a flow per
// arrival and retire it on completion). Every attachment gets a fresh
// generation number, stamped on each packet the flow sends; packets still in
// flight when their flow detaches — sitting in queues, in service, or
// propagating — fail the generation check on delivery and are recycled
// instead of reaching whichever flow later reuses the slot. Detached ports
// can be re-attached (ReattachFlowRoute) without allocating, so a churning
// steady state recycles ports just like it recycles packets.

// AckBytes is the default size of acknowledgment packets traversing
// reverse-path links (a TCP ACK without options).
const AckBytes = 40

// GraphConfig configures an empty topology network.
type GraphConfig struct {
	// MTU is the data segment size in bytes; DefaultMTU if zero.
	MTU int
	// AckBytes is the acknowledgment packet size used on reverse-path links;
	// the AckBytes constant if zero.
	AckBytes int
}

// LinkConfig describes one directed link of the topology.
type LinkConfig struct {
	// Name identifies the link in routes; auto-generated if empty.
	Name string
	// RateBps is the service rate in bits per second. Ignored when Trace is
	// non-empty.
	RateBps float64
	// Trace, when non-empty, makes the link trace-driven.
	Trace []sim.Time
	// TraceLoop repeats the trace when it runs out.
	TraceLoop bool
	// Delay is the link's one-way propagation delay, applied after service.
	Delay sim.Time
	// Queue is the link's queue discipline.
	Queue Queue
}

// Network is an instantiated topology: flows follow explicit routes over a
// set of links; each flow additionally has a per-flow access propagation
// delay on each direction (its share of the path's RTT that is not owned by
// any shared link).
type Network struct {
	engine   *sim.Engine
	links    []*Link
	byName   map[string]*Link
	mtu      int
	ackBytes int

	flows []*Port
	// freeSlots lists detached flow slots available for reuse (LIFO, so a
	// churning population stays compact); nextGen is the monotonic attachment
	// generation counter — generations never repeat within a network, so a
	// stale packet can never collide with a reused slot's new occupant.
	freeSlots []int
	nextGen   uint64
	liveFlows int

	// OnDeliver, if set, is invoked for every data packet delivered to a
	// receiver (used by the Figure 6 sequence-plot experiment). The packet is
	// recycled once the callback returns; observers must copy what they need
	// rather than retain the pointer.
	OnDeliver func(p *Packet, now sim.Time)

	// pool recycles packets and ack carriers through the send → queue → link
	// → receiver → ack cycle, keeping the per-packet path allocation-free.
	pool    packetPool
	ackFree []*ackCarrier

	propApply func(now sim.Time, arg any)
	ackApply  func(now sim.Time, arg any)
	hopApply  func(now sim.Time, arg any)
	ackDone   func(now sim.Time, arg any)

	packetsOffered int64
	packetsDropped int64
	acksDropped    int64
}

// ackCarrier ferries one acknowledgment through its return-path propagation
// event without boxing the Ack value into an interface (which would allocate
// per packet). It is used only by flows whose reverse path is pure delay;
// flows with reverse links carry their acks in pooled packets instead. gen
// pins the flow attachment the ack belongs to, so acks in flight when their
// flow detaches are dropped rather than delivered to a respawned flow.
type ackCarrier struct {
	port *Port
	ack  Ack
	gen  uint64
}

// Port is one flow's attachment point to the network. The sender transmits
// by calling Send; the network delivers acknowledgments to the attached
// Sender once they have crossed the flow's reverse path.
type Port struct {
	net      *Network
	flow     int
	sender   Sender
	receiver *Receiver
	// oneWay is the flow's access propagation delay in each direction: the
	// part of the minimum RTT not owned by any link. For a dumbbell flow it is
	// half the two-way propagation delay, as in the paper's setup.
	oneWay sim.Time
	// fwd is the forward route (data direction); rev is the reverse route
	// (acknowledgments). An empty rev means the uncongested pure-delay return
	// path of the paper. Both retain their capacity across detach/reattach
	// cycles so respawning a flow does not allocate.
	fwd, rev []*Link

	// gen is the port's current attachment generation (see Network.nextGen);
	// attached is false between DetachFlow and the next ReattachFlowRoute.
	gen      uint64
	attached bool

	packetsSent int64
	bytesSent   int64
}

// NewGraph builds an empty topology network on the engine. Links are added
// with AddLink and flows with AttachFlowRoute.
func NewGraph(engine *sim.Engine, cfg GraphConfig) (*Network, error) {
	if engine == nil {
		return nil, fmt.Errorf("netsim: nil engine")
	}
	mtu := cfg.MTU
	if mtu <= 0 {
		mtu = MTU
	}
	ackBytes := cfg.AckBytes
	if ackBytes <= 0 {
		ackBytes = AckBytes
	}
	n := &Network{engine: engine, mtu: mtu, ackBytes: ackBytes, byName: make(map[string]*Link)}
	n.propApply = n.onPropagated
	n.ackApply = n.onAckReturned
	n.hopApply = n.onHopArrived
	n.ackDone = n.onAckPacketReturned
	return n, nil
}

// AddLink creates a link from the config and adds it to the topology.
func (n *Network) AddLink(cfg LinkConfig) (*Link, error) {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("link%d", len(n.links))
	}
	if _, dup := n.byName[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate link %q", name)
	}
	if cfg.Delay < 0 {
		return nil, fmt.Errorf("netsim: link %q has negative delay", name)
	}
	if cfg.Queue == nil {
		return nil, fmt.Errorf("netsim: link %q has no queue", name)
	}
	// The deliver closure must capture the link it serves, which exists only
	// after construction; capture the variable instead.
	var link *Link
	deliver := func(p *Packet, now sim.Time) { n.onLinkDelivered(link, p, now) }
	var err error
	if len(cfg.Trace) > 0 {
		link, err = NewTraceLink(n.engine, cfg.Queue, cfg.Trace, cfg.TraceLoop, deliver)
	} else {
		link, err = NewFixedRateLink(n.engine, cfg.Queue, cfg.RateBps, deliver)
	}
	if err != nil {
		return nil, fmt.Errorf("netsim: link %q: %w", name, err)
	}
	link.name = name
	link.delay = cfg.Delay
	n.links = append(n.links, link)
	n.byName[name] = link
	return link, nil
}

// Start arms every link (needed for trace-driven links).
func (n *Network) Start(now sim.Time) {
	for _, l := range n.links {
		l.Start(now)
	}
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Link exposes the primary link — the first one added — for statistics. For
// a dumbbell this is the bottleneck.
func (n *Network) Link() *Link {
	if len(n.links) == 0 {
		return nil
	}
	return n.links[0]
}

// Links returns every link in addition order.
func (n *Network) Links() []*Link { return n.links }

// LinkByName returns the named link, or nil.
func (n *Network) LinkByName(name string) *Link { return n.byName[name] }

// MTU returns the data segment size in bytes.
func (n *Network) MTU() int { return n.mtu }

// AckPacketBytes returns the acknowledgment packet size used on reverse-path
// links.
func (n *Network) AckPacketBytes() int { return n.ackBytes }

// PacketsOffered returns the number of data packets senders have offered to
// their first-hop queues.
func (n *Network) PacketsOffered() int64 { return n.packetsOffered }

// PacketsDropped returns the number of data packets dropped at any hop on
// arrival at a queue.
func (n *Network) PacketsDropped() int64 { return n.packetsDropped }

// AcksDropped returns the number of acknowledgment packets dropped on
// reverse-path links.
func (n *Network) AcksDropped() int64 { return n.acksDropped }

// FaultDropped returns the number of packets (data and acks) destroyed by
// fault-injected burst loss across all links. These are counted separately
// from PacketsDropped/AcksDropped, which keep their long-standing meaning of
// queue drops.
func (n *Network) FaultDropped() int64 {
	var total int64
	for _, l := range n.links {
		total += l.faultDropped
	}
	return total
}

// AttachFlowRoute adds a flow following the given forward and reverse routes.
// fwd must name at least one link; an empty rev gives the flow the paper's
// uncongested pure-delay return path. oneWay is the flow's access propagation
// delay in each direction, on top of the routes' per-link delays.
func (n *Network) AttachFlowRoute(sender Sender, fwd, rev []*Link, oneWay sim.Time) (*Port, error) {
	if sender == nil {
		return nil, fmt.Errorf("netsim: AttachFlowRoute with nil sender")
	}
	if err := n.validateRoutes(fwd, rev, oneWay); err != nil {
		return nil, err
	}
	p := &Port{
		net:      n,
		sender:   sender,
		receiver: NewReceiver(0),
		oneWay:   oneWay,
		fwd:      append([]*Link(nil), fwd...),
		rev:      append([]*Link(nil), rev...),
	}
	n.register(p)
	return p, nil
}

// ReattachFlowRoute re-registers a previously detached port with (possibly
// new) routes. The port keeps its sender and receiver and reuses its route
// slices' capacity, so respawning a flow through a warm port allocates
// nothing; the receiver is reset so the new incarnation starts with fresh
// cumulative-ack state regardless of what the previous one received. The
// port may land in a different slot than it previously occupied.
func (n *Network) ReattachFlowRoute(p *Port, fwd, rev []*Link, oneWay sim.Time) error {
	if p == nil || p.net != n {
		return fmt.Errorf("netsim: ReattachFlowRoute with a foreign or nil port")
	}
	if p.attached {
		return fmt.Errorf("netsim: port for flow %d is still attached", p.flow)
	}
	if err := n.validateRoutes(fwd, rev, oneWay); err != nil {
		return err
	}
	p.oneWay = oneWay
	p.fwd = append(p.fwd[:0], fwd...)
	p.rev = append(p.rev[:0], rev...)
	p.receiver.Reset()
	n.register(p)
	return nil
}

// DetachFlow removes a flow from the network. Packets of the flow still in
// flight keep draining through queues and links but fail the generation
// check on delivery and are recycled; they can never reach a flow that later
// reuses the slot. The port itself stays valid for ReattachFlowRoute.
func (n *Network) DetachFlow(p *Port) error {
	if p == nil || p.net != n || !p.attached {
		return fmt.Errorf("netsim: DetachFlow on a port that is not attached here")
	}
	if p.flow >= len(n.flows) || n.flows[p.flow] != p {
		return fmt.Errorf("netsim: DetachFlow port/slot mismatch for flow %d", p.flow)
	}
	n.flows[p.flow] = nil
	n.freeSlots = append(n.freeSlots, p.flow)
	p.attached = false
	n.liveFlows--
	return nil
}

// validateRoutes checks a flow's routes and access delay without allocating.
func (n *Network) validateRoutes(fwd, rev []*Link, oneWay sim.Time) error {
	if oneWay < 0 {
		return fmt.Errorf("netsim: negative propagation delay")
	}
	if len(fwd) == 0 {
		return fmt.Errorf("netsim: flow needs at least one forward link")
	}
	for _, route := range [2][]*Link{fwd, rev} {
		for _, l := range route {
			if l == nil {
				return fmt.Errorf("netsim: route contains a nil link")
			}
			if n.byName[l.name] != l {
				return fmt.Errorf("netsim: route link %q does not belong to this network", l.name)
			}
		}
	}
	return nil
}

// register places the port in a flow slot (reusing a freed one if available)
// and stamps a fresh attachment generation.
func (n *Network) register(p *Port) {
	var slot int
	if m := len(n.freeSlots); m > 0 {
		slot = n.freeSlots[m-1]
		n.freeSlots = n.freeSlots[:m-1]
		n.flows[slot] = p
	} else {
		slot = len(n.flows)
		n.flows = append(n.flows, p)
	}
	p.flow = slot
	p.receiver.flow = slot
	n.nextGen++
	p.gen = n.nextGen
	p.attached = true
	n.liveFlows++
}

// Flows returns the number of flow slots ever created (attachment order
// indexes into PortFor); detached slots count until they are reused.
func (n *Network) Flows() int { return len(n.flows) }

// LiveFlows returns the number of currently attached flows.
func (n *Network) LiveFlows() int { return n.liveFlows }

// PortFor returns the port of flow i (nil if out of range); tests and the
// experiment harness use it to read per-flow counters.
func (n *Network) PortFor(i int) *Port {
	if i < 0 || i >= len(n.flows) {
		return nil
	}
	return n.flows[i]
}

// MinRTT returns a flow's minimum achievable round-trip time: the two access
// propagation delays plus, for every link on the forward route, its delay and
// one MTU transmission time, and for every link on the reverse route, its
// delay and one acknowledgment transmission time (zero transmission time for
// trace-driven links, whose delivery schedule already embodies service time).
func (n *Network) MinRTT(flow int) sim.Time {
	p := n.PortFor(flow)
	if p == nil {
		return 0
	}
	rtt := 2 * p.oneWay
	for _, l := range p.fwd {
		rtt += l.delay
		if l.rateBps > 0 {
			rtt += sim.FromSeconds(float64(n.mtu) * 8 / l.rateBps)
		}
	}
	for _, l := range p.rev {
		rtt += l.delay
		if l.rateBps > 0 {
			rtt += sim.FromSeconds(float64(n.ackBytes) * 8 / l.rateBps)
		}
	}
	return rtt
}

// onLinkDelivered runs when a link completes service of a packet: the packet
// propagates over the link's delay toward the next hop of its route, or — at
// the last hop — toward the flow's receiver (data) or sender (ack).
//
//repo:hotpath per-packet bottleneck exit
func (n *Network) onLinkDelivered(l *Link, p *Packet, now sim.Time) {
	delay := l.delay
	if l.faults != nil {
		// The loss process acts on every packet the link transmits — stale
		// ones included — so the burst chain advances identically whether or
		// not the packet's flow is still attached.
		if l.faults.DropDelivered(now) {
			l.faultDropped++
			n.pool.put(p)
			return
		}
		delay += l.faults.ExtraDelay(now)
	}
	port := n.PortFor(p.Flow)
	if port == nil || port.gen != p.gen {
		n.pool.put(p) // stale packet of a detached flow
		return
	}
	route := port.fwd
	if p.isAck {
		route = port.rev
	}
	if p.hop+1 < len(route) {
		p.hop++
		n.engine.ScheduleArg(now+delay, n.hopApply, p)
		return
	}
	if p.isAck {
		n.engine.ScheduleArg(now+delay+port.oneWay, n.ackDone, p)
		return
	}
	n.engine.ScheduleArg(now+delay+port.oneWay, n.propApply, p)
}

// onHopArrived runs when a packet reaches an intermediate hop of its route:
// it joins that link's queue (or is dropped there).
//
//repo:hotpath per-packet multi-hop forwarding
func (n *Network) onHopArrived(t sim.Time, arg any) {
	p := arg.(*Packet)
	port := n.flows[p.Flow]
	if port == nil || port.gen != p.gen {
		n.pool.put(p) // stale packet of a detached flow
		return
	}
	route := port.fwd
	if p.isAck {
		route = port.rev
	}
	l := route[p.hop]
	p.EnqueuedAt = t
	if !l.queue.Enqueue(p, t) {
		if p.isAck {
			n.acksDropped++
		} else {
			n.packetsDropped++
		}
		n.pool.put(p)
		return
	}
	l.Offer(t)
}

// onPropagated runs when a data packet reaches its receiver: acknowledge it,
// notify observers, recycle the packet, and send the acknowledgment back —
// over pure delay when the flow has no reverse links, or as an ack packet
// entering the first reverse link's queue.
//
//repo:hotpath per-packet receiver delivery
func (n *Network) onPropagated(t sim.Time, arg any) {
	p := arg.(*Packet)
	port := n.flows[p.Flow]
	if port == nil || port.gen != p.gen {
		n.pool.put(p) // stale packet of a detached flow
		return
	}
	ack := port.receiver.Receive(p, t)
	if n.OnDeliver != nil {
		n.OnDeliver(p, t)
	}
	n.pool.put(p)
	if len(port.rev) == 0 {
		// Return propagation of the acknowledgment (reverse path is
		// uncongested, as in the paper's setup).
		ac := n.getAckCarrier()
		ac.port, ac.ack, ac.gen = port, ack, port.gen
		n.engine.ScheduleArg(t+port.oneWay, n.ackApply, ac)
		return
	}
	pa := n.pool.get()
	pa.Flow = port.flow
	pa.Size = n.ackBytes
	pa.isAck = true
	pa.ack = ack
	pa.gen = port.gen
	pa.EnqueuedAt = t
	l := port.rev[0]
	if !l.queue.Enqueue(pa, t) {
		n.acksDropped++
		n.pool.put(pa)
		return
	}
	l.Offer(t)
}

// onAckReturned delivers a pure-delay acknowledgment to its sender after the
// reverse propagation delay.
//
//repo:hotpath per-ack delivery to the sender
func (n *Network) onAckReturned(t sim.Time, arg any) {
	ac := arg.(*ackCarrier)
	port, ack, gen := ac.port, ac.ack, ac.gen
	ac.port = nil
	ac.ack = Ack{}
	ac.gen = 0
	//lint:ignore hotalloc free-list push returns a carrier taken from this same list; capacity is steady once warm
	n.ackFree = append(n.ackFree, ac)
	if !port.attached || port.gen != gen {
		return // flow detached while the ack was propagating
	}
	port.sender.OnAck(ack, t)
}

// onAckPacketReturned delivers an acknowledgment that crossed the flow's
// reverse links to its sender.
//
//repo:hotpath per-ack reverse-path delivery
func (n *Network) onAckPacketReturned(t sim.Time, arg any) {
	p := arg.(*Packet)
	port := n.flows[p.Flow]
	if port == nil || port.gen != p.gen {
		n.pool.put(p) // stale ack of a detached flow
		return
	}
	ack := p.ack
	n.pool.put(p)
	port.sender.OnAck(ack, t)
}

func (n *Network) getAckCarrier() *ackCarrier {
	if m := len(n.ackFree); m > 0 {
		ac := n.ackFree[m-1]
		n.ackFree[m-1] = nil
		n.ackFree = n.ackFree[:m-1]
		return ac
	}
	return &ackCarrier{}
}

// Reset returns the network to its just-built state for engine-pooled reuse
// (harness.Session): links and queues stay, but every queued or in-service
// packet is recycled, every flow slot is vacated and all counters are zeroed.
// Ports survive detached — the owner re-attaches them (ReattachFlowRoute)
// for the next run, which reuses their route capacity and allocates nothing.
// The attachment-generation counter keeps counting monotonically, so a
// pooled network can never confuse a recycled packet with a new attachment.
//
// Reset must run before the engine is reset: queue disciplines are drained
// through their Dequeue path (so CoDel's dequeue-time drop hooks recycle
// internally dropped packets), which wants a clock no earlier than the
// packets' enqueue stamps.
func (n *Network) Reset() {
	now := n.engine.Now()
	for _, l := range n.links {
		if p := l.reset(); p != nil {
			n.pool.put(p)
		}
		q := l.queue
		for q.Len() > 0 {
			p := q.Dequeue(now)
			if p == nil {
				break
			}
			n.pool.put(p)
		}
		if r, ok := q.(interface{ Reset() }); ok {
			r.Reset()
		}
	}
	for _, p := range n.flows {
		if p == nil {
			continue
		}
		p.attached = false
		p.packetsSent = 0
		p.bytesSent = 0
		p.receiver.packetsReceived = 0
		p.receiver.bytesReceived = 0
	}
	n.flows = n.flows[:0]
	n.freeSlots = n.freeSlots[:0]
	n.liveFlows = 0
	n.packetsOffered = 0
	n.packetsDropped = 0
	n.acksDropped = 0
}

// ReleasePacket returns a packet to the network's pool.
func (n *Network) ReleasePacket(p *Packet) { n.pool.put(p) }

// ReleaseDropped recycles a packet a queue discipline dropped internally
// (CoDel's dequeue-time drops); the harness wires it as the drop hook.
// Dropped acknowledgments are counted so AcksDropped covers both enqueue-
// and dequeue-time losses on reverse links; data-packet dequeue drops stay
// visible only through the per-queue Drops counter, preserving the
// long-standing meaning of PacketsDropped (drops on arrival).
func (n *Network) ReleaseDropped(p *Packet) {
	if p.isAck {
		n.acksDropped++
	}
	n.pool.put(p)
}

// NewPacket returns a blank packet for this flow's sender to fill in and
// Send. Senders must obtain packets here rather than allocating them, so the
// network can recycle delivered packets.
func (p *Port) NewPacket() *Packet { return p.net.pool.get() }

// NewConnection stamps a fresh attachment generation on the port without
// changing its flow slot. Data packets and acknowledgments of the previous
// connection that are still in flight fail the generation check on delivery
// and are recycled, exactly as after a detach/reattach cycle. Transports
// call it when a new on period begins, so a short off period cannot leak the
// old connection's traffic — in particular a stale cumulative ack, which
// would corrupt the fresh sequence space — into the new one.
func (p *Port) NewConnection() {
	p.net.nextGen++
	p.gen = p.net.nextGen
}

// Send transmits a packet from this flow's sender into its first-hop queue.
// The packet's Flow field is overwritten with the port's flow id. It returns
// false if the first hop dropped the packet on arrival.
//
//repo:hotpath per-packet entry into the network
func (p *Port) Send(pkt *Packet, now sim.Time) bool {
	if !p.attached {
		// A detached flow's sender must not inject traffic; recycle silently
		// (transports are stopped before detachment, so this is a backstop).
		p.net.pool.put(pkt)
		return false
	}
	if pkt.Size <= 0 {
		pkt.Size = p.net.mtu
	}
	pkt.Flow = p.flow
	pkt.gen = p.gen
	pkt.hop = 0
	pkt.isAck = false
	pkt.EnqueuedAt = now
	p.packetsSent++
	p.bytesSent += int64(pkt.Size)
	p.net.packetsOffered++
	l := p.fwd[0]
	ok := l.queue.Enqueue(pkt, now)
	if !ok {
		p.net.packetsDropped++
		p.net.pool.put(pkt)
		return false
	}
	l.Offer(now)
	return true
}

// Flow returns the port's flow id (its current slot; it may change across
// detach/reattach cycles).
func (p *Port) Flow() int { return p.flow }

// Attached reports whether the port is currently attached to the network.
func (p *Port) Attached() bool { return p.attached }

// OneWayDelay returns the flow's access one-way propagation delay.
func (p *Port) OneWayDelay() sim.Time { return p.oneWay }

// ForwardRoute returns the flow's forward route.
func (p *Port) ForwardRoute() []*Link { return p.fwd }

// ReverseRoute returns the flow's reverse route (empty for pure-delay
// return paths).
func (p *Port) ReverseRoute() []*Link { return p.rev }

// Receiver returns the flow's receiver (for statistics and resets).
func (p *Port) Receiver() *Receiver { return p.receiver }

// PacketsSent returns the number of packets this flow has offered.
func (p *Port) PacketsSent() int64 { return p.packetsSent }

// BytesSent returns the number of bytes this flow has offered.
func (p *Port) BytesSent() int64 { return p.bytesSent }
