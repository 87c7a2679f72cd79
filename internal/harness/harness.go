// Package harness assembles complete simulation runs from the lower-level
// pieces: it builds the scenario's links (the paper's dumbbell is the
// one-link case), wires congestion-control transports and workload switchers
// onto routes across them, runs the simulation, and reports per-flow
// metrics. Scenarios come from scenario.Spec.Compile; Spec.Validate is the
// one validator of a run's configuration. Both the Remy optimizer (which
// scores candidate rule tables on specimen networks) and the experiment
// harness (which regenerates the paper's tables and figures) are built on
// it.
package harness

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FlowSpec describes one sender-receiver pair in a scenario.
type FlowSpec struct {
	// RTTMs is the flow's two-way propagation delay in milliseconds
	// (excluding transmission and queueing and the per-link delays of any
	// multi-link route).
	RTTMs float64
	// Workload is the on/off offered-load process.
	Workload workload.Spec
	// NewAlgorithm constructs the congestion-control algorithm for this
	// flow. It is invoked once per Session (harness.Run builds one session
	// per call), and the instance is reused across a session's runs with
	// Reset called at each flow start — algorithms must rewind completely in
	// Reset, a property pinned by TestSessionReuseMatchesFresh. Closures may
	// capture per-session state (the optimizer attaches usage recorders this
	// way).
	NewAlgorithm func() cc.Algorithm
	// Path and ReversePath route the flow across Scenario.Links by link
	// name. Path is required; an empty ReversePath gives the flow the paper's
	// uncongested pure-delay ACK return path.
	Path        []string
	ReversePath []string
}

// LinkDef describes one directed link of a scenario's topology.
type LinkDef struct {
	// Name identifies the link in flow routes.
	Name string
	// RateBps is the service rate; ignored when Trace is set.
	RateBps float64
	// Trace makes the link trace-driven.
	Trace     []sim.Time
	TraceLoop bool
	// DelayMs is the link's one-way propagation delay in milliseconds.
	DelayMs float64
	// NewQueue builds the link's queue discipline for this run.
	NewQueue func(engine *sim.Engine) (netsim.Queue, error)
	// Faults, when set, attaches a deterministic fault schedule to the link
	// (outages, burst loss, delay spikes, rate droops). The schedule's RNG is
	// reseeded per run from the run seed.
	Faults *faults.Schedule
}

// LinkResult reports one link's counters from one run.
type LinkResult struct {
	Name           string
	Delivered      int64
	DeliveredBytes int64
	Drops          int64
	// FaultDrops counts packets destroyed by fault-injected burst loss after
	// this link served them (zero for fault-free links).
	FaultDrops int64
}

// Scenario is a complete simulation configuration: the compiled form of a
// scenario.Spec, which validates it.
type Scenario struct {
	// Links is the scenario's topology: every flow and churn class routes
	// over the named links via Path/ReversePath. The first link is the
	// "primary" one whose delivery counter feeds Result.Delivered; the
	// paper's dumbbell is a single link named "bottleneck".
	Links []LinkDef
	// AckBytes is the acknowledgment packet size on reverse-path links
	// (netsim.AckBytes if zero).
	AckBytes int

	MTU      int
	Duration sim.Time
	Flows    []FlowSpec

	// Churn lists classes of dynamically arriving flows: each class spawns a
	// fresh flow per arrival (its size drawn from the class's distribution)
	// and retires it once the transfer completes, recording the flow
	// completion time. Static Flows and churn classes may coexist; a scenario
	// needs at least one of the two. In the engine the static list is just
	// the degenerate churn case — flows that exist from t=0 and never
	// complete.
	Churn []ChurnClass
	// MaxLiveFlows caps the concurrently live churn population across all
	// classes; arrivals beyond the cap are rejected (counted per class, not
	// deferred). 0 means DefaultMaxLiveFlows; negative is an error. Static flows do not count
	// against the cap.
	MaxLiveFlows int

	// OnDeliver, if set, observes every packet delivered to a receiver
	// (sequence plots such as Figure 6).
	OnDeliver func(p *netsim.Packet, now sim.Time)
}

// DefaultMaxLiveFlows is the churn population cap when the scenario does not
// set one: large enough for heavy offered loads, small enough that an
// overload cannot grow state without bound.
const DefaultMaxLiveFlows = 1024

// ChurnClass describes one class of dynamically arriving flows: an arrival
// process (Poisson when Interarrival is exponential), a flow-size
// distribution, and the path/scheme every spawned flow uses.
type ChurnClass struct {
	// Interarrival is the distribution of gaps between arrivals, in seconds.
	Interarrival workload.Distribution
	// Size is the distribution of per-flow transfer sizes, in bytes.
	Size workload.Distribution
	// MaxArrivals stops the class after that many arrivals (0 = unlimited).
	MaxArrivals int64
	// RTTMs is the flows' two-way access propagation delay in milliseconds.
	RTTMs float64
	// NewAlgorithm constructs the congestion-control algorithm for one
	// spawned flow. Pooled flow states reuse algorithm instances across
	// incarnations (they are Reset at each spawn), so it is invoked once per
	// concurrently-live flow, not once per arrival.
	NewAlgorithm func() cc.Algorithm
	// Path and ReversePath route spawned flows across Scenario.Links,
	// exactly as in FlowSpec.
	Path        []string
	ReversePath []string
}

// FlowResult reports one flow's outcome from one run.
type FlowResult struct {
	// Metrics are the paper's evaluation metrics (§5.1).
	Metrics stats.FlowMetrics
	// Transport is the raw transport counter snapshot.
	Transport cc.Stats
	// Algorithm is the scheme name the flow ran.
	Algorithm string
	// OnPeriods is the number of completed or started on periods.
	OnPeriods int
}

// ChurnResult reports one churn class's outcome from one run.
type ChurnResult struct {
	// Class is the class index within Scenario.Churn.
	Class int
	// Algorithm is the scheme name the class's flows ran.
	Algorithm string
	// Spawned counts flows that arrived and attached; Completed those that
	// finished their transfer before the horizon; Rejected arrivals refused
	// because the live population was at MaxLiveFlows. Spawned - Completed
	// flows were still live when the run ended.
	Spawned, Completed, Rejected int64
	// FCT summarizes the completed flows' completion times in seconds
	// (streaming aggregation: exact count/mean/min/max, P² p50/p95/p99).
	FCT stats.FCTSummary
	// FCTSumUs, FCTMinUs and FCTMaxUs are the integer-exact microsecond
	// aggregates of the completion times (golden fixtures compare these).
	FCTSumUs, FCTMinUs, FCTMaxUs int64
	// Transport aggregates the transport counters over every spawned flow:
	// completed flows at retirement plus still-live flows at the horizon.
	Transport cc.Stats
}

// Result is the outcome of one Run.
type Result struct {
	Flows []FlowResult
	// Churn reports per-class churn outcomes, in class order (empty for
	// scenarios without churn classes).
	Churn []ChurnResult
	// Offered, Delivered and Dropped count data packets: offered at first-hop
	// queues, delivered by the primary link, dropped on arrival at any queue.
	Offered, Delivered, Dropped int64
	// AcksDropped counts acknowledgments dropped on reverse-path links, at
	// enqueue (tail drop) or dequeue (CoDel) time. Always zero when no flow
	// declares a ReversePath, as in the dumbbell, whose ACK path is
	// uncongested.
	AcksDropped int64
	// FaultDropped counts packets (data and acks) destroyed by fault-injected
	// burst loss across all links, separate from the queue-drop counters.
	FaultDropped int64
	// Links reports per-link counters in definition order.
	Links []LinkResult
}

// Run executes the scenario once with the given seed and returns per-flow
// results. Runs with equal scenarios and seeds produce identical results. It
// builds a throwaway Session and runs it once; callers that execute many
// repetitions of one scenario should hold a Session (or go through
// scenario.Runner, which pools engines and sessions) instead.
func Run(s Scenario, seed int64) (Result, error) {
	ss, err := NewSession(s)
	if err != nil {
		return Result{}, err
	}
	return ss.Run(seed)
}

// resolveRoute maps link names to the network's links; an unknown name maps
// to nil, which the network rejects when the route is attached.
func resolveRoute(n *netsim.Network, names []string) []*netsim.Link {
	if len(names) == 0 {
		return nil
	}
	out := make([]*netsim.Link, len(names))
	for i, name := range names {
		out[i] = n.LinkByName(name)
	}
	return out
}

// buildNetwork materializes the scenario's links.
func buildNetwork(s Scenario, engine *sim.Engine, mtu int) (*netsim.Network, []netsim.Queue, error) {
	network, err := netsim.NewGraph(engine, netsim.GraphConfig{MTU: mtu, AckBytes: s.AckBytes})
	if err != nil {
		return nil, nil, err
	}
	queues := make([]netsim.Queue, 0, len(s.Links))
	for _, def := range s.Links {
		if def.NewQueue == nil {
			return nil, nil, fmt.Errorf("harness: link %q has no queue factory", def.Name)
		}
		q, err := def.NewQueue(engine)
		if err != nil {
			return nil, nil, err
		}
		if q == nil {
			return nil, nil, fmt.Errorf("harness: link %q queue factory returned a nil queue", def.Name)
		}
		if _, err := network.AddLink(netsim.LinkConfig{
			Name:      def.Name,
			RateBps:   def.RateBps,
			Trace:     def.Trace,
			TraceLoop: def.TraceLoop,
			Delay:     sim.FromMillis(def.DelayMs),
			Queue:     q,
		}); err != nil {
			return nil, nil, err
		}
		queues = append(queues, q)
	}
	return network, queues, nil
}
