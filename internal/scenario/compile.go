package scenario

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/traces"
)

// splitmix64 is the SplitMix64 output function: a bijective mixer whose
// outputs pass statistical tests even on sequential inputs. It keeps
// per-repetition seeds decorrelated without any shared state, so seed
// derivation is identical no matter which worker runs which repetition.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// DeriveSeed returns the seed for one repetition of a spec. Repetition 0 uses
// the base seed itself, so a single-repetition spec reproduces a direct
// harness.Run with the same seed; later repetitions are mixed through
// SplitMix64. The base is mixed before the repetition index is added so that
// adjacent base seeds produce disjoint repetition streams (naive base+rep
// would make seed(b, r) collide with seed(b+1, r-1)).
func DeriveSeed(base int64, rep int) int64 {
	if rep == 0 {
		return base
	}
	return int64(splitmix64(splitmix64(uint64(base)) + uint64(rep)))
}

// traceSalt decorrelates the trace generator's stream from the workload
// streams that consume the run seed (ASCII "tracegen").
const traceSalt = 0x747261636567656e

// deriveTraceSeed returns the seed for a repetition's synthesized link trace.
func deriveTraceSeed(runSeed int64) int64 {
	return int64(splitmix64(uint64(runSeed) ^ traceSalt))
}

// deriveLinkTraceSeed returns the trace seed for the i-th link of a topology
// spec, decorrelating the links' traces from one another. Link 0 reuses the
// single-link derivation so a one-link topology reproduces the classic form.
func deriveLinkTraceSeed(runSeed int64, link int) int64 {
	if link == 0 {
		return deriveTraceSeed(runSeed)
	}
	return int64(splitmix64(uint64(deriveTraceSeed(runSeed)) + uint64(link)))
}

// QueueKindFor resolves the effective queue kind of the spec: the explicit
// Queue.Kind if set, otherwise the kind implied by the flows' protocols. It
// is an error for two flows to imply different router-assisted kinds.
func (s Spec) QueueKindFor(reg *Registry) (string, error) {
	if s.Queue.Kind != "" {
		return s.Queue.Kind, nil
	}
	kind := QueueDropTail
	flows := s.Flows
	if s.Churn != nil {
		// Churn classes imply queue kinds exactly like static flows do.
		flows = append(append([]FlowSpec(nil), flows...), churnFlowSpecs(s.Churn.Classes)...)
	}
	for _, f := range flows {
		// Programmatic flows bypass the registry entirely (mirroring
		// Compile), so their Scheme is only a label and implies no queue.
		if f.Scheme == "" || f.Algorithm != nil {
			continue
		}
		p, err := reg.Protocol(f)
		if err != nil {
			return "", err
		}
		pk := p.QueueKind()
		if pk == QueueDropTail {
			continue
		}
		if kind != QueueDropTail && kind != pk {
			return "", fmt.Errorf("scenario: spec %q mixes protocols implying %q and %q queues; set queue.kind explicitly", s.Name, kind, pk)
		}
		kind = pk
	}
	return kind, nil
}

// churnFlowSpecs adapts churn classes to the FlowSpec shape used for
// registry resolution (programmatic classes keep their Algorithm so they are
// skipped the same way programmatic flows are).
func churnFlowSpecs(classes []ChurnClassSpec) []FlowSpec {
	out := make([]FlowSpec, len(classes))
	for i, c := range classes {
		out[i] = FlowSpec{Scheme: c.Scheme, RemyCC: c.RemyCC, RateBps: c.RateBps, Algorithm: c.Algorithm}
	}
	return out
}

// RepInvariant reports whether the spec compiles to the same executable
// scenario for every repetition. Only synthesized link traces vary across
// repetitions (a trace *model* generates a fresh trace per rep from a
// rep-derived seed); fixed-rate links and explicit traces compile
// identically for every rep, so the Runner can build one reusable
// harness.Session per spec and vary only the seed.
func (s Spec) RepInvariant() bool {
	if s.Topology != nil {
		for _, l := range s.Topology.Links {
			if l.Model != "" && l.Model != "fixed" {
				return false
			}
		}
		return true
	}
	if len(s.Link.Trace) > 0 {
		return true
	}
	return s.Link.Model == "" || s.Link.Model == "fixed"
}

// BottleneckLink names the one link a spec without a Topology compiles to:
// the paper's dumbbell is the one-link topology.
const BottleneckLink = "bottleneck"

// bottleneckRoute is the route of every flow in a spec without a Topology.
var bottleneckRoute = []string{BottleneckLink}

// Compile resolves the spec's names against the registry and materializes the
// executable scenario for one repetition, together with the repetition's
// derived seed. Trace-driven link models synthesize a fresh trace per
// repetition from a seed decorrelated with the run seed. A spec without a
// Topology compiles to a single link named BottleneckLink that every flow and
// churn class routes over.
func (s Spec) Compile(reg *Registry, rep int) (harness.Scenario, int64, error) {
	if reg == nil {
		reg = Default()
	}
	if err := s.Validate(); err != nil {
		return harness.Scenario{}, 0, err
	}
	runSeed := DeriveSeed(s.Seed, rep)

	out := harness.Scenario{
		Duration:  s.Duration(),
		MTU:       s.MTU,
		OnDeliver: s.OnDeliver,
	}
	if err := s.compileLinks(reg, runSeed, &out); err != nil {
		return harness.Scenario{}, 0, err
	}
	if err := s.compileFlows(reg, &out); err != nil {
		return harness.Scenario{}, 0, err
	}
	if err := s.compileChurn(reg, &out); err != nil {
		return harness.Scenario{}, 0, err
	}
	return out, runSeed, nil
}

// compileFlows expands flow counts and resolves schemes into the executable
// scenario, carrying topology routes through.
func (s Spec) compileFlows(reg *Registry, out *harness.Scenario) error {
	mtu := s.MTU
	if mtu <= 0 {
		mtu = netsim.MTU
	}
	for i, f := range s.Flows {
		f.specMTU = mtu
		alg := f.Algorithm
		name := f.Scheme
		if alg == nil {
			p, err := reg.Protocol(f)
			if err != nil {
				return fmt.Errorf("scenario: spec %q flow %d: %w", s.Name, i, err)
			}
			alg = p.New
			name = p.Name
		}
		w, err := f.Workload.Compile()
		if err != nil {
			return fmt.Errorf("scenario: spec %q flow %d (%s): %w", s.Name, i, name, err)
		}
		path := f.Path
		if s.Topology == nil {
			path = bottleneckRoute
		}
		count := f.Count
		if count < 1 {
			count = 1
		}
		for c := 0; c < count; c++ {
			out.Flows = append(out.Flows, harness.FlowSpec{
				RTTMs:        f.RTTMs,
				Workload:     w,
				NewAlgorithm: alg,
				Path:         path,
				ReversePath:  f.ReversePath,
			})
		}
	}
	return nil
}

// resolveLinkService resolves one link's service description — explicit
// trace > trace model > fixed rate — and the capacity estimate for
// rate-aware queues (explicit override, then the fixed rate, then the
// trace's long-term average).
func (s Spec) resolveLinkService(reg *Registry, label string, explicitTrace []sim.Time, model string, rateBps, xcpOverride float64, traceSeed int64) (trace []sim.Time, capacityBps float64, err error) {
	packetBytes := s.MTU
	if packetBytes <= 0 {
		packetBytes = netsim.MTU
	}
	switch {
	case len(explicitTrace) > 0:
		trace = explicitTrace
	case model != "" && model != "fixed":
		m, err := reg.LinkModel(model)
		if err != nil {
			return nil, 0, err
		}
		tr, err := m.Generate(s.Duration(), sim.NewRNG(traceSeed))
		if err != nil {
			return nil, 0, fmt.Errorf("scenario: %s model %q: %w", label, model, err)
		}
		trace = tr
		if m.PacketBytes > 0 {
			packetBytes = m.PacketBytes
		}
	}
	capacityBps = xcpOverride
	if capacityBps <= 0 && len(trace) == 0 {
		capacityBps = rateBps
	}
	if capacityBps <= 0 && len(trace) > 0 {
		capacityBps = traces.AverageRateBps(trace, packetBytes, s.Duration())
	}
	return trace, capacityBps, nil
}

// compileLinks materializes the spec's links — the Topology's, or the one
// bottleneck of a spec without one: per-link trace synthesis (decorrelated
// across links), queue-kind resolution (the link's own queue, else the
// spec-level one, with the kind the flows imply as the final fallback) and
// per-link capacity estimates for rate-aware queues.
func (s Spec) compileLinks(reg *Registry, runSeed int64, out *harness.Scenario) error {
	links := []TopoLinkSpec{{
		Name:           BottleneckLink,
		RateBps:        s.Link.RateBps,
		Model:          s.Link.Model,
		TraceLoop:      s.Link.TraceLoop,
		XCPCapacityBps: s.Link.XCPCapacityBps,
	}}
	explicitTrace := s.Link.Trace
	if t := s.Topology; t != nil {
		links, explicitTrace = t.Links, nil
		out.AckBytes = t.AckBytes
	}
	var faultsByLink map[string]*faults.Schedule
	if s.Faults != nil {
		faultsByLink = make(map[string]*faults.Schedule, len(s.Faults.Links))
		for i := range s.Faults.Links {
			lf := &s.Faults.Links[i]
			name := lf.Link
			if name == "" {
				// Validate allows an unnamed entry only without a Topology,
				// where it targets the bottleneck.
				name = BottleneckLink
			}
			faultsByLink[name] = &lf.Schedule
		}
	}
	defaultKind := ""
	for li, l := range links {
		trace, capacityBps, err := s.resolveLinkService(reg, fmt.Sprintf("spec %q link %q", s.Name, l.Name),
			explicitTrace, l.Model, l.RateBps, l.XCPCapacityBps,
			deriveLinkTraceSeed(runSeed, li))
		if err != nil {
			return err
		}
		// A link that declares no queue at all inherits the spec-level Queue
		// wholesale (kind and parameters); a kindless queue falls back to the
		// kind the spec's flows imply.
		queueSpec := l.Queue
		if queueSpec == (QueueSpec{}) {
			queueSpec = s.Queue
		}
		kind := queueSpec.Kind
		if kind == "" {
			if defaultKind == "" {
				k, err := s.QueueKindFor(reg)
				if err != nil {
					return err
				}
				defaultKind = k
			}
			kind = defaultKind
		}
		factory, err := reg.Queue(kind)
		if err != nil {
			return err
		}
		env := QueueEnv{CapacityBps: capacityBps}
		out.Links = append(out.Links, harness.LinkDef{
			Name:      l.Name,
			RateBps:   l.RateBps,
			Trace:     trace,
			TraceLoop: l.TraceLoop,
			DelayMs:   l.DelayMs,
			Faults:    faultsByLink[l.Name],
			NewQueue: func(engine *sim.Engine) (netsim.Queue, error) {
				e := env
				e.Engine = engine
				return factory(queueSpec, e)
			},
		})
	}
	return nil
}
