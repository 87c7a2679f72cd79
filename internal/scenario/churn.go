package scenario

import (
	"fmt"

	"repro/internal/cc"
	"repro/internal/harness"
	"repro/internal/netsim"
)

// ChurnClassSpec is the declarative form of one dynamically arriving flow
// class: an interarrival distribution (exponential = Poisson arrivals,
// constant = deterministic train), a flow-size distribution (ICSIDist for the
// paper's trace-fitted sizes), and the scheme/path every spawned flow uses.
type ChurnClassSpec struct {
	// Scheme names a registered protocol, exactly as in FlowSpec.
	Scheme string `json:"scheme"`
	// RemyCC is the rule-table JSON path for file-driven "remy" classes.
	RemyCC string `json:"remycc,omitempty"`
	// RateBps is the send rate for the unresponsive "cbr" scheme.
	RateBps float64 `json:"rate_bps,omitempty"`
	// RTTMs is the flows' two-way access propagation delay in milliseconds.
	RTTMs float64 `json:"rtt_ms"`
	// Interarrival is the distribution of gaps between arrivals, in seconds.
	Interarrival DistSpec `json:"interarrival"`
	// Size is the distribution of per-flow transfer sizes, in bytes.
	Size DistSpec `json:"size"`
	// MaxArrivals stops the class after that many arrivals (0 = unlimited).
	MaxArrivals int64 `json:"max_arrivals,omitempty"`
	// Path and ReversePath route spawned flows across the spec's Topology,
	// exactly as in FlowSpec. Required with a topology; forbidden without.
	Path        []string `json:"path,omitempty"`
	ReversePath []string `json:"reverse_path,omitempty"`

	// Algorithm, when set, overrides the registry lookup with a programmatic
	// constructor. Not part of the JSON form.
	Algorithm func() cc.Algorithm `json:"-"`
}

// flowSpec adapts the class to the FlowSpec shape protocol factories expect.
func (c ChurnClassSpec) flowSpec(mtu int) FlowSpec {
	return FlowSpec{Scheme: c.Scheme, RemyCC: c.RemyCC, RateBps: c.RateBps, specMTU: mtu}
}

// ChurnSpec is the declarative churn section of a Spec: the arriving flow
// classes plus the cap on the concurrently live population.
type ChurnSpec struct {
	// Classes lists the arriving flow classes.
	Classes []ChurnClassSpec `json:"classes"`
	// MaxLiveFlows caps the live churn population across all classes;
	// arrivals beyond the cap are rejected. 0 means the harness default
	// (harness.DefaultMaxLiveFlows).
	MaxLiveFlows int `json:"max_live_flows,omitempty"`
}

// validate reports structural errors in the churn section. Route validation
// against a topology happens in Spec.Validate, which knows the topology.
func (cs *ChurnSpec) validate(specName string) error {
	if len(cs.Classes) == 0 {
		return fmt.Errorf("scenario: spec %q churn section has no classes", specName)
	}
	if cs.MaxLiveFlows < 0 {
		return fmt.Errorf("scenario: spec %q churn has negative max_live_flows", specName)
	}
	for ci, c := range cs.Classes {
		if c.Scheme == "" && c.Algorithm == nil {
			return fmt.Errorf("scenario: spec %q churn class %d has no scheme", specName, ci)
		}
		if c.RTTMs < 0 {
			return fmt.Errorf("scenario: spec %q churn class %d has negative RTT", specName, ci)
		}
		if c.MaxArrivals < 0 {
			return fmt.Errorf("scenario: spec %q churn class %d has negative max_arrivals", specName, ci)
		}
		if err := c.Interarrival.Validate(); err != nil {
			return fmt.Errorf("scenario: spec %q churn class %d interarrival: %w", specName, ci, err)
		}
		if err := c.Size.Validate(); err != nil {
			return fmt.Errorf("scenario: spec %q churn class %d size: %w", specName, ci, err)
		}
	}
	return nil
}

// compileChurn resolves the churn section against the registry and appends
// the executable churn classes to the scenario.
func (s Spec) compileChurn(reg *Registry, out *harness.Scenario) error {
	if s.Churn == nil {
		return nil
	}
	out.MaxLiveFlows = s.Churn.MaxLiveFlows
	mtu := s.MTU
	if mtu <= 0 {
		mtu = netsim.MTU
	}
	for ci, c := range s.Churn.Classes {
		alg := c.Algorithm
		name := c.Scheme
		if alg == nil {
			p, err := reg.Protocol(c.flowSpec(mtu))
			if err != nil {
				return fmt.Errorf("scenario: spec %q churn class %d: %w", s.Name, ci, err)
			}
			alg = p.New
			name = p.Name
		}
		inter, err := c.Interarrival.Compile()
		if err != nil {
			return fmt.Errorf("scenario: spec %q churn class %d (%s) interarrival: %w", s.Name, ci, name, err)
		}
		size, err := c.Size.Compile()
		if err != nil {
			return fmt.Errorf("scenario: spec %q churn class %d (%s) size: %w", s.Name, ci, name, err)
		}
		path := c.Path
		if s.Topology == nil {
			path = bottleneckRoute
		}
		out.Churn = append(out.Churn, harness.ChurnClass{
			Interarrival: inter,
			Size:         size,
			MaxArrivals:  c.MaxArrivals,
			RTTMs:        c.RTTMs,
			NewAlgorithm: alg,
			Path:         path,
			ReversePath:  c.ReversePath,
		})
	}
	return nil
}

// WithChurn sets the spec's churn section.
func WithChurn(churn ChurnSpec) Option {
	return func(s *Spec) { s.Churn = &churn }
}
