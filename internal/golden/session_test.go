package golden

import (
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/scenario"
)

// sessionCase is one input of the warm-vs-fresh differential: a spec and the
// repetition whose compiled scenario and seed the session replays.
type sessionCase struct {
	name string
	spec scenario.Spec
	rep  int
}

// sessionCases returns every scheme on every golden topology at repetition 0,
// plus regression inputs whose warm runs once diverged from fresh ones.
func sessionCases() []sessionCase {
	var cases []sessionCase
	for _, set := range DefaultScenarios() {
		for _, c := range set.schemes {
			cases = append(cases, sessionCase{name: set.Name + "/" + c.scheme, spec: set.build(c)})
		}
	}
	// Figure 4's shape with XCP: at repetition 13 a receiver sees a packet
	// 256 sequence numbers above its cumulative ack, which a fresh receive
	// window (4 ring words) and one grown by an earlier run once answered
	// differently.
	cases = append(cases, sessionCase{
		name: "fig4-xcp/rep13",
		spec: scenario.New(
			scenario.WithName("fig4-xcp"),
			scenario.WithLink(15e6),
			scenario.WithQueue(scenario.QueueXCP, 1000),
			scenario.WithDuration(8),
			scenario.WithSeed(205),
			scenario.WithRepetitions(14),
			scenario.WithFlows(8, "xcp", 150, quickWorkload()),
		),
		rep: 13,
	})
	return cases
}

// TestSessionReuseMatchesFresh is the warm-start differential: for every
// scheme on every golden topology (dumbbell, cellular trace, stress,
// datacenter/ECN, parking lot, cross traffic, asymmetric reverse, flow
// churn), results from one reused harness.Session must be deeply equal to
// fresh harness.Run results at the same seeds — including a re-run of the
// first seed after the session has executed a different one, which catches
// any state leaking across runs. This is what licenses the campaign and
// optimizer layers to recycle engines and sessions across thousands of
// repetitions.
func TestSessionReuseMatchesFresh(t *testing.T) {
	for _, c := range sessionCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s, seed0, err := c.spec.Compile(nil, c.rep)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			seed1 := scenario.DeriveSeed(seed0, 1)

			fresh0, err := harness.Run(s, seed0)
			if err != nil {
				t.Fatalf("fresh run seed0: %v", err)
			}
			fresh1, err := harness.Run(s, seed1)
			if err != nil {
				t.Fatalf("fresh run seed1: %v", err)
			}

			ss, err := harness.NewSession(s)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			steps := []struct {
				name string
				seed int64
				want harness.Result
			}{
				{"cold", seed0, fresh0},
				{"warm-new-seed", seed1, fresh1},
				{"warm-replay", seed0, fresh0},
			}
			for _, step := range steps {
				got, err := ss.Run(step.seed)
				if err != nil {
					t.Fatalf("%s: session run: %v", step.name, err)
				}
				if !reflect.DeepEqual(got, step.want) {
					t.Errorf("%s (seed %d): session result diverges from fresh run\n got: %+v\nwant: %+v",
						step.name, step.seed, got, step.want)
				}
			}
		})
	}
}
