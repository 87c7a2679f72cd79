package scenario

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// quickSpec returns a small dumbbell spec that simulates in well under a
// second per repetition.
func quickSpec(reps int) Spec {
	return New(
		WithName("quick"),
		WithLink(10e6),
		WithQueue(QueueDropTail, 500),
		WithDuration(5),
		WithSeed(11),
		WithRepetitions(reps),
		WithFlows(2, "newreno", 100, ByBytesWorkload(ExponentialDist(100e3), ExponentialDist(0.5))),
	)
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := quickSpec(6)
	var baseline []Result
	for _, workers := range []int{1, 3, 8} {
		results, err := Runner{Workers: workers}.RunOne(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != 6 {
			t.Fatalf("workers=%d: got %d results", workers, len(results))
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i := range results {
			if results[i].Rep != baseline[i].Rep || results[i].Seed != baseline[i].Seed {
				t.Fatalf("workers=%d rep %d: ordering or seed differs", workers, i)
			}
			if !reflect.DeepEqual(results[i].Throughput, baseline[i].Throughput) ||
				!reflect.DeepEqual(results[i].Delay, baseline[i].Delay) {
				t.Fatalf("workers=%d rep %d: summaries differ from 1-worker baseline", workers, i)
			}
			for fi := range results[i].Res.Flows {
				if results[i].Res.Flows[fi].Transport.PacketsSent != baseline[i].Res.Flows[fi].Transport.PacketsSent {
					t.Fatalf("workers=%d rep %d flow %d: packet counts differ", workers, i, fi)
				}
			}
		}
	}
	// Repetitions must actually differ from one another (different seeds).
	same := true
	for i := 1; i < len(baseline); i++ {
		if !reflect.DeepEqual(baseline[i].Throughput, baseline[0].Throughput) {
			same = false
		}
	}
	if same {
		t.Error("all repetitions produced identical summaries (seed derivation suspect)")
	}
}

func TestRunnerBatchOrderingAndNames(t *testing.T) {
	specs := []Spec{quickSpec(2), quickSpec(1)}
	specs[1].Name = "second"
	specs[1].Seed = 29
	results, err := Runner{Workers: 4}.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	wantOrder := []struct {
		idx, rep int
		name     string
	}{{0, 0, "quick"}, {0, 1, "quick"}, {1, 0, "second"}}
	for i, w := range wantOrder {
		r := results[i]
		if r.SpecIndex != w.idx || r.Rep != w.rep || r.SpecName != w.name {
			t.Errorf("result %d = (%d, %d, %q), want (%d, %d, %q)",
				i, r.SpecIndex, r.Rep, r.SpecName, w.idx, w.rep, w.name)
		}
	}
	if results[2].Seed != 29 {
		t.Error("rep 0 must run with the spec's base seed")
	}
}

func TestRunnerTraceModelDeterminism(t *testing.T) {
	spec := New(
		WithName("cellular"),
		WithLinkModel("verizon"),
		WithQueue(QueueDropTail, 500),
		WithDuration(5),
		WithSeed(5),
		WithRepetitions(2),
		WithFlows(2, "cubic", 50, ByBytesWorkload(ExponentialDist(100e3), ExponentialDist(0.5))),
	)
	a, err := Runner{Workers: 1}.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Runner{Workers: 2}.RunOne(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Throughput, b[i].Throughput) {
			t.Fatalf("rep %d: trace-driven runs differ across worker counts", i)
		}
	}
	// Different repetitions get different traces (and thus results).
	if reflect.DeepEqual(a[0].Throughput, a[1].Throughput) {
		t.Error("both repetitions saw identical results; per-rep trace derivation suspect")
	}
}

func TestRunnerErrors(t *testing.T) {
	bad := quickSpec(1)
	bad.Flows[0].Scheme = "unknown-scheme"
	if _, err := (Runner{}).RunOne(bad); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := (Runner{}).RunOne(Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	// XCP over a pure trace with no capacity estimate would error; with a
	// fixed-rate link the capacity estimate is implied.
	xcpSpec := quickSpec(1)
	xcpSpec.Flows[0].Scheme = "xcp"
	xcpSpec.Queue.Kind = ""
	if _, err := (Runner{}).RunOne(xcpSpec); err != nil {
		t.Errorf("xcp over fixed link: %v", err)
	}
}

func TestQueueKindDerivedFromProtocol(t *testing.T) {
	reg := Default()
	spec := quickSpec(1)
	spec.Queue.Kind = ""
	spec.Flows[0].Scheme = "dctcp"
	kind, err := spec.QueueKindFor(reg)
	if err != nil {
		t.Fatal(err)
	}
	if kind != QueueECN {
		t.Errorf("dctcp derived queue %q, want %q", kind, QueueECN)
	}
	// Conflicting implied kinds must error without an explicit override.
	spec.Flows = append(spec.Flows, FlowSpec{Scheme: "xcp", RTTMs: 100, Workload: spec.Flows[0].Workload})
	if _, err := spec.QueueKindFor(reg); err == nil {
		t.Error("conflicting implied queue kinds accepted")
	}
	spec.Queue.Kind = QueueDropTail
	if kind, err := spec.QueueKindFor(reg); err != nil || kind != QueueDropTail {
		t.Errorf("explicit queue kind not honored: %q, %v", kind, err)
	}
}

func TestCompileExpandsFlowCounts(t *testing.T) {
	spec := quickSpec(1)
	spec.Flows[0].Count = 5
	scn, seed, err := spec.Compile(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(scn.Flows) != 5 {
		t.Errorf("compiled %d flows, want 5", len(scn.Flows))
	}
	if seed != spec.Seed {
		t.Errorf("rep 0 seed = %d, want %d", seed, spec.Seed)
	}
	if len(scn.Links) != 1 || scn.Links[0].Name != BottleneckLink || scn.Links[0].NewQueue == nil {
		t.Fatalf("compiled links %+v, want one %q link with a queue factory", scn.Links, BottleneckLink)
	}
	for i, f := range scn.Flows {
		if len(f.Path) != 1 || f.Path[0] != BottleneckLink {
			t.Errorf("flow %d path %v, want [%s]", i, f.Path, BottleneckLink)
		}
	}
	q, err := scn.Links[0].NewQueue(sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	var _ netsim.Queue = q
}

func TestRunOneWithOnDeliverHook(t *testing.T) {
	count := 0
	spec := quickSpec(1)
	spec.OnDeliver = func(p *netsim.Packet, now sim.Time) { count++ }
	if _, err := (Runner{Workers: 1}).RunOne(spec); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("OnDeliver hook never fired")
	}
	// The hook would race across repetitions, so multi-rep specs reject it.
	spec.Repetitions = 2
	if spec.Validate() == nil {
		t.Error("OnDeliver with multiple repetitions accepted")
	}
}

func TestHasProtocol(t *testing.T) {
	reg := Default()
	if !reg.HasProtocol("cubic") || reg.HasProtocol("carrier-pigeon") {
		t.Error("HasProtocol")
	}
}

// TestStreamCancellation abandons a Stream after one result and verifies the
// producer and worker goroutines all exit instead of blocking on sends into
// the abandoned channel forever (the leak the campaign executor's
// interrupt/resume path depends on not having).
func TestStreamCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	// Plenty of repetitions so workers are guaranteed to still be producing
	// when the consumer walks away.
	ch := Runner{Workers: 4}.Stream(done, []Spec{quickSpec(32)})
	<-ch // take one result, then abandon the channel
	close(done)
	// Every goroutine the stream spawned must exit; poll because in-flight
	// simulations finish their current run before noticing the cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d before stream, %d now", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The channel must be closed (drained) eventually, not left open.
	for range ch {
	}
}

// TestStreamNilDoneDrainsToCompletion pins the done=nil form: a fully
// drained stream yields every repetition exactly once.
func TestStreamNilDoneDrainsToCompletion(t *testing.T) {
	seen := make(map[int]bool)
	for res := range (Runner{Workers: 3}).Stream(nil, []Spec{quickSpec(5)}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if seen[res.Rep] {
			t.Fatalf("repetition %d delivered twice", res.Rep)
		}
		seen[res.Rep] = true
	}
	if len(seen) != 5 {
		t.Fatalf("drained %d repetitions, want 5", len(seen))
	}
}
