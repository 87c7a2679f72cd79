package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// This file is the differential harness between the production calendar-queue
// Engine and the reference 4-ary-heap refEngine (reference_test.go). Both expose
// the identical queue contract, so a byte-decoded op program — schedules at
// equal timestamps, cancel storms that force slot reuse, reschedules,
// self-rearming events, resets, bounded runs — must produce byte-identical
// execution traces on both. FuzzEngineVsReference explores the op space;
// TestEngineVsReferenceQuick covers it with testing/quick on every plain
// `go test` (including the -race CI job, which also replays the fuzz seed
// corpus through the fuzz target).

// queueEngine is the surface shared by Engine and refEngine that the
// differential driver exercises.
type queueEngine interface {
	Now() Time
	Pending() int
	Executed() uint64
	Schedule(at Time, fn func(now Time)) EventID
	ScheduleAfter(delay Time, fn func(now Time)) EventID
	Reschedule(id EventID, at Time, fn func(now Time)) EventID
	Rearm(at Time) EventID
	Cancel(id EventID)
	Run(until Time)
	Step() bool
	Stop()
	Reset()
}

var (
	_ queueEngine = (*Engine)(nil)
	_ queueEngine = (*refEngine)(nil)
)

// diffFire is one trace entry: which logical event fired and at what clock.
type diffFire struct {
	seq int
	at  Time
}

// diffSide is one engine under differential test plus its driver-side state.
// Each side owns its ids, closures and child-event counter so callbacks never
// share mutable state across implementations.
type diffSide struct {
	e        queueEngine
	ids      []EventID
	trace    []diffFire
	childSeq int
}

// scheduleTraced registers a plain event that appends to the side's trace.
func (s *diffSide) scheduleTraced(at Time, seq int) {
	s.ids = append(s.ids, s.e.Schedule(at, func(now Time) {
		s.trace = append(s.trace, diffFire{seq: seq, at: now})
	}))
}

// scheduleStop registers an event that halts the current Run after tracing.
func (s *diffSide) scheduleStop(at Time, seq int) {
	s.ids = append(s.ids, s.e.Schedule(at, func(now Time) {
		s.trace = append(s.trace, diffFire{seq: seq, at: now})
		s.e.Stop()
	}))
}

// scheduleRearm registers an event that re-arms itself times-1 more times at
// the given period — the batched link-service pattern.
func (s *diffSide) scheduleRearm(at, period Time, seq, times int) {
	n := times
	s.ids = append(s.ids, s.e.Schedule(at, func(now Time) {
		s.trace = append(s.trace, diffFire{seq: seq, at: now})
		n--
		if n > 0 {
			s.e.Rearm(now + period)
		}
	}))
}

// scheduleSpawner registers an event that schedules a fresh child event from
// inside its callback (the in-callback Schedule path). Child seqs draw from a
// per-side counter offset far above the driver's op seqs; the counters advance
// in fire order, which is identical on both sides whenever the engines agree.
func (s *diffSide) scheduleSpawner(at, childDelay Time, seq int) {
	s.ids = append(s.ids, s.e.Schedule(at, func(now Time) {
		s.trace = append(s.trace, diffFire{seq: seq, at: now})
		child := s.childSeq
		s.childSeq++
		s.e.Schedule(now+childDelay, func(cnow Time) {
			s.trace = append(s.trace, diffFire{seq: child, at: cnow})
		})
	}))
}

// runEngineDiff decodes data as an op program, applies it in lockstep to the
// calendar-queue Engine and the reference heap engine, and reports the first
// divergence. fatalf is t.Errorf in tests so quick.Check can shrink, and a
// t.Fatalf-alike under the fuzzer.
func runEngineDiff(t *testing.T, data []byte) bool {
	t.Helper()
	prod := &diffSide{e: NewEngine(), childSeq: 1 << 30}
	ref := &diffSide{e: newRefEngine(), childSeq: 1 << 30}
	sides := [2]*diffSide{prod, ref}
	nextSeq := 0

	check := func(op int, what string) bool {
		if prod.e.Now() != ref.e.Now() {
			t.Errorf("op %d (%s): Now diverged: engine %d, reference %d", op, what, prod.e.Now(), ref.e.Now())
			return false
		}
		if prod.e.Executed() != ref.e.Executed() {
			t.Errorf("op %d (%s): Executed diverged: engine %d, reference %d", op, what, prod.e.Executed(), ref.e.Executed())
			return false
		}
		return true
	}

	for i := 0; i+2 < len(data); i += 3 {
		op := int(data[i]) % 10
		payload := Time(data[i+1])<<8 | Time(data[i+2])
		what := ""
		switch op {
		case 0: // near-future schedule
			what = "schedule"
			seq := nextSeq
			nextSeq++
			for _, s := range sides {
				s.scheduleTraced(s.e.Now()+payload%5000, seq)
			}
		case 1: // equal-timestamp burst: FIFO tiebreak on (at, seq)
			what = "equal-time burst"
			at := prod.e.Now() + payload%2000
			k := int(payload%7) + 2
			for j := 0; j < k; j++ {
				seq := nextSeq
				nextSeq++
				for _, s := range sides {
					s.scheduleTraced(at, seq)
				}
			}
		case 2: // far-future schedule: lands in the overflow rung
			what = "far schedule"
			seq := nextSeq
			nextSeq++
			for _, s := range sides {
				s.scheduleTraced(s.e.Now()+1_000_000+payload, seq)
			}
		case 3: // stop event
			what = "stop schedule"
			seq := nextSeq
			nextSeq++
			for _, s := range sides {
				s.scheduleStop(s.e.Now()+payload%5000, seq)
			}
		case 4: // cancel an arbitrary id, live, fired or already canceled
			what = "cancel"
			if len(prod.ids) > 0 {
				k := int(payload) % len(prod.ids)
				for _, s := range sides {
					s.e.Cancel(s.ids[k])
				}
			}
		case 5: // cancel storm: slot reuse and compaction pressure
			what = "cancel storm"
			for j := Time(0); j < 80; j++ {
				seq := nextSeq
				nextSeq++
				at := prod.e.Now() + 50_000 + j
				for _, s := range sides {
					s.scheduleTraced(at, seq)
					s.e.Cancel(s.ids[len(s.ids)-1])
				}
			}
		case 6: // reschedule an arbitrary id to a new time
			what = "reschedule"
			seq := nextSeq
			nextSeq++
			at := prod.e.Now() + payload%5000
			if len(prod.ids) > 0 {
				k := int(payload) % len(prod.ids)
				for _, s := range sides {
					s.ids[k] = s.e.Reschedule(s.ids[k], at, func(now Time) {
						s.trace = append(s.trace, diffFire{seq: seq, at: now})
					})
				}
			} else {
				for _, s := range sides {
					s.scheduleTraced(at, seq)
				}
			}
		case 7: // self-rearming event and an in-callback spawner
			what = "rearm+spawn"
			seq := nextSeq
			nextSeq += 2
			times := int(payload%5) + 1
			period := payload%900 + 1
			at := prod.e.Now() + payload%3000
			for _, s := range sides {
				s.scheduleRearm(at, period, seq, times)
				s.scheduleSpawner(at+1, period, seq+1)
			}
		case 8: // single step
			what = "step"
			if prod.e.Step() != ref.e.Step() {
				t.Errorf("op %d: Step return diverged", i)
				return false
			}
		case 9:
			if payload%11 == 0 { // reset: drop everything, ids go stale
				what = "reset"
				for _, s := range sides {
					s.e.Reset()
					s.ids = s.ids[:0]
				}
			} else { // bounded run
				what = "run"
				until := prod.e.Now() + payload%20_000
				for _, s := range sides {
					s.e.Run(until)
				}
			}
		}
		if !check(i, what) {
			return false
		}
	}

	// Drain both queues completely; Stop events can end a Run early.
	for prod.e.Pending() > 0 || ref.e.Pending() > 0 {
		horizon := Time(1) << 50
		prod.e.Run(horizon)
		ref.e.Run(horizon)
		if !check(len(data), "drain") {
			return false
		}
	}

	if len(prod.trace) != len(ref.trace) {
		t.Errorf("trace lengths diverged: engine %d, reference %d", len(prod.trace), len(ref.trace))
		return false
	}
	for i := range prod.trace {
		if prod.trace[i] != ref.trace[i] {
			t.Errorf("trace diverged at %d: engine %+v, reference %+v", i, prod.trace[i], ref.trace[i])
			return false
		}
	}
	return true
}

// engineDiffSeeds are the hand-written fuzz seeds: each encodes a program
// that hits a queue edge the calendar structure must get right.
func engineDiffSeeds() [][]byte {
	ops := func(triples ...[3]byte) []byte {
		var out []byte
		for _, t := range triples {
			out = append(out, t[0], t[1], t[2])
		}
		return out
	}
	seeds := [][]byte{
		// Equal-timestamp storm then run: FIFO within a bucket.
		ops([3]byte{1, 0, 100}, [3]byte{1, 0, 100}, [3]byte{9, 1, 0}),
		// Cancel storm forcing slot reuse, then fresh schedules on reused slots.
		ops([3]byte{5, 0, 0}, [3]byte{0, 0, 50}, [3]byte{5, 0, 0}, [3]byte{9, 3, 0}),
		// Far-future events (overflow rung) mixed with near ones, partial run.
		ops([3]byte{2, 10, 0}, [3]byte{0, 0, 10}, [3]byte{9, 0, 99}, [3]byte{2, 0, 1}, [3]byte{9, 255, 255}),
		// Reschedule churn across both rungs.
		ops([3]byte{0, 1, 0}, [3]byte{2, 0, 0}, [3]byte{6, 0, 7}, [3]byte{6, 0, 3}, [3]byte{9, 4, 1}),
		// Rearm chains (link-service pattern) interleaved with stop events.
		ops([3]byte{7, 2, 200}, [3]byte{3, 0, 30}, [3]byte{9, 8, 8}, [3]byte{7, 1, 9}),
		// Reset mid-stream, then rebuild from empty.
		ops([3]byte{0, 0, 5}, [3]byte{9, 0, 0}, [3]byte{0, 0, 5}, [3]byte{1, 0, 1}, [3]byte{9, 0, 77}),
		// Step-by-step execution with interleaved cancels.
		ops([3]byte{1, 0, 3}, [3]byte{8, 0, 0}, [3]byte{4, 0, 1}, [3]byte{8, 0, 0}, [3]byte{8, 0, 0}),
	}
	return append(seeds, splitPrograms(1)...)
}

// splitPrograms returns the three programs that drive the calendar's split
// triggers (splitMin is 16), each overfilling a bucket several times over:
// a drifting cluster, an equal-timestamp storm and overflow timers pulled
// across the horizon. scale multiplies their event counts; the seeds use
// scale 1, and the committed corpus in testdata/fuzz/FuzzEngineVsReference
// holds the scale-2 programs. Each starts from a calendar tuned coarse — two
// events 5 ms apart, one of them stepped — so the dense events that follow
// land in one bucket until a split re-tunes the width.
func splitPrograms(scale int) [][]byte {
	coarse := []byte{0, 0, 1, 0, 19, 135, 8, 0, 0}
	// A drifting cluster larger than the bound: near-future events at
	// distinct times, then rearm chains and spawners stepped one event at a
	// time so the cluster moves while inserts keep landing in the head.
	drift := slices.Clone(coarse)
	for i := 0; i < 48*scale; i++ {
		drift = append(drift, 0, byte(i/85), byte(3*i+1))
	}
	for i := 0; i < 8*scale; i++ {
		drift = append(drift, 7, 0, byte(40+i), 8, 0, 0, 0, 0, byte(200-i))
	}
	drift = append(drift, 9, 4, 1)
	// An equal-timestamp storm larger than the bound, which cannot be split:
	// bursts of 8 events at now+104 (104%7 == 6), then distinct times around
	// it in the same bucket, stepped and run.
	storm := slices.Clone(coarse)
	for i := 0; i < 4*scale; i++ {
		storm = append(storm, 1, 0, 104)
	}
	for i := 0; i < 24*scale; i++ {
		storm = append(storm, 0, 0, byte(96+i), 8, 0, 0)
	}
	storm = append(storm, 1, 0, 104, 9, 1, 0)
	// Overflow timers rescheduled across the horizon while the calendar
	// splits: timers beyond the coarse horizon (ids 2 on), a cluster that
	// splits the head bucket, then each timer pulled into the head region
	// (payload k: id k, at now+k) between steps.
	n := 24 * scale
	timers := slices.Clone(coarse)
	for i := 0; i < n; i++ {
		timers = append(timers, 2, 255, byte(i))
	}
	for i := 0; i < 40*scale; i++ {
		timers = append(timers, 0, byte(i/51), byte(5*i+2))
	}
	for k := 2; k < n+2; k++ {
		timers = append(timers, 6, 0, byte(k), 8, 0, 0)
	}
	timers = append(timers, 9, 78, 32)
	return [][]byte{drift, storm, timers}
}

// FuzzEngineVsReference fuzzes byte-decoded op programs through both queue
// implementations and fails on any trace, clock or count divergence. The CI
// fuzz-smoke job runs this for a bounded wall-clock budget on every push;
// `go test` (and the -race job) replays the seed corpus.
func FuzzEngineVsReference(f *testing.F) {
	for _, s := range engineDiffSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !runEngineDiff(t, data) {
			t.Fatalf("engine diverged from reference (input %d bytes: %x)", len(data), data)
		}
	})
}

// TestEngineVsReferenceQuick drives the same differential harness from
// testing/quick so plain `go test` explores random programs even when the
// fuzzer is not running.
func TestEngineVsReferenceQuick(t *testing.T) {
	f := func(data []byte) bool {
		return runEngineDiff(t, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEngineVsReferenceSeeds replays the curated fuzz seeds as ordinary
// subtests, so a seed regression points at the exact program.
func TestEngineVsReferenceSeeds(t *testing.T) {
	for i, s := range engineDiffSeeds() {
		t.Run(fmt.Sprintf("seed%d", i), func(t *testing.T) {
			if !runEngineDiff(t, s) {
				t.Fatalf("seed %d diverged", i)
			}
		})
	}
}
