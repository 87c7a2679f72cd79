package sim

import "testing"

// The stated bounds, derived from the width heuristic's target of perBucket
// events per bucket rather than read from the engine's constants, so a
// regression in those constants fails here. headBound is the occupancy a
// bucket may reach before it is split. retainBound is the capacity an
// emptied bucket may keep. footprintBound is the ceiling on retained bucket
// storage in entries per peak pending event: the calendar never grows past
// the next power of two above the events it is tuned for (under twice the
// peak pending count), and each bucket keeps at most retainBound entries.
const (
	headBound      = 4 * perBucket
	retainBound    = 2 * headBound
	footprintBound = 2 * retainBound
)

// headDistinct returns the number of distinct timestamps among the queued
// entries of the head bucket, readying it first.
func headDistinct(e *Engine) int {
	if e.first() < 0 {
		return 0
	}
	bk := e.buckets[e.cur][e.curHead:]
	n := 1
	for i := 1; i < len(bk); i++ {
		if bk[i].at != bk[i-1].at {
			n++
		}
	}
	return n
}

// TestEngineFootprintBounded drives a dense cluster of self-rescheduling
// events that drifts across the calendar, plus far-future timers that every
// cluster event Reschedules (the per-ACK RTO pattern, which keeps the
// overflow rung's span wide), through several Reset cycles of different
// density. The head bucket must never hold more than headBound distinct
// times — a width tuned to the timers' span rather than the cluster's
// spacing turns it into a sorted array. After each Reset no bucket may keep
// more than retainBound entries of capacity, and all of them together no
// more than footprintBound per peak pending event, instead of growing with
// every cluster any bucket has ever held.
func TestEngineFootprintBounded(t *testing.T) {
	e := NewEngine()
	rng := NewRNG(11)
	peak := 0
	for cycle := 0; cycle < 4; cycle++ {
		cluster := 40 + 25*cycle
		spread := Time(2_000) << (2 * cycle)
		timers := make([]EventID, 64)
		for k := range timers {
			timers[k] = e.Schedule(50*Millisecond+Time(k), func(Time) {})
		}
		fired := 0
		var hop func(now Time)
		hop = func(now Time) {
			e.Schedule(now+1+rng.UniformTime(0, spread), hop)
			k := fired % len(timers)
			timers[k] = e.Reschedule(timers[k], now+50*Millisecond+Time(k), func(Time) {})
			fired++
		}
		for i := 0; i < cluster; i++ {
			e.Schedule(rng.UniformTime(0, spread), hop)
		}
		for step := 0; step < 20_000; step++ {
			if !e.Step() {
				t.Fatalf("cycle %d: queue drained at step %d", cycle, step)
			}
			if d := headDistinct(e); d > headBound {
				t.Fatalf("cycle %d step %d: head bucket holds %d distinct times, bound %d (width %d)",
					cycle, step, d, headBound, e.width)
			}
		}
		peak = max(peak, e.PeakPending())
		if got := e.PeakPending(); got < cluster+len(timers) {
			t.Fatalf("cycle %d: PeakPending = %d, want at least %d", cycle, got, cluster+len(timers))
		}
		e.Reset()
		if e.PeakPending() != 0 {
			t.Fatalf("cycle %d: PeakPending = %d after Reset, want 0", cycle, e.PeakPending())
		}
		for b, bk := range e.buckets {
			if cap(bk) > retainBound {
				t.Fatalf("cycle %d: emptied bucket %d retains %d entries of capacity, bound %d",
					cycle, b, cap(bk), retainBound)
			}
		}
		if fp := e.Footprint(); fp > footprintBound*peak {
			t.Fatalf("cycle %d: buckets retain %d entries, bound %d × peak pending %d = %d",
				cycle, fp, footprintBound, peak, footprintBound*peak)
		}
	}
}
