package netsim

import (
	"math/rand"
	"testing"
)

// TestRecvWindowVsMap drives recvWindow and the map[int64]bool it replaced
// through the same randomized receive pattern — in-order delivery, bursts of
// reordering, duplicates, and connection restarts — and requires identical
// contents and identical cumulative-ack advances after every step.
func TestRecvWindowVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var w recvWindow
	ref := map[int64]bool{}

	refAdvance := func(cum int64) int64 {
		for ref[cum] {
			delete(ref, cum)
			cum++
		}
		return cum
	}
	check := func(step int, cumAck, top int64) {
		t.Helper()
		if w.count != len(ref) {
			t.Fatalf("step %d: count=%d, map has %d", step, w.count, len(ref))
		}
		if w.empty() != (len(ref) == 0) {
			t.Fatalf("step %d: empty=%v, map len %d", step, w.empty(), len(ref))
		}
		for seq := range ref {
			if !w.has(seq) {
				t.Fatalf("step %d: has(%d)=false, map holds it", step, seq)
			}
		}
		for i := 0; i < 16; i++ {
			seq := cumAck + rng.Int63n(top-cumAck+8)
			if w.has(seq) != ref[seq] {
				t.Fatalf("step %d: has(%d)=%v, map says %v", step, seq, w.has(seq), ref[seq])
			}
		}
	}

	var cumAck int64
	top := int64(1) // exclusive upper bound of sequence numbers in flight
	for step := 0; step < 30000; step++ {
		if top <= cumAck {
			top = cumAck + 1
		}
		switch op := rng.Intn(10); {
		case op < 6: // a packet arrives somewhere in the window
			seq := cumAck + rng.Int63n(top-cumAck)
			if seq == cumAck && w.empty() {
				cumAck++
				refAdvance(cumAck) // no-op; keeps the shapes aligned
			} else if seq >= cumAck && !w.has(seq) {
				w.set(seq)
				ref[seq] = true
				got := w.advanceFrom(cumAck)
				want := refAdvance(cumAck)
				if got != want {
					t.Fatalf("step %d: advanceFrom(%d)=%d, map gives %d", step, cumAck, got, want)
				}
				cumAck = got
			}
			if seq >= top-1 {
				top = seq + 1 + rng.Int63n(64) // window slides on
			}
		case op < 7: // a long reorder burst lands far ahead
			seq := cumAck + 1 + rng.Int63n(600)
			if !w.has(seq) {
				w.set(seq)
				ref[seq] = true
			}
			if seq >= top {
				top = seq + 1
			}
		default: // duplicate of something already held
			if len(ref) > 0 {
				for seq := range ref {
					if w.has(seq) != true {
						t.Fatalf("step %d: duplicate probe has(%d)=false", step, seq)
					}
					break
				}
			}
		}
		if rng.Intn(997) == 0 { // connection restart
			w.clearAll()
			clear(ref)
			cumAck, top = 0, 1
		}
		check(step, cumAck, top)
	}
}

// TestRecvWindowWordRuns pins the word-at-a-time advance: a fully
// contiguous block of hundreds of sequence numbers collapses in one call.
func TestRecvWindowWordRuns(t *testing.T) {
	var w recvWindow
	const n = 500
	for seq := int64(1); seq <= n; seq++ { // leave 0 missing
		w.set(seq)
	}
	if got := w.advanceFrom(0); got != 0 {
		t.Fatalf("advanceFrom(0)=%d with seq 0 missing, want 0", got)
	}
	w.set(0)
	if got := w.advanceFrom(0); got != n+1 {
		t.Fatalf("advanceFrom(0)=%d, want %d", got, n+1)
	}
	if !w.empty() {
		t.Fatalf("window not empty after full advance: count=%d", w.count)
	}
}

// TestReceiverCumAckVsSetModel drives two Receivers — a fresh one and one
// whose window ring was grown by an earlier connection — through the same
// randomized delivery pattern of reordering, loss and far-ahead bursts, and
// requires both to report the cumulative ack a plain set of received
// sequence numbers gives after every packet. A packet landing 256 or more
// sequence numbers above the cumulative ack aliases a slot of the fresh
// 4-word ring, so a window that reads the slot of a sequence number below
// its lowest held bit acknowledges data it never received.
func TestReceiverCumAckVsSetModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		fresh := NewReceiver(0)
		grown := NewReceiver(0)
		for seq := int64(1); seq <= 4096; seq++ { // seq 0 missing: the ring grows
			grown.Receive(&Packet{Seq: seq}, 0)
		}
		grown.Reset()

		held := map[int64]bool{}
		var cum int64
		for step := 0; step < 20000; step++ {
			var seq int64
			switch op := rng.Intn(10); {
			case op < 3: // the next in-order packet (a retransmission, say)
				seq = cum
			case op < 8: // reordered within a typical window
				seq = cum + rng.Int63n(64)
			default: // a packet far ahead of a lost stretch
				seq = cum + 200 + rng.Int63n(400)
			}
			held[seq] = true
			for held[cum] {
				cum++
			}
			for _, r := range []*Receiver{fresh, grown} {
				if got := r.Receive(&Packet{Seq: seq}, 0).CumAck; got != cum {
					name := "fresh"
					if r == grown {
						name = "grown"
					}
					t.Fatalf("seed %d step %d: %s receiver acked %d after seq %d, received set gives %d",
						seed, step, name, got, seq, cum)
				}
			}
		}
	}
}
