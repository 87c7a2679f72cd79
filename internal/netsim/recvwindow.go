package netsim

import "math/bits"

// recvWindow tracks the out-of-order sequence numbers a receiver holds above
// its cumulative ack. It replaces a map[int64]bool on the per-packet receive
// path: the live sequence numbers all sit within one reorder window, so a
// power-of-two ring of bit words indexed by seq>>6 answers has/set with a
// mask instead of a hash, and advancing the cumulative ack over a
// now-contiguous prefix consumes 64 sequence numbers per word operation
// instead of one map lookup and delete each.
//
// Invariants: every set bit's sequence number lies in [lo, hi]; the word
// span (hi>>6)-(lo>>6)+1 never exceeds len(words), so no two distinct live
// words share a ring slot; and every ring slot outside the live word range
// is zero, which lets the bounds extend over fresh territory without
// clearing.
type recvWindow struct {
	words []uint64 // power-of-two ring; bit seq&63 of words[(seq>>6)&mask]
	lo    int64    // inclusive: no set bit below lo
	hi    int64    // inclusive: no set bit above hi
	count int      // set bits
}

// recvWindowMinWords is the initial ring size: 4 words cover a 256-packet
// reorder window, comfortably past a typical in-flight window.
const recvWindowMinWords = 4

// empty reports whether no out-of-order sequence numbers are held.
func (w *recvWindow) empty() bool { return w.count == 0 }

// has reports whether seq is held.
func (w *recvWindow) has(seq int64) bool {
	if w.count == 0 || seq < w.lo || seq > w.hi {
		return false
	}
	return w.words[int(seq>>6)&(len(w.words)-1)]&(1<<(uint(seq)&63)) != 0
}

// set records seq as received.
func (w *recvWindow) set(seq int64) {
	if w.count == 0 {
		if len(w.words) == 0 {
			w.words = make([]uint64, recvWindowMinWords)
		}
		w.lo, w.hi = seq, seq
	} else {
		lo, hi := w.lo, w.hi
		if seq < lo {
			lo = seq
		}
		if seq > hi {
			hi = seq
		}
		if span := (hi >> 6) - (lo >> 6) + 1; span > int64(len(w.words)) {
			w.grow(span)
		}
		w.lo, w.hi = lo, hi
	}
	bit := uint64(1) << (uint(seq) & 63)
	word := &w.words[int(seq>>6)&(len(w.words)-1)]
	if *word&bit == 0 {
		*word |= bit
		w.count++
	}
}

// advanceFrom consumes the contiguous run of set bits starting at seq and
// returns the first sequence number not held — the new cumulative ack. Runs
// spanning whole words consume 64 sequence numbers per step.
func (w *recvWindow) advanceFrom(seq int64) int64 {
	if w.count == 0 || seq < w.lo {
		// Nothing is held at seq. Reading its ring slot would be wrong when
		// seq lies outside the live word range: the slot may alias a live
		// word far above seq.
		return seq
	}
	for w.count > 0 {
		word := &w.words[int(seq>>6)&(len(w.words)-1)]
		off := uint(seq) & 63
		run := bits.TrailingZeros64(^(*word >> off))
		if run == 0 {
			break
		}
		var m uint64
		if run >= 64 {
			m = ^uint64(0)
		} else {
			m = (uint64(1)<<run - 1) << off
		}
		*word &^= m
		w.count -= run
		seq += int64(run)
		if int(off)+run < 64 {
			break // stopped at a clear bit inside this word
		}
	}
	w.lo = seq
	if w.count == 0 {
		w.hi = seq
	} else if w.hi < w.lo {
		w.hi = w.lo
	}
	return seq
}

// clearAll discards every held sequence number but keeps the ring's
// capacity, so a pooled receiver's next connection starts allocation-free.
func (w *recvWindow) clearAll() {
	if w.count != 0 {
		clear(w.words)
		w.count = 0
	}
	w.lo, w.hi = 0, 0
}

// grow reindexes the live words into a ring large enough for span words.
func (w *recvWindow) grow(span int64) {
	n := len(w.words) * 2
	if n == 0 {
		n = recvWindowMinWords
	}
	for int64(n) < span {
		n *= 2
	}
	words := make([]uint64, n)
	oldMask := len(w.words) - 1
	mask := n - 1
	for wd := w.lo >> 6; wd <= w.hi>>6; wd++ {
		words[int(wd)&mask] = w.words[int(wd)&oldMask]
	}
	w.words = words
}
