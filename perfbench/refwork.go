package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on changes speed by itself: on a shared
// 2-vCPU VM, the same job's CPU time moved between 1.6 s and 2.8 s over
// minutes while nothing else ran in the VM and no time was stolen. Every
// time metric is therefore divided by a host speed index measured right
// next to the job: the wall time of a fixed reference kernel, written here
// and independent of the repository's code, run on as many goroutines as
// the job's pools. A change to the program moves the job and not the
// kernel; a change of host speed moves both.
//
// refNominalS is the kernel's wall time at index 1. The time metrics read
// as seconds on a host where one reference measurement takes refNominalS,
// which is about what the 2-vCPU Xeon host the benchmark was built on took.
const refNominalS = 0.05

const (
	refHeapSize  = 8192    // pending events
	refStateSize = 1 << 16 // per-flow state words, 512 KiB
	refEvents    = 400_000 // events per goroutine
	// refRuns is how many kernel runs one measurement takes the median of.
	refRuns = 3
)

// refBuffers is one goroutine's kernel state.
type refBuffers struct {
	heap  []uint64
	state []float64
}

// refKernel is a small discrete-event loop shaped like the simulator's hot
// path: pop the earliest event from a binary heap, update a per-flow state
// word in a table larger than L1, push the event's successor. It returns a
// value that depends on every step, so no step can be optimised away.
func refKernel(b *refBuffers, seed uint64) float64 {
	if b.heap == nil {
		b.heap = make([]uint64, refHeapSize)
		b.state = make([]float64, refStateSize)
	}
	x := seed | 1
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := b.heap
	clear(b.state)
	for i := range h {
		h[i] = (next()%1_000_000)<<16 | uint64(i)
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	acc := 0.0
	for range refEvents {
		t, id := h[0]>>16, h[0]&0xffff
		k := (id*2654435761 + t) & (refStateSize - 1)
		b.state[k] = b.state[k]*0.875 + float64(t&1023)*0.125
		acc += b.state[k]
		h[0] = (t+1+next()%4096)<<16 | k
		siftDown(h, 0)
	}
	return acc
}

// siftDown restores the min-heap property below index i.
func siftDown(h []uint64, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// refMeter measures the host speed index.
type refMeter struct {
	workers int
	sink    float64
}

func newRefMeter(workers int) *refMeter {
	return &refMeter{workers: workers}
}

// seconds collects the heap, so the job before leaves no GC work behind,
// then runs refKernel refRuns times on every goroutine at once and returns
// the median wall time until the last goroutine finishes. The kernel's
// buffers are dropped again, so they never count in a job's peak heap.
func (m *refMeter) seconds() float64 {
	runtime.GC()
	bufs := make([]refBuffers, m.workers)
	out := make([]float64, m.workers)
	runs := make([]float64, refRuns)
	for i := range runs {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := range bufs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[w] = refKernel(&bufs[w], uint64(w+1))
			}()
		}
		wg.Wait()
		runs[i] = time.Since(t0).Seconds()
		m.sink += sum(out)
	}
	return median(runs)
}

// refAround is the reference time that stands for an interval measured
// between two reference measurements: their geometric mean.
func refAround(before, after float64) float64 {
	return math.Sqrt(before * after)
}

// normalized returns refNominalS × median over i of xs[i]/refs[i]: the
// seconds of xs on a host of index 1.
func normalized(xs, refs []float64) float64 {
	r := make([]float64, len(xs))
	for i := range xs {
		r[i] = refNominalS * ratio(xs[i], refs[i])
	}
	return median(r)
}
