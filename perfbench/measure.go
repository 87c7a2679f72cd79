package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// jobStats is what one execution of a workload's fixed job cost the host.
type jobStats struct {
	wallS, cpuS, peakHeapMB float64
	// refS is the reference time around the job (see refwork.go).
	refS float64
	// gcCPUShare is the GC's share of the process CPU time, in percent.
	gcCPUShare float64
}

// heapPollInterval is how often the peak-heap sampler reads the heap size.
const heapPollInterval = 2 * time.Millisecond

// measure runs fn once and reports its wall time, the process CPU time it
// consumed, and the peak Go heap in use while it ran. The heap is collected
// first, so garbage from earlier jobs does not count against this one.
func measure(fn func()) jobStats {
	runtime.GC()
	gc0 := readCPUClasses()
	cpu0 := processCPUSeconds()
	stop := make(chan struct{})
	peak := make(chan uint64)
	go samplePeakHeap(stop, peak)
	t0 := time.Now()
	fn()
	wall := time.Since(t0).Seconds()
	close(stop)
	peakBytes := <-peak
	cpu := processCPUSeconds() - cpu0
	gc1 := readCPUClasses()
	return jobStats{
		wallS:      wall,
		cpuS:       cpu,
		peakHeapMB: float64(peakBytes) / (1 << 20),
		gcCPUShare: 100 * ratio(gc1[0]-gc0[0], gc1[1]-gc0[1]),
	}
}

// samplePeakHeap polls the bytes of live-or-unswept heap objects until stop
// closes, then sends the largest value seen.
func samplePeakHeap(stop <-chan struct{}, peak chan<- uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var best uint64
	read := func() {
		metrics.Read(s)
		best = max(best, s[0].Value.Uint64())
	}
	read()
	t := time.NewTicker(heapPollInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			read()
		case <-stop:
			read()
			peak <- best
			return
		}
	}
}

// readCPUClasses returns the runtime's estimate of GC CPU seconds and of
// all CPU seconds available to the process so far.
func readCPUClasses() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// processCPUSeconds returns the process's user plus system CPU time.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// hostRecord fingerprints the machine a result was measured on; results
// compare only within one fingerprint.
type hostRecord struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func host() hostRecord {
	return hostRecord{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
