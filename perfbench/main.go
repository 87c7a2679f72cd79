// Command perfbench is the repository's same-host benchmark. It runs one of
// three closed-loop batch workloads (train, churn_campaign, paper_eval)
// through the repository's public Go APIs, repeating the workload's fixed
// job for a given number of seconds, checks every op's output, and prints
// one JSON result line: the end-to-end metrics on an untraced run, the
// per-layer metrics on a traced one (--trace 1). Time metrics are divided by
// a host speed index measured next to each job (refwork.go). See README.md.
//
//	go run . --workload train --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"
)

// setupReps is how many times a run performs its workload's set-up;
// setup_s is the median.
const setupReps = 51

type options struct {
	workload string
	seed     int64
	seedSet  bool
	seconds  float64
	trace    bool
	inputs   string
	state    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	w, err := lookupWorkload(opts.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(w, opts, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := writeJSONLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: train, churn_campaign or paper_eval")
	fs.Int64Var(&o.seed, "seed", 0, "workload seed (default: the manifest's default_seed)")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to repeat the job, in seconds (at least one job always runs)")
	fs.IntVar(&trace, "trace", 0, "1 for a traced run that prints the per-layer metrics")
	fs.StringVar(&o.inputs, "inputs", "inputs", "directory holding manifest.json and the pinned inputs")
	fs.StringVar(&o.state, "state", "", "directory for per-seed reference digests shared by runs (empty: this run only)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	fs.Visit(func(f *flag.Flag) { o.seedSet = o.seedSet || f.Name == "seed" })
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	abs, err := filepath.Abs(o.inputs)
	if err != nil {
		return o, err
	}
	o.inputs = abs
	return o, nil
}

// runRecord is the line printed before the result: where and how the
// numbers were measured.
type runRecord struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Trace     bool           `json:"trace"`
	Host      hostRecord     `json:"host"`
	Workers   map[string]int `json:"workers"`
	Jobs      int            `json:"jobs"`
	TracedJob int            `json:"traced_jobs,omitempty"`
	SetupReps int            `json:"setup_reps"`
	// RefS is the run's median reference time (see refwork.go), and Raw
	// the untraced time metrics in host seconds, before they are divided
	// by the host speed index.
	RefS  float64            `json:"ref_s"`
	Raw   map[string]float64 `json:"raw,omitempty"`
	Notes []string           `json:"notes,omitempty"`
}

func bench(w workload, opts options, stdout, stderr io.Writer) (result, error) {
	man, err := readManifest(opts.inputs)
	if err != nil {
		return result{}, err
	}
	if !opts.seedSet {
		opts.seed = man.DefaultSeed
	}
	// Every worker pool and GOMAXPROCS is nproc: the repository's pools
	// default to NumCPU-1, which leaves a core idle on a 2-core host.
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	e := env{inputs: opts.inputs, man: man, seed: opts.seed, workers: workers}
	rec := runRecord{
		Workload: w.name, Seed: opts.seed, Trace: opts.trace, Host: host(),
		Workers:   map[string]int{"gomaxprocs": workers, "pools": workers},
		SetupReps: setupReps,
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}

	meter := newRefMeter(workers)
	refSetup := meter.seconds()
	var setupS []float64
	var j job
	for i := 0; i < setupReps; i++ {
		runtime.GC() // so no set-up pays for another's garbage
		t0 := time.Now()
		j, err = w.setup(e)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up failed, every op fails: %v\n", w.name, err)
			rec.Notes = append(rec.Notes, "set-up failed: "+err.Error())
			if err := writeJSONLine(stdout, rec); err != nil {
				return result{}, err
			}
			return newResult(defs, map[string]float64{"setup_s": refNominalS * ratio(median(setupS), refSetup)}, w.opsPerJob, w.opsPerJob), nil
		}
	}

	refPrev := meter.seconds()
	refSetup = refAround(refSetup, refPrev)

	book, err := openDigestBook(digestBookPath(opts, w))
	if err != nil {
		return result{}, err
	}
	var plain, traced []jobStats
	var profiles [][]byte
	var traces []*trace
	attempted, failed := 0, 0
	start := time.Now()
	for n := 0; ; n++ {
		enough := len(plain) > 0 && (!opts.trace || len(traced) > 0)
		if enough && time.Since(start).Seconds() >= opts.seconds {
			break
		}
		var tr *trace
		var prof bytes.Buffer
		if opts.trace && n%2 == 1 {
			tr = newTrace()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return result{}, err
			}
		}
		var ops []opResult
		st := measure(func() { ops = j.run(tr) })
		if tr != nil {
			pprof.StopCPUProfile()
		}
		refNext := meter.seconds()
		st.refS = refAround(refPrev, refNext)
		refPrev = refNext
		if tr != nil {
			profiles = append(profiles, prof.Bytes())
			tr.set("runtime.gc_cpu_share", st.gcCPUShare)
			ops = append(ops, j.replay(tr)...)
			traced = append(traced, st)
			traces = append(traces, tr)
		} else {
			plain = append(plain, st)
		}
		errs := book.check(ops)
		attempted += len(ops)
		failed += len(errs)
		for _, err := range errs {
			fmt.Fprintf(stderr, "perfbench: job %d: failed op %v\n", n, err)
		}
		fmt.Fprintf(stderr, "perfbench: %s job %d traced=%t wall %.3fs cpu %.3fs ref %.4fs peak heap %.1f MB ops %d failed %d\n",
			w.name, n, tr != nil, st.wallS, st.cpuS, st.refS, st.peakHeapMB, len(ops), len(errs))
	}
	if err := book.save(); err != nil {
		return result{}, err
	}
	rec.Jobs = len(plain) + len(traced)
	rec.TracedJob = len(traced)
	rec.RefS = median(pick(append(plain, traced...), refOf))

	values := map[string]float64{}
	if opts.trace {
		if err := tracedValues(values, w, traces, profiles, plain, traced, &rec); err != nil {
			return result{}, err
		}
	} else {
		refs := pick(plain, refOf)
		values["setup_s"] = refNominalS * ratio(median(setupS), refSetup)
		values["wall_s"] = normalized(pick(plain, wallOf), refs)
		values["cpu_s"] = normalized(pick(plain, cpuOf), refs)
		rec.Raw = map[string]float64{
			"setup_s": median(setupS),
			"wall_s":  median(pick(plain, wallOf)),
			"cpu_s":   median(pick(plain, cpuOf)),
		}
		values["peak_heap_mb"] = median(pick(plain, func(s jobStats) float64 { return s.peakHeapMB }))
		score, err := j.score()
		if err != nil {
			attempted++
			failed++
			fmt.Fprintf(stderr, "perfbench: train_score: %v\n", err)
		}
		values["train_score"] = score
	}
	if err := writeJSONLine(stdout, rec); err != nil {
		return result{}, err
	}
	return newResult(defs, values, attempted, failed), nil
}

// tracedValues fills the per-layer metrics: the medians over traced jobs of
// what the workload measured, the profile's layer shares, and the tracing
// overhead.
func tracedValues(values map[string]float64, w workload, traces []*trace, profiles [][]byte,
	plain, traced []jobStats, rec *runRecord) error {
	for _, name := range append([]string{"runtime.gc_cpu_share"}, w.measured...) {
		var xs []float64
		for _, t := range traces {
			if v, ok := t.vals[name]; ok {
				xs = append(xs, v)
			}
		}
		values[name] = median(xs)
	}
	var samples []profSample
	for _, p := range profiles {
		s, err := parseProfile(p)
		if err != nil {
			return err
		}
		samples = append(samples, s...)
	}
	total := 0.0
	for layer, share := range shares(attribute(samples)) {
		if !slices.Contains(layers, layer) {
			rec.Notes = append(rec.Notes, fmt.Sprintf("profile attributes %.2f%% to layer %q, which has no metric", share, layer))
		}
		values[layer+".self_share"] = share
		total += share
	}
	rec.Notes = append(rec.Notes, fmt.Sprintf("self_share values sum to %.2f%% over %d profile samples", total, len(samples)))
	values["trace_overhead"] = ratio(normalized(pick(traced, wallOf), pick(traced, refOf)),
		normalized(pick(plain, wallOf), pick(plain, refOf)))

	reached := map[string]bool{"runtime.gc_cpu_share": true, "trace_overhead": true}
	for _, name := range w.measured {
		reached[name] = true
	}
	var unreached []string
	for _, d := range perLayer {
		if !reached[d.name] && !strings.HasSuffix(d.name, ".self_share") {
			unreached = append(unreached, d.name)
		}
	}
	if len(unreached) > 0 {
		rec.Notes = append(rec.Notes, fmt.Sprintf(
			"%s does not measure these (the layer is idle on it, or sits below Session.Run where only the profile sees it); they read 0: %v",
			w.name, unreached))
	}
	return nil
}

func wallOf(s jobStats) float64 { return s.wallS }
func cpuOf(s jobStats) float64  { return s.cpuS }
func refOf(s jobStats) float64  { return s.refS }

func pick(xs []jobStats, f func(jobStats) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// digestBookPath names the reference digests for this workload, seed and
// binary: outputs may legitimately change with the code, so references
// never cross binaries.
func digestBookPath(opts options, w workload) string {
	if opts.state == "" {
		return ""
	}
	exe, err := os.Executable()
	if err != nil {
		return ""
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return ""
	}
	return filepath.Join(opts.state, fmt.Sprintf("digests-%s-seed%d-%.16s.json", w.name, opts.seed, sha256Hex(data)))
}
