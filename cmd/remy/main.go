// Command remy runs the offline Remy design procedure: given a network model
// (prior assumptions), a traffic model, and an objective function, it
// searches for a RemyCC rule table and writes it as JSON.
//
// Presets matching the paper's experiments are built in:
//
//	remy -preset delta0.1 -out assets/remycc_delta0.1.json
//	remy -preset dc -rounds 6 -budget 0.1 -out assets/remycc_dc.json
//
// Or specify the model by hand:
//
//	remy -senders 1:16 -rate 10e6:20e6 -rtt 100:200 -delta 1 -out my.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func parsePair(s string) (float64, float64, error) {
	parts := strings.SplitN(s, ":", 2)
	lo, err := strconv.ParseFloat(parts[0], 64)
	if err != nil {
		return 0, 0, err
	}
	hi := lo
	if len(parts) == 2 {
		hi, err = strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return 0, 0, err
		}
	}
	return lo, hi, nil
}

func presetSpec(name string, budget float64) (exp.TrainSpec, error) {
	switch name {
	case "delta0.1":
		return exp.GeneralPurposeTrainSpec(0.1, budget), nil
	case "delta1":
		return exp.GeneralPurposeTrainSpec(1, budget), nil
	case "delta10":
		return exp.GeneralPurposeTrainSpec(10, budget), nil
	case "1x":
		return exp.LinkSpeedTrainSpec(15e6, 15e6, budget), nil
	case "10x":
		return exp.LinkSpeedTrainSpec(4.7e6, 47e6, budget), nil
	case "dc":
		return exp.DatacenterTrainSpec(budget), nil
	case "compete":
		return exp.CompetingTrainSpec(budget), nil
	default:
		return exp.TrainSpec{}, fmt.Errorf("unknown preset %q", name)
	}
}

// benchEntry and benchOutput mirror cmd/bench2json's JSON schema, so a
// -bench-json file drops straight into the benchgate/CI tooling.
type benchEntry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type benchOutput struct {
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []benchEntry      `json:"benchmarks"`
}

func writeBenchJSON(path string, entries []benchEntry) error {
	out := benchOutput{
		Context: map[string]string{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"pkg":    "repro/cmd/remy",
			"cpu":    fmt.Sprintf("%d logical CPUs", runtime.NumCPU()),
		},
		Benchmarks: entries,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	log.SetFlags(0)
	preset := flag.String("preset", "", "built-in design model: delta0.1, delta1, delta10, 1x, 10x, dc, compete")
	out := flag.String("out", "remycc.json", "output path for the generated rule table")
	rounds := flag.Int("rounds", 6, "optimization rounds")
	budget := flag.Float64("budget", 0.05, "training budget scale in (0,1]; 1 reproduces the paper's per-evaluation budget")
	seed := flag.Int64("seed", 1, "random seed for the design run")
	workers := flag.Int("workers", 0, "concurrent simulations (0 = NumCPU-1)")
	rungs := flag.Int("rungs", 1, "geometric candidate ladder rungs per action component")
	iters := flag.Int("iters", 2, "max improvement iterations per rule per round")
	maxRules := flag.Int("max-rules", 64, "stop subdividing beyond this many rules (0 = unlimited)")

	checkpoint := flag.String("checkpoint", "", "path to save the tree + training state after every round (long runs survive interruption)")
	resume := flag.Bool("resume", false, "resume an interrupted run from the -checkpoint files")

	benchJSON := flag.String("bench-json", "", "write per-round timing/throughput to this path in bench2json schema")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the design run to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after training) to this path")

	senders := flag.String("senders", "1:8", "sender count range lo:hi (custom model)")
	rate := flag.String("rate", "10e6:20e6", "link rate range in bps lo:hi (custom model)")
	rtt := flag.String("rtt", "100:200", "RTT range in ms lo:hi (custom model)")
	delta := flag.Float64("delta", 1, "delay weight δ of the objective (custom model)")
	duration := flag.Float64("duration", 5, "specimen duration in seconds (custom model)")
	specimens := flag.Int("specimens", 4, "specimens per evaluation (custom model)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("remy: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("remy: -cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	var spec exp.TrainSpec
	if *preset != "" {
		s, err := presetSpec(*preset, *budget)
		if err != nil {
			log.Fatalf("remy: %v", err)
		}
		spec = s
	} else {
		sLo, sHi, err := parsePair(*senders)
		if err != nil {
			log.Fatalf("remy: bad -senders: %v", err)
		}
		rLo, rHi, err := parsePair(*rate)
		if err != nil {
			log.Fatalf("remy: bad -rate: %v", err)
		}
		tLo, tHi, err := parsePair(*rtt)
		if err != nil {
			log.Fatalf("remy: bad -rtt: %v", err)
		}
		cfg := optimizer.DumbbellDesignRange()
		cfg.MinSenders = int(sLo)
		cfg.MaxSenders = int(sHi)
		cfg.LinkRateBps = optimizer.Range{Lo: rLo, Hi: rHi}
		cfg.RTTMs = optimizer.Range{Lo: tLo, Hi: tHi}
		cfg.OnMode = workload.ByTime
		cfg.SpecimenDuration = sim.FromSeconds(*duration)
		cfg.Specimens = *specimens
		spec = exp.TrainSpec{Config: cfg, Objective: stats.DefaultObjective(*delta), Seed: *seed}
	}

	r := optimizer.New(spec.Config, spec.Objective)
	r.Seed = *seed
	r.Workers = *workers
	r.CandidateRungs = *rungs
	r.ImprovementIters = *iters
	r.MaxRules = *maxRules
	r.Logf = log.Printf

	// Per-round observability: wall-clock, simulation throughput and the
	// evaluation pipeline's cache/prune effectiveness, on stderr as the run
	// goes — and optionally as a bench2json file for the CI tooling.
	var benchEntries []benchEntry
	roundStart := time.Now()
	r.OnRound = func(p optimizer.Progress) {
		dt := time.Since(roundStart)
		roundStart = time.Now()
		secs := dt.Seconds()
		simsPerSec := 0.0
		if secs > 0 {
			simsPerSec = float64(p.Stats.SimulatedRuns) / secs
		}
		log.Printf("round %d: %.2fs wall, %d sims (%.1f sims/s), cache hit %.1f%%, pruned %.1f%%",
			p.Round, secs, p.Stats.SimulatedRuns, simsPerSec,
			100*p.Stats.CacheHitRate(), 100*p.Stats.PruneRate())
		if *benchJSON != "" {
			benchEntries = append(benchEntries, benchEntry{
				Name:       fmt.Sprintf("TrainRound/round=%d", p.Round),
				Iterations: 1,
				Metrics: map[string]float64{
					"ns/op":       float64(dt.Nanoseconds()),
					"sims/op":     float64(p.Stats.SimulatedRuns),
					"sims/sec":    simsPerSec,
					"cache-hit-%": 100 * p.Stats.CacheHitRate(),
					"prune-%":     100 * p.Stats.PruneRate(),
				},
			})
		}
	}

	log.Printf("designing RemyCC: objective {%v}, model senders=[%d,%d] rate=%v rtt=%v, %d specimens of %v",
		spec.Objective, spec.Config.MinSenders, spec.Config.MaxSenders,
		spec.Config.LinkRateBps, spec.Config.RTTMs, spec.Config.Specimens, spec.Config.SpecimenDuration)

	if *rounds < 1 {
		log.Fatalf("remy: -rounds must be positive, got %d", *rounds)
	}

	var tree *core.WhiskerTree
	startRound, startEpoch := 0, 0
	if *resume {
		if *checkpoint == "" {
			log.Fatal("remy: -resume requires -checkpoint")
		}
		t, st, err := optimizer.LoadCheckpoint(*checkpoint)
		if err != nil {
			log.Fatalf("remy: %v", err)
		}
		if st.Seed != *seed {
			log.Fatalf("remy: checkpoint was recorded with -seed %d, got %d", st.Seed, *seed)
		}
		if st.ConfigHash != "" && st.ConfigHash != r.ConfigFingerprint() {
			log.Fatalf("remy: checkpoint was recorded with a different design model or search knobs (config hash %s, current %s); rerun with the original flags", st.ConfigHash, r.ConfigFingerprint())
		}
		tree, startRound, startEpoch = t, st.Round, st.Epoch
		log.Printf("resuming from %s: round %d, epoch %d, %d rules", *checkpoint, startRound, startEpoch, tree.NumWhiskers())
		if startRound >= *rounds {
			log.Fatalf("remy: checkpoint already has %d rounds; raise -rounds to continue", startRound)
		}
	}

	var progress []optimizer.Progress
	var evalStats optimizer.EvalStats
	if *checkpoint == "" {
		// Uninterruptible run: one Optimize call for all rounds.
		t, prog, err := r.Optimize(tree, *rounds)
		if err != nil {
			log.Fatalf("remy: %v", err)
		}
		tree, progress, evalStats = t, prog, r.EvalStats()
	} else {
		// Checkpointed run: one round per Optimize call, saving tree + state
		// after each. Seed handling in Optimize (StartRound burns the
		// specimen streams of completed rounds) makes the looped run produce
		// exactly the tree an uninterrupted run would.
		for round := startRound; round < *rounds; round++ {
			r.StartRound, r.StartEpoch = round, startEpoch
			t, prog, err := r.Optimize(tree, 1)
			if err != nil {
				log.Fatalf("remy: %v", err)
			}
			tree, startEpoch = t, r.Epoch()
			evalStats = evalStats.Add(r.EvalStats())
			progress = append(progress, prog...)
			st := optimizer.TrainingState{Round: round + 1, Epoch: startEpoch, Seed: *seed, ConfigHash: r.ConfigFingerprint()}
			if err := optimizer.SaveCheckpoint(*checkpoint, tree, st); err != nil {
				log.Fatalf("remy: %v", err)
			}
			log.Printf("checkpointed %s after round %d", *checkpoint, round)
		}
	}

	for _, p := range progress {
		log.Printf("  %s", p)
	}
	log.Printf("evaluation pipeline: %s", evalStats)
	if err := tree.SaveFile(*out); err != nil {
		log.Fatalf("remy: writing %s: %v", *out, err)
	}
	log.Printf("wrote %s (%d rules)", *out, tree.NumWhiskers())

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, benchEntries); err != nil {
			log.Fatalf("remy: writing %s: %v", *benchJSON, err)
		}
		log.Printf("wrote %s (%d rounds)", *benchJSON, len(benchEntries))
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("remy: -memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("remy: -memprofile: %v", err)
		}
	}
}
