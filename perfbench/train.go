package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/stats"
)

// The train job: optimizer.New(...).Optimize(start, trainRounds) on the
// §5.1 general-purpose design model at a reduced simulation budget,
// starting from the benchmark's 15-rule snapshot of the δ=1 table. Search
// knobs are cut from the paper's defaults (rungs 2, iterations 5, a split
// every 4 epochs) so a job takes seconds while every optimizer mechanism —
// memo cache, usage pruning, candidate trees and the split — still works.
const (
	trainRounds         = 2
	trainSpecimens      = 4
	trainSpecimenDur    = 2 * sim.Second
	trainRungs          = 1
	trainIters          = 2
	trainEpochsPerSplit = 2
)

var trainWorkload = workload{
	name:      "train",
	opsPerJob: trainRounds,
	setup:     setupTrain,
	measured: []string{
		"optimizer.round_p50_s", "optimizer.round_max_s", "optimizer.batch_s",
		"optimizer.overhead_s", "optimizer.batches", "optimizer.batch_jobs_p50",
		"optimizer.sims", "optimizer.cache_hits", "optimizer.pruned",
		"optimizer.avoided_ratio", "optimizer.cpu_util",
	},
}

func trainModel() (optimizer.ConfigRange, stats.Objective) {
	spec := exp.GeneralPurposeTrainSpec(1, 0.05)
	spec.Config.Specimens = trainSpecimens
	spec.Config.SpecimenDuration = trainSpecimenDur
	return spec.Config, spec.Objective
}

type trainJob struct {
	start     *core.WhiskerTree
	cfg       optimizer.ConfigRange
	obj       stats.Objective
	trainSeed int64
	scoreSeed int64
	workers   int
	trained   *core.WhiskerTree
}

func setupTrain(e env) (job, error) {
	trees, err := verifyTables(e, "train_start.json")
	if err != nil {
		return nil, err
	}
	cfg, obj := trainModel()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &trainJob{
		start:     trees[0],
		cfg:       cfg,
		obj:       obj,
		trainSeed: e.man.TrainSeed,
		scoreSeed: e.man.ScoreSeed,
		workers:   e.workers,
	}, nil
}

func (j *trainJob) run(tr *trace) []opResult {
	r := optimizer.New(j.cfg, j.obj)
	r.Workers = j.workers
	r.Seed = j.trainSeed
	r.CandidateRungs = trainRungs
	r.ImprovementIters = trainIters
	r.EpochsPerSplit = trainEpochsPerSplit
	var backend *timedBackend
	if tr != nil {
		backend = &timedBackend{workers: j.workers}
		r.Backend = backend
	}

	var ops []opResult
	var gaps []float64
	t0 := time.Now()
	last := t0
	r.OnRound = func(p optimizer.Progress) {
		now := time.Now()
		gaps = append(gaps, now.Sub(last).Seconds())
		last = now
		ops = append(ops, opResult{id: fmt.Sprintf("round/%d", p.Round), digest: progressDigest(p)})
	}
	cpu0 := processCPUSeconds()
	tree, _, err := r.Optimize(j.start, trainRounds)
	wall := time.Since(t0).Seconds()
	cpu := processCPUSeconds() - cpu0
	if err != nil {
		for i := len(ops); i < trainRounds; i++ {
			ops = append(ops, failedOp(fmt.Sprintf("round/%d", i), err))
		}
		return ops
	}
	// The last round's op also covers the trained table's bytes.
	table, err := tree.MarshalJSON()
	if err != nil {
		ops[len(ops)-1].err = err
		return ops
	}
	ops[len(ops)-1].digest = digestOf([]byte(ops[len(ops)-1].digest), table)
	j.trained = tree

	st := r.EvalStats()
	tr.set("optimizer.round_p50_s", median(gaps))
	tr.set("optimizer.round_max_s", maxOf(gaps))
	tr.set("optimizer.sims", float64(st.SimulatedRuns))
	tr.set("optimizer.cache_hits", float64(st.CacheHits))
	tr.set("optimizer.pruned", float64(st.PrunedRuns))
	tr.set("optimizer.avoided_ratio", ratio(float64(st.CacheHits+st.PrunedRuns), float64(st.SimulatedRuns+st.CacheHits+st.PrunedRuns)))
	tr.set("optimizer.cpu_util", ratio(cpu, wall*float64(j.workers)))
	if backend != nil {
		batchS := sum(backend.seconds)
		tr.set("optimizer.batch_s", batchS)
		tr.set("optimizer.overhead_s", sum(gaps)-batchS)
		tr.set("optimizer.batches", float64(len(backend.seconds)))
		tr.set("optimizer.batch_jobs_p50", median(backend.jobs))
	}
	return ops
}

func (j *trainJob) replay(*trace) []opResult { return nil }

func (j *trainJob) score() (float64, error) {
	if j.trained == nil {
		return 0, fmt.Errorf("train: no trained table to score")
	}
	return heldOutScore(j.trained, j.scoreSeed, j.workers)
}

// progressDigest covers what a round decided — never its work counters,
// which a speed-up is free to change.
func progressDigest(p optimizer.Progress) string {
	return digestOf([]byte(fmt.Sprintf("round=%d epoch=%d rules=%d score=%016x improved=%d split=%t",
		p.Round, p.Epoch, p.Rules, math.Float64bits(p.Score), p.Improved, p.DidSplit)))
}

// timedBackend runs the optimizer's simulation batches in process, exactly
// as the optimizer does without a backend, and times each batch. Traced
// runs only: untraced numbers never depend on this seam.
type timedBackend struct {
	workers int
	mu      sync.Mutex
	seconds []float64
	jobs    []float64
}

func (b *timedBackend) RunBatch(obj stats.Objective, jobs []optimizer.BatchJob) ([]optimizer.BatchResult, error) {
	t0 := time.Now()
	res, err := optimizer.RunBatchLocal(obj, b.workers, jobs)
	d := time.Since(t0).Seconds()
	b.mu.Lock()
	b.seconds = append(b.seconds, d)
	b.jobs = append(b.jobs, float64(len(jobs)))
	b.mu.Unlock()
	return res, err
}
