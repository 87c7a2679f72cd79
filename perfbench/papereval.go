package main

import (
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
)

// The paper_eval job: exp.Lookup(id).Run(cfg) for five paper artifacts,
// each with its own RunConfig so no single experiment dominates the job.
// Together they run every cc algorithm and every aqm queue, the trace-driven
// LTE links and the 10 Gbps datacenter case. One op per experiment.
type paperExperiment struct {
	id       string
	runs     int
	duration sim.Time
	// assets are the pinned tables the experiment reads.
	assets []string
	// pairs, when positive, is the number of scenarios the experiment runs
	// per repetition without reporting them as schemes (table4's pairs).
	pairs int
	// pinned runs the experiment at the manifest's fig7_seed instead of the
	// workload seed.
	pinned bool
}

var paperExperiments = []paperExperiment{
	{id: "fig4", runs: 16, duration: 8 * sim.Second, assets: assetNames[:3]},
	// XCP on the Verizon-like trace sometimes explodes its window and sends
	// millions of packets into a 1000-packet queue (see README.md). Whether
	// a seed hits it decides the job's peak heap (~40 MB or ~160+ MB), so
	// fig7 runs at a pinned seed that does: the defect shows on every run,
	// and a fix shows as a drop on every seed.
	{id: "fig7", runs: 16, duration: 8 * sim.Second, assets: assetNames[:3], pinned: true},
	{id: "fig9", runs: 16, duration: 8 * sim.Second, assets: assetNames[:3]},
	// At two runs of at most 10 s, table3 runs 32 senders at 10 Gbps, the
	// costliest simulated second in the repository: one simulated second
	// took 1.8 s, while every other experiment took under 0.12 s at the
	// quick configuration. A fifth of a second keeps it near the others.
	{id: "table3", runs: 2, duration: sim.Second / 5, assets: assetNames[3:4]},
	{id: "table4", runs: 16, duration: 8 * sim.Second, assets: assetNames[4:5], pairs: 5},
}

var paperWorkload = workload{
	name:      "paper_eval",
	opsPerJob: len(paperExperiments),
	setup:     setupPaper,
	measured:  []string{"exp.run_s", "exp.sim_runs"},
}

type paperJob struct {
	e         env
	exps      []exp.Experiment
	cfgs      []exp.RunConfig
	delta1    *core.WhiskerTree
	scoreSeed int64
}

func setupPaper(e env) (job, error) {
	trees, err := verifyTables(e, assetNames...)
	if err != nil {
		return nil, err
	}
	j := &paperJob{e: e, delta1: trees[1], scoreSeed: e.man.ScoreSeed}
	for _, pe := range paperExperiments {
		x, err := exp.Lookup(pe.id)
		if err != nil {
			return nil, err
		}
		seed := e.seed
		if pe.pinned {
			seed = e.man.Fig7Seed
		}
		j.exps = append(j.exps, x)
		j.cfgs = append(j.cfgs, exp.RunConfig{
			Runs:      pe.runs,
			Duration:  pe.duration,
			Seed:      seed,
			Workers:   e.workers,
			AssetsDir: filepath.Join(e.inputs, "assets"),
			// Never used: every table is verified before its experiment
			// runs, so nothing falls back to training.
			TrainBudget: 0.02,
		})
	}
	return j, nil
}

func (j *paperJob) run(tr *trace) []opResult {
	ops := make([]opResult, len(paperExperiments))
	var runS float64
	simRuns := 0
	for i, pe := range paperExperiments {
		ops[i].id = "experiment/" + pe.id
		// Re-verify right before the run: exp.LoadOrTrainRemyCC trains a
		// replacement when a table is missing, which must never happen
		// inside a measurement.
		if _, err := j.e.man.verify(j.e.inputs, pe.assets...); err != nil {
			ops[i].err = err
			continue
		}
		t0 := time.Now()
		rep, err := j.exps[i].Run(j.cfgs[i])
		runS += time.Since(t0).Seconds()
		if err != nil {
			ops[i].err = err
			continue
		}
		ops[i].digest = digestOf([]byte(rep.String()))
		scenarios := len(rep.Schemes)
		if pe.pairs > 0 {
			scenarios = pe.pairs
		}
		simRuns += scenarios * pe.runs
	}
	tr.set("exp.run_s", runS)
	tr.set("exp.sim_runs", float64(simRuns))
	return ops
}

func (j *paperJob) replay(*trace) []opResult { return nil }

func (j *paperJob) score() (float64, error) {
	return heldOutScore(j.delta1, j.scoreSeed, j.e.workers)
}
