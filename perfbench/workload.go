package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/optimizer"
	"repro/internal/sim"
	"repro/internal/stats"
)

// env is what every workload's set-up receives.
type env struct {
	inputs  string // absolute path of the inputs directory
	man     manifest
	seed    int64
	workers int // every worker pool's size
}

// trace collects the per-layer values of one traced job. A nil *trace is an
// untraced job: set is a no-op, so workloads call it unconditionally.
type trace struct {
	vals map[string]float64
}

func newTrace() *trace { return &trace{vals: map[string]float64{}} }

func (t *trace) set(name string, v float64) {
	if t != nil {
		t.vals[name] = v
	}
}

// job is a workload after set-up: its fixed job, ready to run repeatedly.
type job interface {
	// run executes the fixed job once and returns its ops. Only run is
	// timed.
	run(tr *trace) []opResult
	// replay, called after a traced run, gathers the per-layer numbers that
	// need extra, untimed work; it returns the ops that work checked.
	replay(tr *trace) []opResult
	// score returns train_score for the last run.
	score() (float64, error)
}

// workload is one benchmark workload.
type workload struct {
	name string
	// opsPerJob is the op count of one job, charged as failed when set-up
	// itself fails.
	opsPerJob int
	setup     func(env) (job, error)
	// measured lists the per-layer metrics the workload reaches from
	// outside the program, besides the profile shares, the GC share and
	// trace_overhead that every workload reports.
	measured []string
}

var workloads = []workload{trainWorkload, churnWorkload, paperWorkload}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// train_score is exp(objective) of one RemyCC on a held-out specimen set:
// the geometric mean over flows of normalized throughput divided by
// normalized delay, for the §5.1 δ=1 objective. The exponential keeps the
// figure positive and monotone in the objective.
const (
	scoreSpecimens = 64
	scoreDuration  = 20 * sim.Second
)

// scoreModel is the §5.1 general-purpose design model the held-out set is
// drawn from.
func scoreModel() optimizer.ConfigRange {
	c := optimizer.DumbbellDesignRange()
	c.SpecimenDuration = scoreDuration
	c.Specimens = scoreSpecimens
	return c
}

func heldOutScore(tree *core.WhiskerTree, seed int64, workers int) (float64, error) {
	cfg := scoreModel()
	specimens := cfg.SampleSet(cfg.Specimens, sim.NewRNG(seed))
	ev := optimizer.NewEvaluator(stats.DefaultObjective(1))
	ev.Workers = workers
	e, err := ev.Evaluate(tree, specimens, cfg)
	if err != nil {
		return 0, err
	}
	return math.Exp(e.Score), nil
}

func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyTables checks the pinned hashes of the named inputs and loads each
// as a rule table.
func verifyTables(e env, names ...string) ([]*core.WhiskerTree, error) {
	paths, err := e.man.verify(e.inputs, names...)
	if err != nil {
		return nil, err
	}
	trees := make([]*core.WhiskerTree, len(paths))
	for i, p := range paths {
		if trees[i], err = core.LoadFile(p); err != nil {
			return nil, err
		}
	}
	return trees, nil
}

// assetNames lists the pinned paper_eval asset tables in the order the
// experiments read them.
var assetNames = []string{
	"assets/" + exp.AssetRemyDelta01,
	"assets/" + exp.AssetRemyDelta1,
	"assets/" + exp.AssetRemyDelta10,
	"assets/" + exp.AssetRemyDC,
	"assets/" + exp.AssetRemyCompete,
}
