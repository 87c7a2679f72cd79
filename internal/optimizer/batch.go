package optimizer

import (
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// BatchJob is one pending (tree, specimen) simulation. Jobs are
// self-contained — tree, specimen (with its seed) and design configuration
// together determine the simulation bit for bit — so a job gives the same
// result whichever worker runs it.
type BatchJob struct {
	Tree        *core.WhiskerTree
	Specimen    Specimen
	Config      ConfigRange
	WithSamples bool
}

// BatchResult is the outcome of one BatchJob: the summed per-flow utilities,
// the number of flows that contributed, and per-rule usage indexed by
// whisker index.
type BatchResult struct {
	Sum       float64
	Flows     int
	Counts    []int64
	Consulted []bool
	// Samples holds the memory points that triggered each rule; nil unless
	// the job asked for sample collection.
	Samples [][]core.Memory
}

// BatchRunner executes a batch of specimen simulations and returns one
// result per job, in job order. Implementations must be exact: the results
// for a job must be bit-identical to RunBatchLocal's. The benchmark's timed
// backend (perfbench/train.go) wraps RunBatchLocal to time each batch, and
// tests substitute fakes.
type BatchRunner interface {
	RunBatch(objective stats.Objective, jobs []BatchJob) ([]BatchResult, error)
}

// RunBatchLocal executes jobs on an in-process scenario runner pool. This is
// the single execution path for specimen simulations: the Evaluator calls it
// when no Backend is configured, and a Backend delegates to it.
func RunBatchLocal(objective stats.Objective, workers int, jobs []BatchJob) ([]BatchResult, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	specs := make([]scenario.Spec, len(jobs))
	collectors := make([]*usageCollector, len(jobs))
	for i, j := range jobs {
		u := newUsageCollector(j.Tree.NumWhiskers(), j.WithSamples)
		collectors[i] = u
		specs[i] = specFor(j.Tree, j.Specimen, j.Config, u)
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	results, err := scenario.Runner{Workers: workers}.RunAll(specs)
	if err != nil {
		return nil, err
	}
	out := make([]BatchResult, len(jobs))
	for i, r := range results {
		sum, flows := scoreSpecimen(objective, r, jobs[i].Specimen)
		u := collectors[i]
		out[i] = BatchResult{Sum: sum, Flows: flows, Counts: u.counts, Consulted: u.consulted, Samples: u.samples}
	}
	return out, nil
}

// scoreSpecimen converts one specimen run into the summed per-flow utilities
// and the number of flows that contributed.
func scoreSpecimen(objective stats.Objective, res scenario.Result, spec Specimen) (float64, int) {
	fairShare := spec.LinkRateBps / float64(spec.Senders)
	var sum float64
	flows := 0
	for _, f := range res.Res.Flows {
		if f.Metrics.OnDuration <= 0 {
			continue
		}
		flows++
		sum += flowUtility(objective, f.Metrics, fairShare)
	}
	return sum, flows
}
