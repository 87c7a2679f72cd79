package optimizer

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// maxMemorySamplesPerWhisker caps how many memory points are retained per
// rule for the median-split step, bounding memory use during long searches.
const maxMemorySamplesPerWhisker = 4096

// DefaultMaxCacheEntries bounds the evaluation memo cache. Entries are
// per-(tree, specimen) usage summaries; when the bound is exceeded the cache
// is cleared, which affects only speed, never results.
const DefaultMaxCacheEntries = 1 << 16

// specimenResult is the outcome of simulating one rule table on one
// specimen network: the summed per-flow utilities, the number of flows that
// contributed, and per-rule usage. Results are immutable once created, so
// one result may be shared between cache entries — that sharing is how
// usage-pruned candidate scoring transfers an incumbent's result to a
// candidate that provably behaves identically on the specimen.
type specimenResult struct {
	sum   float64
	flows int
	// counts[i] is how many times rule i was used on an ACK.
	counts []int64
	// consulted[i] reports whether rule i was looked up at all, including
	// the connection-(re)start lookups that do not count as uses. A rule
	// with consulted[i] == false cannot have influenced the simulation.
	consulted []bool
	// samples[i] holds the memory points that triggered rule i; nil unless
	// the evaluation was asked to collect them (Evaluate does, the cheaper
	// usage-only paths do not).
	samples [][]core.Memory
}

// evalKey identifies one deterministic simulation: the behaviour-relevant
// encoding of the rule table, the specimen network (including its seed),
// and the design configuration it runs under.
type evalKey struct {
	tree string
	spec Specimen
	cfg  ConfigRange
}

// EvalStats counts the work an Evaluator performed and the work it avoided.
type EvalStats struct {
	// SimulatedRuns is the number of (tree, specimen) simulations executed.
	SimulatedRuns int64
	// CacheHits is the number of (tree, specimen) evaluations served from
	// the memo cache.
	CacheHits int64
	// PrunedRuns is the number of candidate (tree, specimen) simulations
	// skipped because the incumbent never consulted the modified whisker on
	// that specimen (the incumbent's result was transferred instead).
	PrunedRuns int64
}

// Add returns the component-wise sum of two counter sets (for aggregating
// stats across several Optimize calls, e.g. a checkpointed round loop).
func (s EvalStats) Add(o EvalStats) EvalStats {
	return EvalStats{
		SimulatedRuns: s.SimulatedRuns + o.SimulatedRuns,
		CacheHits:     s.CacheHits + o.CacheHits,
		PrunedRuns:    s.PrunedRuns + o.PrunedRuns,
	}
}

// Sub returns the component-wise difference s − o (for deriving one round's
// counters from two cumulative snapshots).
func (s EvalStats) Sub(o EvalStats) EvalStats {
	return EvalStats{
		SimulatedRuns: s.SimulatedRuns - o.SimulatedRuns,
		CacheHits:     s.CacheHits - o.CacheHits,
		PrunedRuns:    s.PrunedRuns - o.PrunedRuns,
	}
}

// CacheHitRate returns the fraction of evaluations served from the cache.
func (s EvalStats) CacheHitRate() float64 {
	total := s.SimulatedRuns + s.CacheHits + s.PrunedRuns
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// PruneRate returns the fraction of evaluations avoided by usage pruning.
func (s EvalStats) PruneRate() float64 {
	total := s.SimulatedRuns + s.CacheHits + s.PrunedRuns
	if total == 0 {
		return 0
	}
	return float64(s.PrunedRuns) / float64(total)
}

func (s EvalStats) String() string {
	return fmt.Sprintf("simulated=%d cache_hits=%d pruned=%d (hit_rate=%.1f%% prune_rate=%.1f%%)",
		s.SimulatedRuns, s.CacheHits, s.PrunedRuns, 100*s.CacheHitRate(), 100*s.PruneRate())
}

// Evaluation is the outcome of simulating one candidate RemyCC on a set of
// specimen networks.
type Evaluation struct {
	// Score is the mean per-flow objective value over all specimens (higher
	// is better) — the "overall figure of merit" of §4.3.
	Score float64
	// UseCounts[i] is the number of times rule i was looked up.
	UseCounts []int64
	// MemorySamples[i] holds (a capped subset of) the memory points that
	// triggered rule i, used to find the median split point. Only Evaluate
	// collects samples; usage-only evaluations leave this empty.
	MemorySamples [][]core.Memory
	// FlowsScored is the number of (specimen, flow) pairs that contributed.
	FlowsScored int

	// perSpec holds the per-specimen results (in specimen order) backing
	// this evaluation; ScoreCandidates uses them to decide which specimens a
	// modified whisker can actually affect.
	perSpec []*specimenResult
}

// MostUsed returns the index of the most-used rule among those whose epoch
// (per the supplied tree) equals epoch, or -1 if no such rule was used.
func (e Evaluation) MostUsed(tree *core.WhiskerTree, epoch int) int {
	best := -1
	var bestCount int64
	for i, w := range tree.Whiskers() {
		if w.Epoch != epoch || i >= len(e.UseCounts) {
			continue
		}
		if e.UseCounts[i] > bestCount {
			bestCount = e.UseCounts[i]
			best = i
		}
	}
	return best
}

// MostUsedAny returns the index of the most-used rule regardless of epoch,
// or -1 if no rule was used at all.
func (e Evaluation) MostUsedAny() int {
	best := -1
	var bestCount int64
	for i, c := range e.UseCounts {
		if c > bestCount {
			bestCount = c
			best = i
		}
	}
	return best
}

// MedianMemory returns the per-axis median of the memory samples recorded
// for rule idx, or false if there are none.
func (e Evaluation) MedianMemory(idx int) (core.Memory, bool) {
	if idx < 0 || idx >= len(e.MemorySamples) || len(e.MemorySamples[idx]) == 0 {
		return core.Memory{}, false
	}
	samples := e.MemorySamples[idx]
	axis := func(i int) float64 {
		vals := make([]float64, len(samples))
		for j, m := range samples {
			vals[j] = m.Axis(i)
		}
		sort.Float64s(vals)
		return vals[len(vals)/2]
	}
	return core.Memory{AckEWMA: axis(0), SendEWMA: axis(1), RTTRatio: axis(2)}, true
}

// usageCollector implements core.UsageRecorder (and core.TouchRecorder) for
// one specimen simulation.
type usageCollector struct {
	counts    []int64
	consulted []bool
	samples   [][]core.Memory // nil when sample collection is disabled
}

func newUsageCollector(n int, collectSamples bool) *usageCollector {
	u := &usageCollector{counts: make([]int64, n), consulted: make([]bool, n)}
	if collectSamples {
		u.samples = make([][]core.Memory, n)
	}
	return u
}

// RecordUse implements core.UsageRecorder.
func (u *usageCollector) RecordUse(idx int, m core.Memory) {
	if idx < 0 || idx >= len(u.counts) {
		return
	}
	u.counts[idx]++
	u.consulted[idx] = true
	if u.samples != nil && len(u.samples[idx]) < maxMemorySamplesPerWhisker {
		u.samples[idx] = append(u.samples[idx], m)
	}
}

// RecordTouch implements core.TouchRecorder: connection-start lookups mark
// the rule as consulted without counting as a use.
func (u *usageCollector) RecordTouch(idx int) {
	if idx < 0 || idx >= len(u.consulted) {
		return
	}
	u.consulted[idx] = true
}

// Evaluator scores candidate rule tables on specimen networks. Every
// (tree, specimen) simulation is deterministic, which the evaluator exploits
// twice: results are memoized by the tree's behaviour-relevant canonical
// key, and candidate trees that differ from an incumbent only in a rule a
// specimen never consulted reuse the incumbent's result for that specimen
// outright. Both shortcuts are exact — they return bit-identical data to a
// fresh simulation.
type Evaluator struct {
	// Objective is the per-flow utility function (Equation 1).
	Objective stats.Objective
	// Workers bounds the number of concurrent specimen simulations; zero
	// means one fewer than the number of CPUs.
	Workers int
	// NoCache disables the evaluation memo cache (and with it usage
	// pruning, which transfers results through the cache). Every call then
	// re-simulates from scratch — the pre-optimization behaviour, kept for
	// benchmarking and equivalence tests.
	NoCache bool
	// NoPrune disables only the usage-pruned candidate scoring.
	NoPrune bool
	// MaxCacheEntries bounds the memo cache; <= 0 means
	// DefaultMaxCacheEntries. Exceeding the bound clears the cache.
	MaxCacheEntries int
	// Backend, when non-nil, executes pending simulation batches instead of
	// the in-process runner pool (the benchmark times batches this way). A
	// Backend must be exact: its results must be bit-identical to
	// RunBatchLocal's for every job. The memo cache and usage pruning stay
	// on this side of the seam, so only genuine simulations cross it.
	Backend BatchRunner

	mu    sync.Mutex
	cache map[evalKey]*specimenResult
	// seeded marks cache keys filled by usage-pruning transfer rather than
	// simulation; the first lookup of such a key is counted as a pruned run
	// instead of a cache hit.
	seeded map[evalKey]bool
	stats  EvalStats
}

// NewEvaluator returns an evaluator for the given objective.
func NewEvaluator(obj stats.Objective) *Evaluator {
	return &Evaluator{Objective: obj, Workers: defaultWorkers()}
}

// Stats returns the evaluator's cumulative work counters.
func (e *Evaluator) Stats() EvalStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *Evaluator) cacheGet(k evalKey, needSamples bool) *specimenResult {
	if e.NoCache {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	r := e.cache[k]
	if r == nil || (needSamples && r.samples == nil) {
		return nil
	}
	if e.seeded[k] {
		delete(e.seeded, k)
		e.stats.PrunedRuns++
	} else {
		e.stats.CacheHits++
	}
	return r
}

func (e *Evaluator) cachePut(k evalKey, r *specimenResult) {
	if e.NoCache {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ensureRoomLocked()
	e.cache[k] = r
}

// cacheSeed transfers an incumbent's per-specimen result to a candidate key
// whose simulation is provably identical. Keys that already hold a result
// (e.g. a candidate re-proposed from an earlier iteration) are left alone —
// those were avoided by memoization, not pruning.
func (e *Evaluator) cacheSeed(k evalKey, r *specimenResult) {
	if e.NoCache {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.cache[k]; ok {
		return
	}
	e.ensureRoomLocked()
	e.cache[k] = r
	e.seeded[k] = true
}

func (e *Evaluator) ensureRoomLocked() {
	limit := e.MaxCacheEntries
	if limit <= 0 {
		limit = DefaultMaxCacheEntries
	}
	if e.cache == nil || len(e.cache) >= limit {
		e.cache = make(map[evalKey]*specimenResult)
		e.seeded = make(map[evalKey]bool)
	}
}

// specFor builds the declarative scenario simulating the tree on one
// specimen. Every sender runs the same candidate RemyCC (the superrational
// setting of §4), injected programmatically so that, when rec is non-nil, it
// observes every rule lookup.
func specFor(tree *core.WhiskerTree, spec Specimen, cfg ConfigRange, rec core.UsageRecorder) scenario.Spec {
	return scenario.New(
		scenario.WithName(spec.String()),
		scenario.WithLink(spec.LinkRateBps),
		scenario.WithQueue(scenario.QueueDropTail, cfg.QueueCapacityPackets),
		scenario.WithDuration(cfg.SpecimenDuration.Seconds()),
		scenario.WithSeed(spec.Seed),
		scenario.WithoutSummaries(),
		scenario.WithFlow(scenario.FlowSpec{
			Scheme:   "remy-candidate",
			Count:    spec.Senders,
			RTTMs:    spec.RTTMs,
			Workload: cfg.scenarioWorkload(),
			Algorithm: func() cc.Algorithm {
				s := core.NewSender(tree)
				s.Recorder = rec
				return s
			},
		}),
	)
}

// flowUtility evaluates Equation 1 for one flow, normalizing throughput by
// the fair share of the bottleneck and delay by the flow's minimum RTT so
// scores are comparable across specimens with different scales.
func flowUtility(objective stats.Objective, m stats.FlowMetrics, fairShareBps float64) float64 {
	const epsilon = 1e-6
	tput := m.ThroughputBps / fairShareBps
	if tput < epsilon {
		tput = epsilon
	}
	delay := 1.0
	if m.MinRTT > 0 {
		delay = m.AvgRTT / m.MinRTT
		if delay < 1 {
			delay = 1
		}
	}
	u := objective.Score(tput, delay)
	if math.IsInf(u, -1) || math.IsNaN(u) {
		u = -1e9
	}
	return u
}

// runBatch resolves a batch of pending simulations through the configured
// backend, or in-process when none is set.
func (e *Evaluator) runBatch(jobs []BatchJob) ([]BatchResult, error) {
	if e.Backend != nil {
		return e.Backend.RunBatch(e.Objective, jobs)
	}
	return RunBatchLocal(e.Objective, e.Workers, jobs)
}

// evaluateTrees resolves the per-specimen result of every (tree, specimen)
// pair, serving what it can from the memo cache and simulating the rest as
// one batch over the worker pool. out[t][s] is the result for trees[t] on
// specimens[s]. Results are deterministic per (tree, specimen, cfg), so the
// cache only changes speed, never values.
func (e *Evaluator) evaluateTrees(trees []*core.WhiskerTree, specimens []Specimen, cfg ConfigRange, withSamples bool) ([][]*specimenResult, error) {
	out := make([][]*specimenResult, len(trees))
	keys := make([]string, len(trees))
	for ti, tree := range trees {
		out[ti] = make([]*specimenResult, len(specimens))
		keys[ti] = tree.CanonicalKey()
	}

	type ref struct{ ti, si int }
	var (
		jobs     []BatchJob
		pendKeys []evalKey
		pendRefs [][]ref
	)
	pendingByKey := make(map[evalKey]int)
	for ti, tree := range trees {
		for si, sp := range specimens {
			k := evalKey{tree: keys[ti], spec: sp, cfg: cfg}
			if r := e.cacheGet(k, withSamples); r != nil {
				out[ti][si] = r
				continue
			}
			if pi, ok := pendingByKey[k]; ok {
				pendRefs[pi] = append(pendRefs[pi], ref{ti, si})
				continue
			}
			pendingByKey[k] = len(jobs)
			jobs = append(jobs, BatchJob{Tree: tree, Specimen: sp, Config: cfg, WithSamples: withSamples})
			pendKeys = append(pendKeys, k)
			pendRefs = append(pendRefs, []ref{{ti, si}})
		}
	}

	if len(jobs) > 0 {
		results, err := e.runBatch(jobs)
		if err != nil {
			return nil, err
		}
		if len(results) != len(jobs) {
			return nil, fmt.Errorf("optimizer: batch backend returned %d results for %d jobs", len(results), len(jobs))
		}
		for pi, br := range results {
			res := &specimenResult{sum: br.Sum, flows: br.Flows, counts: br.Counts, consulted: br.Consulted, samples: br.Samples}
			e.cachePut(pendKeys[pi], res)
			for _, rf := range pendRefs[pi] {
				out[rf.ti][rf.si] = res
			}
		}
		e.mu.Lock()
		e.stats.SimulatedRuns += int64(len(jobs))
		e.mu.Unlock()
	}
	return out, nil
}

// aggregate folds per-specimen results (in specimen order) into one
// Evaluation for a tree with n rules.
func (e *Evaluator) aggregate(n int, perSpec []*specimenResult) Evaluation {
	eval := Evaluation{
		UseCounts:     make([]int64, n),
		MemorySamples: make([][]core.Memory, n),
		perSpec:       perSpec,
	}
	var total float64
	for _, r := range perSpec {
		total += r.sum
		eval.FlowsScored += r.flows
		for idx, c := range r.counts {
			eval.UseCounts[idx] += c
			if r.samples == nil {
				continue
			}
			// Truncate to the remaining budget so a bulk merge can never
			// overshoot the per-whisker sample cap.
			if remaining := maxMemorySamplesPerWhisker - len(eval.MemorySamples[idx]); remaining > 0 {
				s := r.samples[idx]
				if len(s) > remaining {
					s = s[:remaining]
				}
				eval.MemorySamples[idx] = append(eval.MemorySamples[idx], s...)
			}
		}
	}
	if eval.FlowsScored > 0 {
		eval.Score = total / float64(eval.FlowsScored)
	} else {
		eval.Score = math.Inf(-1)
	}
	return eval
}

// Evaluate simulates the tree on every specimen (in parallel) and returns
// the aggregate score together with per-rule usage statistics, including
// the memory samples the split step needs.
func (e *Evaluator) Evaluate(tree *core.WhiskerTree, specimens []Specimen, cfg ConfigRange) (Evaluation, error) {
	return e.evaluate(tree, specimens, cfg, true)
}

// EvaluateUsage is Evaluate without memory-sample collection: scores and
// use counts only. This is the evaluation the improvement ladder runs on —
// sample collection is deferred to the (much rarer) split step.
func (e *Evaluator) EvaluateUsage(tree *core.WhiskerTree, specimens []Specimen, cfg ConfigRange) (Evaluation, error) {
	return e.evaluate(tree, specimens, cfg, false)
}

func (e *Evaluator) evaluate(tree *core.WhiskerTree, specimens []Specimen, cfg ConfigRange, withSamples bool) (Evaluation, error) {
	if len(specimens) == 0 {
		return Evaluation{}, fmt.Errorf("optimizer: no specimens to evaluate")
	}
	per, err := e.evaluateTrees([]*core.WhiskerTree{tree}, specimens, cfg, withSamples)
	if err != nil {
		return Evaluation{}, err
	}
	return e.aggregate(tree.NumWhiskers(), per[0]), nil
}

// ScoreMany evaluates several candidate trees on the same specimen set (the
// same networks and seeds, as the paper prescribes for comparing candidate
// actions) and returns one score per tree. All (tree, specimen) simulations
// share the worker pool.
func (e *Evaluator) ScoreMany(trees []*core.WhiskerTree, specimens []Specimen, cfg ConfigRange) ([]float64, error) {
	if len(trees) == 0 {
		return nil, nil
	}
	if len(specimens) == 0 {
		return nil, fmt.Errorf("optimizer: no specimens to evaluate")
	}
	per, err := e.evaluateTrees(trees, specimens, cfg, false)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(trees))
	for ti := range trees {
		var sum float64
		flows := 0
		for _, r := range per[ti] {
			sum += r.sum
			flows += r.flows
		}
		if flows > 0 {
			out[ti] = sum / float64(flows)
		} else {
			out[ti] = math.Inf(-1)
		}
	}
	return out, nil
}

// ScoreCandidates scores candidate trees that each differ from the
// incumbent evaluation's tree only in the action of whisker changed, on the
// same specimen set the incumbent was evaluated on. Specimens whose flows
// never consulted the changed whisker under the incumbent are not
// re-simulated: a rule that was never looked up cannot have influenced the
// specimen's trajectory, so the candidate's simulation there is identical
// to the incumbent's and the incumbent's per-specimen result is transferred
// outright. The remaining (affected) specimens are simulated as one batch.
func (e *Evaluator) ScoreCandidates(incumbent Evaluation, trees []*core.WhiskerTree, changed int, specimens []Specimen, cfg ConfigRange) ([]float64, error) {
	if len(trees) == 0 {
		return nil, nil
	}
	if len(specimens) == 0 {
		return nil, fmt.Errorf("optimizer: no specimens to evaluate")
	}
	if !e.NoPrune && !e.NoCache && len(incumbent.perSpec) == len(specimens) {
		for _, tree := range trees {
			ck := tree.CanonicalKey()
			for si, sp := range specimens {
				inc := incumbent.perSpec[si]
				if changed < 0 || changed >= len(inc.consulted) || inc.consulted[changed] {
					continue
				}
				e.cacheSeed(evalKey{tree: ck, spec: sp, cfg: cfg}, inc)
			}
		}
	}
	return e.ScoreMany(trees, specimens, cfg)
}
