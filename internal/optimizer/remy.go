package optimizer

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Default search knobs.
const (
	// DefaultEpochsPerSplit is K in §4.3 step 4: every K epochs the
	// most-used rule is subdivided.
	DefaultEpochsPerSplit = 4
	// DefaultCandidateRungs controls the geometric ladder of candidate
	// action modifications evaluated per improvement step (2 rungs per
	// direction per component ≈ the paper's "roughly 100 candidates").
	DefaultCandidateRungs = 2
	// DefaultImprovementIters bounds how many times a single rule's action
	// is re-improved before moving on.
	DefaultImprovementIters = 5
)

// Progress records one optimization round for logging and the EXPERIMENTS.md
// training record.
type Progress struct {
	Round     int
	Epoch     int
	Rules     int
	Score     float64
	Improved  int // actions improved this round
	DidSplit  bool
	Evaluated int // candidate trees evaluated this round
	// Stats holds this round's evaluator counters (not cumulative): how
	// many specimen simulations actually ran and how many were served by
	// the memo cache or avoided by usage pruning.
	Stats EvalStats
}

func (p Progress) String() string {
	return fmt.Sprintf("round=%d epoch=%d rules=%d score=%.4f improved=%d evaluated=%d split=%v",
		p.Round, p.Epoch, p.Rules, p.Score, p.Improved, p.Evaluated, p.DidSplit)
}

// Remy is the offline designer. Construct it with New, adjust the public
// knobs if desired, then call Optimize.
type Remy struct {
	Config    ConfigRange
	Objective stats.Objective

	// Workers bounds concurrent specimen simulations (0 = NumCPU-1).
	Workers int
	// Seed makes the whole design run reproducible.
	Seed int64
	// CandidateRungs, ImprovementIters and EpochsPerSplit tune the search.
	CandidateRungs   int
	ImprovementIters int
	EpochsPerSplit   int
	// MaxRules stops subdividing once the table reaches this many rules
	// (0 = unlimited). The paper's general-purpose RemyCCs have 162–204.
	MaxRules int
	// StartRound and StartEpoch let a checkpointed run resume exactly where
	// it stopped: Optimize numbers its rounds from StartRound — deriving
	// the same per-round specimen sets an uninterrupted run would have
	// drawn — and starts the rule-table epoch counter at StartEpoch. Both
	// are zero for a fresh run.
	StartRound int
	StartEpoch int
	// Backend, when non-nil, executes specimen simulation batches instead
	// of the in-process pool (see Evaluator.Backend). An exact backend never
	// changes the trained tree.
	Backend BatchRunner
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// OnRound, if non-nil, observes each round's Progress (with its
	// per-round evaluator counters) as soon as the round completes. cmd/remy
	// uses it for wall-clock progress reporting, which must live outside
	// this package: the optimizer itself never reads the wall clock.
	OnRound func(Progress)

	epoch     int
	evalStats EvalStats
}

// New returns a designer with the paper's default knobs.
func New(cfg ConfigRange, obj stats.Objective) *Remy {
	return &Remy{
		Config:           cfg,
		Objective:        obj,
		Workers:          defaultWorkers(),
		Seed:             1,
		CandidateRungs:   DefaultCandidateRungs,
		ImprovementIters: DefaultImprovementIters,
		EpochsPerSplit:   DefaultEpochsPerSplit,
	}
}

func (r *Remy) logf(format string, args ...any) {
	if r.Logf != nil {
		r.Logf(format, args...)
	}
}

// Epoch returns the rule-table epoch counter after the last Optimize call
// (checkpointing saves it so a resumed run can continue the count).
func (r *Remy) Epoch() int { return r.epoch }

// EvalStats returns the evaluator work counters of the last Optimize call:
// how many specimen simulations ran, and how many were avoided by the memo
// cache and by usage pruning.
func (r *Remy) EvalStats() EvalStats { return r.evalStats }

// Optimize runs the design loop for the given number of rounds, starting
// from start (or the initial single-rule RemyCC when start is nil), and
// returns the best tree found together with the per-round progress log.
//
// One round is one pass of the paper's procedure: mark all rules with the
// current epoch, repeatedly improve the most-used unimproved rule until none
// remain, then advance the epoch and — every EpochsPerSplit epochs —
// subdivide the most-used rule at the median memory value that triggered it.
func (r *Remy) Optimize(start *core.WhiskerTree, rounds int) (*core.WhiskerTree, []Progress, error) {
	if err := r.Config.Validate(); err != nil {
		return nil, nil, err
	}
	if rounds < 1 {
		return nil, nil, fmt.Errorf("optimizer: rounds must be positive, got %d", rounds)
	}
	tree := start
	if tree == nil {
		tree = core.DefaultWhiskerTree()
	}
	tree = tree.Clone()

	eval := NewEvaluator(r.Objective)
	eval.Workers = r.Workers
	eval.Backend = r.Backend
	r.epoch = r.StartEpoch

	// Burn the specimen streams of already-completed rounds so a resumed
	// run draws exactly the specimen sets an uninterrupted run would have.
	rng := sim.NewRNG(r.Seed)
	for done := 0; done < r.StartRound; done++ {
		rng.Split(int64(done))
	}

	var progress []Progress
	var prevStats EvalStats
	for i := 0; i < rounds; i++ {
		round := r.StartRound + i
		specimens := r.Config.SampleSet(r.Config.Specimens, rng.Split(int64(round)))
		p, err := r.optimizeRound(tree, eval, specimens, round)
		if err != nil {
			return nil, nil, err
		}
		cum := eval.Stats()
		p.Stats = cum.Sub(prevStats)
		prevStats = cum
		progress = append(progress, p)
		r.logf("%s", p)
		if r.OnRound != nil {
			r.OnRound(p)
		}
	}
	r.evalStats = eval.Stats()
	r.logf("evaluator: %s", r.evalStats)
	return tree, progress, nil
}

// optimizeRound mutates tree in place through one round of the procedure.
func (r *Remy) optimizeRound(tree *core.WhiskerTree, eval *Evaluator, specimens []Specimen, round int) (Progress, error) {
	prog := Progress{Round: round, Epoch: r.epoch}

	// Step 1: set all rules to the current epoch.
	tree.SetAllEpochs(r.epoch)

	// Steps 2–3: repeatedly pick the most-used rule of this epoch and
	// improve its action until no candidate improves the score, then retire
	// it from this epoch. One usage evaluation is performed up front;
	// afterwards the evaluation of the current tree is carried through the
	// loop — improveAction returns the evaluation matching the tree it
	// leaves behind (unchanged when nothing was adopted, assembled from the
	// winning candidate's cached runs when something was), so the
	// re-evaluation the pre-optimization loop ran at the top of every pick
	// iteration is never a fresh simulation batch.
	evaluation, err := eval.EvaluateUsage(tree, specimens, r.Config)
	if err != nil {
		return prog, err
	}
	prog.Evaluated++
	for {
		idx := evaluation.MostUsed(tree, r.epoch)
		if idx < 0 {
			prog.Score = evaluation.Score
			break
		}
		improved, evaluated, next, err := r.improveAction(tree, eval, specimens, idx, evaluation)
		if err != nil {
			return prog, err
		}
		evaluation = next
		prog.Evaluated += evaluated
		if improved {
			prog.Improved++
		}
		if err := tree.SetEpoch(idx, r.epoch+1); err != nil {
			return prog, err
		}
	}

	// Step 4: advance the global epoch; every K epochs, subdivide. The
	// split needs the median memory point that triggered the most-used
	// rule, so this is the one evaluation that collects memory samples.
	r.epoch++
	if r.epoch%r.epochsPerSplit() == 0 && (r.MaxRules <= 0 || tree.NumWhiskers() < r.MaxRules) {
		full, err := eval.Evaluate(tree, specimens, r.Config)
		if err != nil {
			return prog, err
		}
		prog.Evaluated++
		idx := full.MostUsedAny()
		if idx >= 0 {
			median, ok := full.MedianMemory(idx)
			if !ok {
				w, _ := tree.Whisker(idx)
				median = w.Domain.Midpoint()
			}
			if err := tree.Split(idx, median); err != nil {
				return prog, err
			}
			prog.DidSplit = true
		}
	}
	prog.Rules = tree.NumWhiskers()
	prog.Epoch = r.epoch
	return prog, nil
}

// improveAction performs §4.3 step 3 for one rule: evaluate a ladder of
// candidate modifications to the rule's action on the same specimen
// networks, adopt the best improvement, and repeat until nothing improves.
// Candidates are built copy-on-write (structure shared with the incumbent)
// and scored through ScoreCandidates, which skips the specimens the
// modified rule cannot affect. It returns whether any improvement was
// adopted, how many candidate trees were evaluated, and the evaluation of
// the tree as it stands on return — the caller reuses it instead of
// re-evaluating.
func (r *Remy) improveAction(tree *core.WhiskerTree, eval *Evaluator, specimens []Specimen, idx int, current Evaluation) (bool, int, Evaluation, error) {
	improvedAny := false
	evaluated := 0
	bestScore := current.Score

	iters := r.ImprovementIters
	if iters <= 0 {
		iters = DefaultImprovementIters
	}
	rungs := r.CandidateRungs
	if rungs <= 0 {
		rungs = DefaultCandidateRungs
	}

	for iter := 0; iter < iters; iter++ {
		w, err := tree.Whisker(idx)
		if err != nil {
			return improvedAny, evaluated, current, err
		}
		candidates := w.Action.Neighbors(rungs)
		if len(candidates) == 0 {
			break
		}
		trees := make([]*core.WhiskerTree, len(candidates))
		for i, cand := range candidates {
			t, err := tree.WithAction(idx, cand)
			if err != nil {
				return improvedAny, evaluated, current, err
			}
			trees[i] = t
		}
		scores, err := eval.ScoreCandidates(current, trees, idx, specimens, r.Config)
		if err != nil {
			return improvedAny, evaluated, current, err
		}
		evaluated += len(trees)

		bestCand := -1
		for i, s := range scores {
			if s > bestScore {
				bestScore = s
				bestCand = i
			}
		}
		if bestCand < 0 {
			break
		}
		if err := tree.SetAction(idx, candidates[bestCand]); err != nil {
			return improvedAny, evaluated, current, err
		}
		improvedAny = true
		// Refresh the incumbent evaluation: every specimen of the adopted
		// candidate was either simulated just now or transferred from the
		// previous incumbent, so this is served entirely from the cache.
		current, err = eval.EvaluateUsage(tree, specimens, r.Config)
		if err != nil {
			return improvedAny, evaluated, current, err
		}
	}
	return improvedAny, evaluated, current, nil
}

func (r *Remy) epochsPerSplit() int {
	if r.EpochsPerSplit <= 0 {
		return DefaultEpochsPerSplit
	}
	return r.EpochsPerSplit
}
