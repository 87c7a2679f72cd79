package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The churn_campaign job: the pinned parking-lot flow-churn sweep
// (inputs/sweep.json, 12 cells) through campaign.Executor.Run with a
// manifest in a fresh temporary directory, then BuildReport, Encode and
// WriteCSV. One op per cell plus one for the report.

// replayCells are the cells a traced run replays through the layers below
// the campaign: one per scheme, spread over the three loads.
var replayCells = []int{0, 5, 7, 10}

var churnWorkload = workload{
	name:      "churn_campaign",
	opsPerJob: 13,
	setup:     setupChurn,
	measured: []string{
		"campaign.run_s", "campaign.report_s", "campaign.cells", "campaign.cells_failed",
		"campaign.attempts", "campaign.cpu_util", "campaign.straggler_s",
		"scenario.compile_s",
		"harness.session_build_s", "harness.run_s", "harness.ns_per_event",
		"harness.allocs_per_run", "harness.alloc_bytes_per_run",
		"harness.flows_spawned", "harness.flows_completed", "harness.flows_rejected",
		"sim.events", "sim.events_per_sim_s",
		"netsim.packets_offered", "netsim.packets_delivered", "netsim.packets_dropped", "netsim.acks_dropped",
		"cc.packets_sent", "cc.retransmissions", "cc.timeouts", "cc.useful_ratio",
	},
}

type churnJob struct {
	sweep     campaign.SweepSpec
	remy      *core.WhiskerTree
	scoreSeed int64
	workers   int
	engine    *sim.Engine
	// replayRef holds the last traced job's results of the replayed cells,
	// by cell index, for the replay to reproduce.
	replayRef map[int][]scenario.Result
}

func setupChurn(e env) (job, error) {
	paths, err := e.man.verify(e.inputs, "sweep.json")
	if err != nil {
		return nil, err
	}
	sweep, err := campaign.ReadFile(paths[0])
	if err != nil {
		return nil, err
	}
	// The sweep names its table relative to itself; only a pinned table may
	// run.
	trees, err := verifyTables(e, sweep.RemyCC)
	if err != nil {
		return nil, err
	}
	sweep.RemyCC = filepath.Join(e.inputs, sweep.RemyCC)
	sweep.Seed = e.seed
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	reg := scenario.Default()
	for i := 0; i < sweep.NumCells(); i++ {
		cell, err := sweep.Cell(i)
		if err != nil {
			return nil, err
		}
		spec, err := cell.Spec()
		if err != nil {
			return nil, err
		}
		if _, _, err := spec.Compile(reg, 0); err != nil {
			return nil, fmt.Errorf("cell %s: %w", cell.ID, err)
		}
	}
	return &churnJob{
		sweep:     sweep,
		remy:      trees[0],
		scoreSeed: e.man.ScoreSeed,
		workers:   e.workers,
		engine:    sim.NewEngine(),
	}, nil
}

func (j *churnJob) run(tr *trace) []opResult {
	n := j.sweep.NumCells()
	failAll := func(err error) []opResult {
		ops := make([]opResult, 0, n+1)
		for i := 0; i < n; i++ {
			ops = append(ops, failedOp(fmt.Sprintf("cell/%d", i), err))
		}
		return append(ops, failedOp("report", err))
	}
	dir, err := os.MkdirTemp("", "perfbench-campaign-")
	if err != nil {
		return failAll(err)
	}
	defer os.RemoveAll(dir)

	var (
		mu        sync.Mutex
		doneAt    []time.Time
		violation = map[int]error{}
		ref       = map[int][]scenario.Result{}
	)
	exec := campaign.Executor{
		Workers:      j.workers,
		InnerWorkers: j.workers,
		OnCell: func(c campaign.Cell, results []scenario.Result) {
			now := time.Now()
			mu.Lock()
			defer mu.Unlock()
			doneAt = append(doneAt, now)
			if err := checkChurnCounts(results); err != nil {
				violation[c.Index] = err
			}
			if tr != nil && slices.Contains(replayCells, c.Index) {
				ref[c.Index] = results
			}
		},
	}
	cpu0 := processCPUSeconds()
	t0 := time.Now()
	records, err := exec.Run(j.sweep, campaign.RunOptions{ManifestPath: filepath.Join(dir, "manifest.jsonl")})
	runS := time.Since(t0).Seconds()
	cpu := processCPUSeconds() - cpu0
	if err != nil {
		return failAll(err)
	}

	t1 := time.Now()
	report, err := campaign.BuildReport(j.sweep, records)
	var js []byte
	var csv bytes.Buffer
	if err == nil {
		js, err = report.Encode()
	}
	if err == nil {
		err = report.WriteCSV(&csv)
	}
	reportS := time.Since(t1).Seconds()

	ops := make([]opResult, 0, len(records)+1)
	failed, attempts := 0, 0
	for _, rec := range records {
		op := opResult{id: fmt.Sprintf("cell/%d", rec.Index)}
		attempts += max(1, rec.Attempts)
		switch {
		case rec.Failure != "":
			op.err = fmt.Errorf("cell %s quarantined: %s", rec.ID, rec.Failure)
			failed++
		case violation[rec.Index] != nil:
			op.err = fmt.Errorf("cell %s: %w", rec.ID, violation[rec.Index])
		default:
			b, merr := json.Marshal(rec)
			op.digest, op.err = digestOf(b), merr
		}
		ops = append(ops, op)
	}
	if err != nil {
		ops = append(ops, failedOp("report", err))
	} else {
		ops = append(ops, opResult{id: "report", digest: digestOf(js, csv.Bytes())})
	}

	sort.Slice(doneAt, func(a, b int) bool { return doneAt[a].Before(doneAt[b]) })
	straggler := 0.0
	if k := len(doneAt) - 1 - j.workers; k >= 0 {
		straggler = doneAt[len(doneAt)-1].Sub(doneAt[k]).Seconds()
	}
	tr.set("campaign.run_s", runS)
	tr.set("campaign.report_s", reportS)
	tr.set("campaign.cells", float64(len(records)))
	tr.set("campaign.cells_failed", float64(failed))
	tr.set("campaign.attempts", float64(attempts))
	tr.set("campaign.cpu_util", ratio(cpu, runS*float64(j.workers)))
	tr.set("campaign.straggler_s", straggler)
	if tr != nil {
		j.replayRef = ref
	}
	return ops
}

// checkChurnCounts enforces Completed ≤ Spawned for every churn class.
func checkChurnCounts(results []scenario.Result) error {
	for _, r := range results {
		for _, c := range r.Res.Churn {
			if c.Completed > c.Spawned {
				return fmt.Errorf("rep %d class %d: %d flows completed but only %d spawned", r.Rep, c.Class, c.Completed, c.Spawned)
			}
		}
	}
	return nil
}

// replay re-runs the sampled cells one repetition at a time through
// Cell.Spec → Spec.Compile → harness.NewSessionOn (on an engine the
// benchmark owns) → Session.Run, timing each layer and reading the counters
// the harness returns. Each replayed repetition must reproduce the
// campaign's result for it.
func (j *churnJob) replay(tr *trace) []opResult {
	reg := scenario.Default()
	var compileS, buildS, runS, simS, allocs, allocBytes []float64
	var events, spawned, completed, rejected, offered, delivered, dropped, acksDropped int64
	var sent, retx, timeouts int64
	allocSamples := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	var ops []opResult
	for _, idx := range replayCells {
		var counts []byte // what the replayed repetitions counted, digested as the op's output
		err := func() error {
			cell, err := j.sweep.Cell(idx)
			if err != nil {
				return err
			}
			spec, err := cell.Spec()
			if err != nil {
				return err
			}
			ref := j.replayRef[idx]
			if len(ref) != spec.Reps() {
				return fmt.Errorf("cell %s: the campaign returned %d of %d repetitions", cell.ID, len(ref), spec.Reps())
			}
			for rep := 0; rep < spec.Reps(); rep++ {
				t0 := time.Now()
				scen, seed, err := spec.Compile(reg, rep)
				if err != nil {
					return err
				}
				t1 := time.Now()
				sess, err := harness.NewSessionOn(j.engine, scen)
				if err != nil {
					return err
				}
				t2 := time.Now()
				metrics.Read(allocSamples)
				a0, b0 := allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
				res, err := sess.Run(seed)
				t3 := time.Now()
				metrics.Read(allocSamples)
				if err != nil {
					return err
				}
				if err := sameCounts(res, ref[rep].Res); err != nil {
					return fmt.Errorf("cell %s rep %d: replay differs from the campaign: %w", cell.ID, rep, err)
				}
				if err := checkChurnCounts([]scenario.Result{{Rep: rep, Res: res}}); err != nil {
					return fmt.Errorf("cell %s: %w", cell.ID, err)
				}
				counts = fmt.Appendf(counts, "rep %d events %d packets %d/%d/%d/%d churn %v\n",
					rep, j.engine.Executed(), res.Offered, res.Delivered, res.Dropped, res.AcksDropped, res.Churn)
				compileS = append(compileS, t1.Sub(t0).Seconds())
				buildS = append(buildS, t2.Sub(t1).Seconds())
				runS = append(runS, t3.Sub(t2).Seconds())
				simS = append(simS, scen.Duration.Seconds())
				allocs = append(allocs, float64(allocSamples[0].Value.Uint64()-a0))
				allocBytes = append(allocBytes, float64(allocSamples[1].Value.Uint64()-b0))
				events += int64(j.engine.Executed())
				offered += res.Offered
				delivered += res.Delivered
				dropped += res.Dropped
				acksDropped += res.AcksDropped
				for _, c := range res.Churn {
					spawned += c.Spawned
					completed += c.Completed
					rejected += c.Rejected
					sent += c.Transport.PacketsSent
					retx += c.Transport.Retransmissions
					timeouts += c.Transport.Timeouts
				}
				for _, f := range res.Flows {
					sent += f.Transport.PacketsSent
					retx += f.Transport.Retransmissions
					timeouts += f.Transport.Timeouts
				}
			}
			return nil
		}()
		ops = append(ops, opResult{id: fmt.Sprintf("replay/%d", idx), digest: digestOf(counts), err: err})
	}
	tr.set("scenario.compile_s", mean(compileS))
	tr.set("harness.session_build_s", mean(buildS))
	tr.set("harness.run_s", mean(runS))
	tr.set("harness.ns_per_event", 1e9*ratio(sum(runS), float64(events)))
	tr.set("harness.allocs_per_run", mean(allocs))
	tr.set("harness.alloc_bytes_per_run", mean(allocBytes))
	tr.set("harness.flows_spawned", float64(spawned))
	tr.set("harness.flows_completed", float64(completed))
	tr.set("harness.flows_rejected", float64(rejected))
	tr.set("sim.events", float64(events))
	tr.set("sim.events_per_sim_s", ratio(float64(events), sum(simS)))
	tr.set("netsim.packets_offered", float64(offered))
	tr.set("netsim.packets_delivered", float64(delivered))
	tr.set("netsim.packets_dropped", float64(dropped))
	tr.set("netsim.acks_dropped", float64(acksDropped))
	tr.set("cc.packets_sent", float64(sent))
	tr.set("cc.retransmissions", float64(retx))
	tr.set("cc.timeouts", float64(timeouts))
	tr.set("cc.useful_ratio", 1-ratio(float64(retx), float64(sent)))
	return ops
}

// sameCounts compares the counters a replayed repetition shares with the
// campaign's run of it.
func sameCounts(got, want harness.Result) error {
	if got.Offered != want.Offered || got.Delivered != want.Delivered || got.Dropped != want.Dropped || got.AcksDropped != want.AcksDropped {
		return fmt.Errorf("packets offered/delivered/dropped/acks-dropped %d/%d/%d/%d, campaign %d/%d/%d/%d",
			got.Offered, got.Delivered, got.Dropped, got.AcksDropped, want.Offered, want.Delivered, want.Dropped, want.AcksDropped)
	}
	if len(got.Churn) != len(want.Churn) {
		return fmt.Errorf("%d churn classes, campaign %d", len(got.Churn), len(want.Churn))
	}
	for i := range got.Churn {
		g, w := got.Churn[i], want.Churn[i]
		if g.Spawned != w.Spawned || g.Completed != w.Completed || g.Rejected != w.Rejected {
			return fmt.Errorf("class %d spawned/completed/rejected %d/%d/%d, campaign %d/%d/%d",
				i, g.Spawned, g.Completed, g.Rejected, w.Spawned, w.Completed, w.Rejected)
		}
	}
	return nil
}

func (j *churnJob) score() (float64, error) {
	return heldOutScore(j.remy, j.scoreSeed, j.workers)
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
