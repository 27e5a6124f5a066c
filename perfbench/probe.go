package main

import (
	"context"
	"fmt"
	"time"

	"fnr/internal/engine"
	"fnr/internal/job"
	"fnr/internal/sim"
	"fnr/internal/stats"
)

// Layer probes: timed calls into single modules' public functions on
// the traced workload's own graph and specs, for the layers whose cost
// cannot be separated from outside a batch.

// probeReps is how many times each probe repeats; the median counts.
const probeReps = 5

// stayStepper does nothing: it stays put every round. It is Reusable,
// so a batch of it runs on the engine's lockstep lane like the
// workloads' strategies do.
type stayStepper struct{}

func (stayStepper) Init(*sim.StepContext)     {}
func (stayStepper) Reset(*sim.StepContext)    {}
func (stayStepper) Next(*sim.View) sim.Action { return sim.Stay() }

func stayProgram(e *sim.Env) {
	for {
		e.Stay()
	}
}

// stayAlgo is the registry name of the do-nothing strategy, registered
// with the timing wrappers.
const stayAlgo = tracedPrefix + "stay"

// The sim.round_ns probe: a batch of stayAlgo whose agents never meet,
// so each trial runs laneRounds rounds; the per-trial costs (arm,
// reset, Reducer.Add) are spread over that many rounds.
const (
	laneTrials = 256
	laneRounds = 2048
)

// probeLayers runs every probe. ref is specs[0]'s reference aggregate;
// the reducer replay must reproduce it.
func probeLayers(env *runEnv, m job.Materialized, specs []job.Spec, ref []byte) (map[string]float64, error) {
	out := map[string]float64{}

	// sim.round_ns: the lockstep lane's cost per trial-round on the
	// path the traced batches take: job.RunBuilt on env.workers engine
	// workers at the graph's automatic lane width, in worker time.
	stay := specs[0]
	stay.Algorithm = stayAlgo
	stay.Trials = laneTrials
	stay.MaxRounds = laneRounds
	var ns []float64
	for range probeReps {
		t0 := time.Now()
		res, err := job.RunBuilt(context.Background(), stay, m, job.ExecOptions{Workers: env.workers})
		wall := float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", stayAlgo, err)
		}
		env.attempted++
		if agg := res.Aggregate(); agg.Met != 0 || agg.Errors != 0 || agg.Trials != laneTrials {
			env.fail("probe "+stayAlgo, fmt.Sprintf("do-nothing agents met %d times, %d errors, %d trials", agg.Met, agg.Errors, agg.Trials))
		}
		ns = append(ns, wall*float64(env.workers)/(laneTrials*laneRounds))
	}
	out["sim.round_ns"] = stats.Median(ns)

	// sim.program_round_ns: the goroutine Program path's (sim.Run)
	// per-round cost, with do-nothing programs on one trial.
	const programRounds = 20_000
	cfg := sim.Config{Graph: m.Graph, StartA: m.StartA, StartB: m.StartB, NeighborIDs: true, Whiteboards: true, MaxRounds: programRounds}
	ns = ns[:0]
	for range probeReps {
		t0 := time.Now()
		if _, err := sim.Run(cfg, stayProgram, stayProgram); err != nil {
			return nil, fmt.Errorf("probe sim.Run: %w", err)
		}
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/programRounds)
	}
	out["sim.program_round_ns"] = stats.Median(ns)

	// Reducer replay: the outcomes of specs[0] fed through
	// Reducer.Add, a two-way Merge and Aggregate.
	b, err := specs[0].Batch(m, job.ExecOptions{Workers: env.workers})
	if err != nil {
		return nil, fmt.Errorf("probe lower: %w", err)
	}
	outcomes, err := engine.RunOutcomes(context.Background(), b)
	if err != nil {
		return nil, fmt.Errorf("probe engine.RunOutcomes: %w", err)
	}
	var addNS, mergeUS, aggUS []float64
	var replay *engine.Aggregate
	half := len(outcomes) / 2
	for range probeReps {
		lo, hi := engine.NewReducer(), engine.NewReducer()
		t0 := time.Now()
		for i, o := range outcomes[:half] {
			lo.Add(i, o)
		}
		for i, o := range outcomes[half:] {
			hi.Add(half+i, o)
		}
		addNS = append(addNS, float64(time.Since(t0).Nanoseconds())/float64(len(outcomes)))
		lo.AddSpan(0, half)
		hi.AddSpan(half, len(outcomes))
		t0 = time.Now()
		r := engine.Merge(lo, hi)
		mergeUS = append(mergeUS, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		replay = r.Aggregate(b)
		aggUS = append(aggUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	env.check("reducer replay of "+specs[0].Algorithm, replay, nil, ref)
	out["engine.reduce_add_ns"] = stats.Median(addNS)
	out["engine.merge_us"] = stats.Median(mergeUS)
	out["engine.aggregate_us"] = stats.Median(aggUS)

	// job: Normalize/Validate/Hash/WorkloadKey (what a submit costs
	// before any graph work) and lowering to an engine.Batch.
	const jobReps = 200
	var hashUS, lowerUS []float64
	for range probeReps {
		t0 := time.Now()
		for i := range jobReps {
			s := specs[i%len(specs)].Normalize()
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("probe validate: %w", err)
			}
			if _, err := s.Hash(); err != nil {
				return nil, fmt.Errorf("probe hash: %w", err)
			}
			_ = s.WorkloadKey()
		}
		hashUS = append(hashUS, float64(time.Since(t0).Nanoseconds())/1e3/jobReps)
		t0 = time.Now()
		for i := range jobReps {
			if _, err := specs[i%len(specs)].Batch(m, job.ExecOptions{}); err != nil {
				return nil, fmt.Errorf("probe lower: %w", err)
			}
		}
		lowerUS = append(lowerUS, float64(time.Since(t0).Nanoseconds())/1e3/jobReps)
	}
	out["job.normalize_hash_us"] = stats.Median(hashUS)
	out["job.lower_us"] = stats.Median(lowerUS)
	return out, nil
}
