package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"fnr/internal/engine"
	"fnr/internal/graph"
	"fnr/internal/job"
	"fnr/internal/sim"
	"fnr/internal/stats"
)

// batchConfig shapes an in-process batch workload: one planted graph
// and a cycle of specs run back to back through job.RunBuilt, one per
// (start pair, algorithm). Rendezvous time depends strongly on the
// start pair, so every seed draws several pairs: the cycle then
// averages over instances instead of resting on one.
type batchConfig struct {
	name  string
	n, d  int
	pairs int
	// pairsPerOp is how many start pairs one timed operation covers.
	pairsPerOp int
	// warmupOps is how many ops set-up runs as its warm-up: enough
	// that set-up lasts about a quarter second, so one scheduling
	// hiccup or a burst of boost clock in a short set-up does not set
	// setup_s.
	warmupOps int
	// midSweep places agent a behind the middle port of agent b's
	// start vertex instead of a uniform port. The sweep baseline is
	// deterministic: b meets a after visiting the ports before it, so
	// a uniform port would make a seed's cost hinge on a few port
	// draws; at the middle port every trial is half a sweep.
	midSweep bool
	algos    []string
	trials   int
	stream   uint64 // PCG stream the workload, pairs and batch seeds derive from
}

// paperBatch is Theorem 1's δ ≥ √n regime at the benchengine preset
// size (n = 1024, δ = 181 ≈ n^0.75): per-round strategy work
// dominates, fixed per-trial costs barely show.
var paperBatch = batchConfig{
	name: "paper-batch", n: 1024, d: 181, pairs: 16, pairsPerOp: 4, warmupOps: 1,
	algos:  []string{"whiteboard", "noboard"},
	trials: 256, stream: 0x9a9e4,
}

// tinyBatch is the mega preset's graph (n = 64, δ = 8) under the
// sweep baseline: nine-round trials, so per-trial fixed cost
// (engine chunking, lane arm/reset, Reducer.Add) dominates.
var tinyBatch = batchConfig{
	name: "tiny-batch", n: 64, d: 8, pairs: 2, pairsPerOp: 1, warmupOps: 5, midSweep: true,
	algos:  []string{"sweep"},
	trials: 100_000, stream: 0x7199e,
}

// module names the layer a registered strategy belongs to.
func module(alg string) string {
	switch alg {
	case "whiteboard", "noboard":
		return "core"
	}
	return "baseline"
}

// batchState is a set-up batch workload.
type batchState struct {
	cfg   batchConfig
	m     job.Materialized
	specs []job.Spec
	refs  [][]byte // reference aggregate JSON per spec, made after the timed window
}

// deriveBatch derives the workload, the start pairs and every batch
// seed from seed. Start pairs are drawn like job.Workload.Materialize
// draws its own: a uniform non-isolated vertex and a uniform neighbor.
func deriveBatch(cfg batchConfig, seed uint64) (job.Materialized, []job.Spec, error) {
	rng := rand.New(rand.NewPCG(seed, cfg.stream))
	wl := job.Workload{Kind: "planted", N: cfg.n, D: cfg.d, Seed: rng.Uint64()}
	m, err := wl.Materialize()
	if err != nil {
		return m, nil, fmt.Errorf("%s: materialize: %w", cfg.name, err)
	}
	g := m.Graph
	var specs []job.Spec
	for range cfg.pairs {
		a := rng.IntN(g.N())
		for g.Degree(graph.Vertex(a)) == 0 {
			a = rng.IntN(g.N())
		}
		adj := g.Adj(graph.Vertex(a))
		b := int(adj[rng.IntN(len(adj))])
		if cfg.midSweep {
			// a stays, b sweeps: put a behind b's middle port.
			a = int(g.Adj(graph.Vertex(b))[g.Degree(graph.Vertex(b))/2])
		}
		for _, alg := range cfg.algos {
			w := wl
			specs = append(specs, job.Spec{
				Algorithm: alg, Workload: &w, StartA: &a, StartB: &b,
				Trials: cfg.trials, Seed: rng.Uint64(),
			})
		}
	}
	return m, specs, nil
}

// setupBatch materializes the graph, derives the specs and warms up
// with warmupOps ops.
func setupBatch(env *runEnv, cfg batchConfig) (*batchState, float64, error) {
	t0 := time.Now()
	m, specs, err := deriveBatch(cfg, env.seed)
	if err != nil {
		return nil, 0, err
	}
	genMS := msSince(t0)
	perOp := len(cfg.algos) * cfg.pairsPerOp
	for i := range cfg.warmupOps * perOp {
		s := specs[i%len(specs)]
		if _, err := runSpec(s, m, env.workers); err != nil {
			return nil, 0, fmt.Errorf("%s: warm-up %s: %w", cfg.name, s.Algorithm, err)
		}
	}
	return &batchState{cfg: cfg, m: m, specs: specs}, genMS, nil
}

// runSpec runs one spec in-process and returns its aggregate JSON.
func runSpec(s job.Spec, m job.Materialized, workers int) ([]byte, error) {
	res, err := job.RunBuilt(context.Background(), s, m, job.ExecOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Aggregate())
}

// tracedBatch sums what the traced half of a run measured.
type tracedBatch struct {
	batches             int
	workerNS            float64 // Σ wall × workers
	nextNS              map[string]float64
	nextCalls           map[string]float64
	strategyNS          map[string]float64 // Σ Next ns by module
	rounds              float64
	trials              float64
	mallocs, allocBytes float64
	walls, plainWalls   []float64 // traced and untraced batch wall ms
}

func runBatchWorkload(env *runEnv, cfg batchConfig) (*outcome, error) {
	out := newOutcome()
	var st *batchState
	var genMS []float64
	for range env.setupRepeats() {
		t0 := time.Now()
		s, g, err := setupBatch(env, cfg)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		st, genMS = s, append(genMS, g)
		// Collect each set-up's garbage so the peak RSS does not
		// depend on when the collector happened to run.
		runtime.GC()
	}
	workers := env.workers
	first := make([][]byte, len(st.specs)) // each spec's first timed aggregate
	trials := 0                            // untraced trials run in the window

	// One op runs every algorithm on pairsPerOp start pairs, so ops are
	// alike whatever mix of algorithms the workload cycles through.
	per := len(cfg.algos)
	tb := &tracedBatch{nextNS: map[string]float64{}, nextCalls: map[string]float64{}, strategyNS: map[string]float64{}}
	start, cpu0 := time.Now(), cpuSeconds()
	for k := 0; env.more(start, out.ops); k++ {
		var opMS float64
		for j := range per * cfg.pairsPerOp {
			idx := (k*per*cfg.pairsPerOp + j) % len(st.specs)
			spec := st.specs[idx]
			t0 := time.Now()
			res, err := job.RunBuilt(context.Background(), spec, st.m, job.ExecOptions{Workers: workers})
			var agg *engine.Aggregate
			if err == nil {
				agg = res.Aggregate()
			}
			wall := msSince(t0)
			opMS += wall
			trials += spec.Trials
			label := fmt.Sprintf("%s op %d spec %d", cfg.name, k, idx)
			if first[idx] == nil && err == nil {
				// Checked against the reference after the window.
				first[idx], err = json.Marshal(agg)
			}
			plain := env.check(label, agg, err, first[idx])
			if env.traced {
				tb.plainWalls = append(tb.plainWalls, wall)
				if plain != nil {
					env.tracedOp(tb, st, spec, label, plain)
				}
			}
		}
		out.opDone(start)
		out.latencies = append(out.latencies, opMS)
	}
	out.elapsed, out.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0

	// References: every spec run once more on a single engine worker.
	// Each spec's timed aggregates all equal its first one (checked
	// above), and the first must equal the reference byte for byte.
	for idx, s := range st.specs {
		ref, err := runSpec(s, st.m, 1)
		if err != nil {
			return nil, fmt.Errorf("%s: reference %d: %w", cfg.name, idx, err)
		}
		st.refs = append(st.refs, ref)
		out.digests = append(out.digests, digest(ref))
		if first[idx] != nil {
			env.checkBytes(fmt.Sprintf("%s spec %d", cfg.name, idx), first[idx], nil, ref)
		}
	}
	if env.traced {
		if err := batchLayers(env, out, st, tb, stats.Median(genMS)); err != nil {
			return nil, err
		}
	}
	out.detail["trials_per_batch"] = cfg.trials
	out.detail["batches_per_op"] = per * cfg.pairsPerOp
	out.detail["trials_per_s"] = float64(trials) / out.elapsed
	out.detail["engine_workers"] = workers
	return out, nil
}

// tracedOp reruns spec through its timing wrapper, records the
// batch span with the counts measured around it, and checks the
// traced aggregate against the untraced one on every field except the
// algorithm name.
func (env *runEnv) tracedOp(tb *tracedBatch, st *batchState, spec job.Spec, label string, plain *engine.Aggregate) {
	alg := spec.Algorithm
	ts := spec
	ts.Algorithm = tracedPrefix + alg
	counters := tracedStats[alg]
	snap0 := counters.snapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	res, err := job.RunBuilt(context.Background(), ts, st.m, job.ExecOptions{Workers: env.workers})
	var agg *engine.Aggregate
	if err == nil {
		agg = res.Aggregate()
	}
	t1 := time.Now()
	runtime.ReadMemStats(&ms1)
	calls, nextNS := snap0.estimate(counters.snapshot())
	if agg != nil {
		agg.Algorithm = alg
	}
	want, _ := json.Marshal(plain)
	if env.check("traced "+label, agg, err, want) == nil {
		return
	}
	wall := float64(t1.Sub(t0).Nanoseconds())
	rounds := totalRounds(agg, st.m, spec)
	attrs := map[string]float64{
		"next_ns": nextNS, "next_calls": calls,
		"rounds": rounds, "trials": float64(spec.Trials), "workers": float64(env.workers),
		"mallocs": float64(ms1.Mallocs - ms0.Mallocs), "alloc_bytes": float64(ms1.TotalAlloc - ms0.TotalAlloc),
	}
	env.tr.record(0, label, "job.RunBuilt", t0, t1, attrs)
	tb.batches++
	tb.workerNS += wall * float64(env.workers)
	tb.nextNS[alg] += attrs["next_ns"]
	tb.nextCalls[alg] += attrs["next_calls"]
	tb.strategyNS[module(alg)] += attrs["next_ns"]
	tb.rounds += rounds
	tb.trials += attrs["trials"]
	tb.mallocs += attrs["mallocs"]
	tb.allocBytes += attrs["alloc_bytes"]
	tb.walls = append(tb.walls, wall/1e6)
}

// totalRounds is the number of simulated rounds a batch ran: met
// trials end at their meeting round, the rest at the round budget.
func totalRounds(agg *engine.Aggregate, m job.Materialized, s job.Spec) float64 {
	budget := s.MaxRounds
	if budget == 0 {
		budget = sim.DefaultMaxRounds(m.Graph)
	}
	return float64(agg.Met)*agg.Rounds.Mean + float64(agg.Failures)*float64(budget)
}

// batchLayers turns the traced batches and the layer probes into
// per-layer metrics. Times are in worker time (wall × engine
// workers) so they compare with the summed Next time of all workers:
// strategy = Σ Next, sim = rounds × sim.round_ns (the runtime's
// per-round cost with a do-nothing stepper), engine = the rest
// (scheduling, lane arm/reset, reduction, idle tail), so the three
// add up to the traced batch time by construction.
func batchLayers(env *runEnv, out *outcome, st *batchState, tb *tracedBatch, genMS float64) error {
	if tb.batches == 0 {
		return fmt.Errorf("%s: no traced batch completed", st.cfg.name)
	}
	p, err := probeLayers(env, st.m, st.specs, st.refs[0])
	if err != nil {
		return err
	}
	for k, v := range p {
		out.layer[k] = v
	}
	per := func(x float64) float64 { return x / float64(tb.batches) }
	roundNS := p["sim.round_ns"]
	workerMS := per(tb.workerNS) / 1e6
	simMS := per(tb.rounds) * roundNS / 1e6
	var strategyMS float64
	for mod, ns := range tb.strategyNS {
		out.layer[mod+".self_ms"] = per(ns) / 1e6
		strategyMS += per(ns) / 1e6
	}
	for alg, ns := range tb.nextNS {
		out.layer[nextMetric(alg)] = ns / tb.nextCalls[alg]
		out.layer[module(alg)+".next_calls"] += per(tb.nextCalls[alg])
	}
	engineMS := workerMS - strategyMS - simMS
	out.layer["engine.batch_worker_ms"] = workerMS
	out.layer["sim.self_ms"] = simMS
	out.layer["engine.self_ms"] = engineMS
	out.layer["sim.rounds"] = per(tb.rounds)
	out.layer["sim.self_ns_per_round"] = (tb.workerNS - sum(tb.strategyNS)) / tb.rounds
	out.layer["engine.lane_width"] = float64(engine.AutoLaneWidth(st.m.Graph.N()))
	out.layer["engine.allocs_per_trial"] = tb.mallocs / tb.trials
	out.layer["engine.alloc_bytes_per_trial"] = tb.allocBytes / tb.trials
	out.layer["graph.generate_ms"] = genMS
	out.layer["graph.footprint_mb"] = float64(st.m.Graph.FootprintBytes()) / 1e6
	out.layer["trace.overhead_pct"] = overheadPct(tb.walls, tb.plainWalls)
	out.detail["self_time_ms_per_batch"] = map[string]float64{
		"traced_batch_worker": workerMS, "strategy": strategyMS, "sim": simMS, "engine": engineMS,
		"sum": strategyMS + simMS + engineMS,
	}
	out.detail["traced_batches"] = tb.batches
	return nil
}

// nextMetric names an algorithm's per-Next time metric.
func nextMetric(alg string) string { return module(alg) + ".next_ns." + alg }

func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// overheadPct is the tracing overhead: how much slower the median
// traced operation ran than the median untraced one of the same run.
func overheadPct(traced, plain []float64) float64 {
	return (stats.Median(traced)/stats.Median(plain) - 1) * 100
}
