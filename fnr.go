// Package fnr is a from-scratch Go reproduction of the paper "Fast
// Neighborhood Rendezvous" (Ryota Eguchi, Naoki Kitamura, Taisuke
// Izumi; ICDCS 2020, arXiv:2105.03638): two mobile agents placed on
// adjacent vertices of a graph must meet at a common vertex in as few
// synchronous rounds as possible.
//
// The package bundles:
//
//   - the paper's two randomized algorithms — the whiteboard algorithm
//     of Theorem 1 (Construct + Main-Rendezvous, O(n/δ·log²n +
//     √(n∆/δ)·log n) rounds w.h.p. for δ ≥ √n) and the whiteboard-free
//     algorithm of Theorem 2 (O(n/√δ·log²n) rounds w.h.p. under tight
//     naming), including the §4.1 doubling minimum-degree estimation;
//   - the baselines they are measured against (the trivial O(∆)
//     neighbor sweep, DFS exploration, random walks, and a birthday
//     strategy for complete graphs standing in for Anderson–Weber);
//   - the synchronous two-agent simulator implementing the paper's
//     model (per-round moves, whiteboards, KT1/KT0 neighbor-ID
//     visibility, rendezvous = co-location at the start of a round);
//   - graph generators, including the hard instances behind the
//     paper's four Ω(·) lower bounds (Theorems 3–6); and
//   - the experiment suite (E1–E12, S1, A1, A2; see Experiments and
//     cmd/experiments), reproducing every quantitative claim.
//
// # Quick start
//
//	g, _ := fnr.PlantedMinDegree(1024, 181, rand.New(rand.NewPCG(1, 2)))
//	res, err := fnr.Rendezvous(g, 0, g.Adj(0)[0], fnr.AlgWhiteboard, fnr.Options{Seed: 7})
//	if err != nil { ... }
//	fmt.Println(res.Met, res.MeetRound)
//
// Custom agents implement Program against Env and run under RunPrograms.
package fnr

import (
	"context"
	"errors"
	"fmt"

	"fnr/internal/algo"
	"fnr/internal/core"
	"fnr/internal/engine"
	"fnr/internal/graph"
	"fnr/internal/harness"
	"fnr/internal/job"
	"fnr/internal/lower"
	"fnr/internal/sim"

	// Strategy registrations: each package's init adds its specs to
	// the algo registry (the blank-import idiom). Everything below —
	// Algorithm, ParseAlgorithm, Rendezvous, RunBatch — is served
	// from that registry.
	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// Core re-exported types. Aliases keep the internal packages private
// while letting users hold and pass the values around.
type (
	// Graph is an immutable undirected simple graph with unique vertex
	// IDs and explicit port numbering.
	Graph = graph.Graph
	// Vertex is a dense internal vertex index.
	Vertex = graph.Vertex
	// Builder assembles custom graphs.
	Builder = graph.Builder
	// Params carries every constant of the paper's pseudocode.
	Params = core.Params
	// Result reports a simulation outcome.
	Result = sim.Result
	// RoundEvent is delivered to observers once per round.
	RoundEvent = sim.RoundEvent
	// SimConfig configures a raw two-program simulation.
	SimConfig = sim.Config
	// Env is an agent's handle onto the simulation.
	Env = sim.Env
	// Program is a mobile-agent algorithm in direct style.
	Program = sim.Program
	// Stepper is a mobile-agent algorithm in state-machine style —
	// the fast path for batch trials.
	Stepper = sim.Stepper
	// StepperFinisher is the optional stepper-lifecycle hook: a
	// Stepper owning execution resources implements Finish, and the
	// runtime guarantees it runs on every exit path of a run.
	StepperFinisher = sim.Finisher
	// StepContext carries the run-constant inputs to a Stepper's Init.
	StepContext = sim.StepContext
	// AgentName identifies an agent by team index (AgentA and AgentB
	// are agents 0 and 1 of the default two-agent setting).
	AgentName = sim.AgentName
	// Scenario generalizes a simulation beyond the paper's two-agent
	// setting: k ≥ 2 agents with per-agent start vertices and wake
	// delays, gathered (or pairwise-met) under a chosen predicate.
	// Set it on SimConfig.Scenario or Batch.Scenario; nil means the
	// legacy two-agent run.
	Scenario = sim.Scenario
	// AgentStats is one agent's per-run accounting (moves, stays);
	// Result.Agents carries one per agent on k > 2 runs.
	AgentStats = sim.AgentStats
	// AgentScratch is a per-agent reusable scratch slot on the batch
	// engine's trial contexts; long-lived strategies can park state
	// there across trials (see StepContext.Scratch).
	AgentScratch = sim.AgentScratch
	// View is the per-round observation handed to a Stepper.
	View = sim.View
	// Action is one Stepper decision for one acting round.
	Action = sim.Action
	// Instance is a packaged lower-bound scenario.
	Instance = lower.Instance
	// Experiment is one entry of the reproduction suite.
	Experiment = harness.Experiment
	// ExperimentConfig tunes the reproduction suite.
	ExperimentConfig = harness.Config
	// Table is an experiment's rendered result.
	Table = harness.Table
	// WhiteboardStats exposes agent a's diagnostics for AlgWhiteboard.
	WhiteboardStats = core.WhiteboardStats
	// NoboardStats exposes diagnostics for AlgNoWhiteboard.
	NoboardStats = core.NoboardStats
)

// NoMark is the empty-whiteboard sentinel.
const NoMark = sim.NoMark

// V3MaxChunkLen is the largest frame payload the v3 graph reader
// accepts — the bound on a streaming decode's transient buffer.
const V3MaxChunkLen = graph.V3MaxChunkLen

// The two agents of a legacy run (team indices 0 and 1).
const (
	AgentA = sim.AgentA
	AgentB = sim.AgentB
)

// MaxScenarioAgents is the largest team size a Scenario can name.
const MaxScenarioAgents = sim.MaxAgents

// Graph generators, re-exported from the graph substrate.
var (
	NewBuilder    = graph.NewBuilder
	Rebuild       = graph.Rebuild
	FromAdjacency = graph.FromAdjacency
	// ReadGraph parses any serialization format (v1 text, v2 binary,
	// v3 chunked binary), auto-detected. Graph.WriteTo writes text,
	// Graph.WriteBinary writes v2; Graph.WriteBinaryV3 writes the
	// streaming chunked format, the only one whose arc count may
	// exceed 2³¹ and whose decode keeps transient memory bounded by
	// the chunk size.
	ReadGraph        = graph.Read
	Complete         = graph.Complete
	Ring             = graph.Ring
	Path             = graph.Path
	Star             = graph.Star
	Grid             = graph.Grid
	Torus            = graph.Torus
	Hypercube        = graph.Hypercube
	GNP              = graph.GNP
	GNPExact         = graph.GNPExact
	PlantedMinDegree = graph.PlantedMinDegree
	// PlantedMinDegreeProgress is PlantedMinDegree with a progress
	// callback (done vs expected edges) for long generations.
	PlantedMinDegreeProgress = graph.PlantedMinDegreeProgress
	RandomRegular            = graph.RandomRegular
	BFSDistances             = graph.BFSDistances
	Dist                     = graph.Dist
	IsConnected              = graph.IsConnected
	PairsAtDistance          = graph.PairsAtDistance
)

// Parameter presets.
var (
	// PaperParams returns the constants exactly as printed in the paper.
	PaperParams = core.PaperParams
	// PracticalParams returns constants scaled for laptop-size n (the
	// default; see core.PracticalParams on constant scaling).
	PracticalParams = core.PracticalParams
)

// VerifyDense checks the paper's (z, α, β)-dense condition of a vertex
// set against the ground-truth graph (test/diagnostics helper).
var VerifyDense = core.VerifyDense

// Stepper action constructors and adapters, re-exported for custom
// strategies (see RunSteppers and RegisterAlgorithm).
var (
	// ActStay spends one round at the current vertex.
	ActStay = sim.Stay
	// ActStayFor spends k rounds at the current vertex (k < 1 is
	// clamped to 1); the simulator fast-forwards overlapping waits.
	ActStayFor = sim.StayFor
	// ActMove crosses the edge behind a local port.
	ActMove = sim.Move
	// ActHalt stops the agent at its current vertex permanently.
	ActHalt = sim.Halt
	// ActAbort fails the whole run with an error (the stepper
	// counterpart of a Program panic).
	ActAbort = sim.Abort
	// ProgramStepper adapts a direct-style Program into a Stepper via
	// a lightweight coroutine — the host every Program runs on,
	// including under RunPrograms and Rendezvous.
	ProgramStepper = sim.NewProgramStepper
	// AlgorithmSteppersFromPrograms lifts an AlgorithmSpec.Build
	// function into a BuildSteppers function using ProgramStepper
	// (RunBatch, RunBatchReduced and RunBatchCheckpointed do this
	// themselves for specs without BuildSteppers).
	AlgorithmSteppersFromPrograms = algo.SteppersFromPrograms
	// FinishStepper releases a stepper's execution resources if it
	// implements StepperFinisher (safe on nil) — call it on steppers
	// that were built but never handed to a run.
	FinishStepper = sim.Finish
)

// Experiments returns the full reproduction suite (E1–E12, S1, A1,
// A2).
func Experiments() []Experiment { return harness.All() }

// ExperimentByID looks up one suite entry.
func ExperimentByID(id string) (Experiment, bool) { return harness.ByID(id) }

// Algorithm selects a rendezvous strategy for Rendezvous. Its value
// is an index into the registry listing (see Algorithms); the named
// constants below are stable because the built-in strategies register
// with matching algo.Spec.Order ranks.
type Algorithm int

// The built-in strategies.
const (
	// AlgWhiteboard is the paper's Theorem-1 algorithm (Construct +
	// Main-Rendezvous). Needs whiteboards and neighbor IDs.
	AlgWhiteboard Algorithm = iota
	// AlgNoWhiteboard is the paper's Theorem-2 algorithm. Needs
	// neighbor IDs and tight naming; Options.Delta must be set.
	AlgNoWhiteboard
	// AlgSweep is the trivial O(∆) baseline: a waits, b sweeps its
	// neighborhood.
	AlgSweep
	// AlgDFS is rendezvous by full graph exploration: a waits, b
	// walks a DFS traversal.
	AlgDFS
	// AlgStayWalk is the wait-and-random-walk baseline (KT0-capable).
	AlgStayWalk
	// AlgWalkPair runs two independent random walkers (KT0-capable).
	AlgWalkPair
	// AlgBirthday is the complete-graph whiteboard birthday strategy
	// standing in for Anderson–Weber [6].
	AlgBirthday
)

// specOf resolves an Algorithm value against the registry.
func specOf(a Algorithm) (algo.Spec, error) {
	specs := algo.Specs()
	if int(a) < 0 || int(a) >= len(specs) {
		// Format the raw value: rendering `a` itself would re-enter
		// String → specOf.
		return algo.Spec{}, fmt.Errorf("fnr: unknown algorithm Algorithm(%d)", int(a))
	}
	return specs[int(a)], nil
}

// String returns the CLI-friendly registered name.
func (a Algorithm) String() string {
	if spec, err := specOf(a); err == nil {
		return spec.Name
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm maps a registered name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for i, spec := range algo.Specs() {
		if spec.Name == s {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("fnr: unknown algorithm %q (registered: %v)", s, algo.Names())
}

// AlgorithmInfo describes one registered strategy for discovery (CLI
// -algo listings, documentation).
type AlgorithmInfo struct {
	// Algorithm is the value to pass to Rendezvous.
	Algorithm Algorithm
	// Name is the registered CLI name.
	Name string
	// Summary is a one-line description.
	Summary string
	// NeedsNeighborIDs marks KT1-only strategies.
	NeedsNeighborIDs bool
	// NeedsWhiteboards marks strategies that write vertex whiteboards.
	NeedsWhiteboards bool
	// NeedsDelta marks strategies that require Options.Delta.
	NeedsDelta bool
}

// Algorithms enumerates every registered strategy in Algorithm order.
// The list is dynamic: strategies registered through
// RegisterAlgorithm appear alongside the built-ins.
func Algorithms() []AlgorithmInfo {
	specs := algo.Specs()
	out := make([]AlgorithmInfo, len(specs))
	for i, s := range specs {
		out[i] = AlgorithmInfo{
			Algorithm:        Algorithm(i),
			Name:             s.Name,
			Summary:          s.Summary,
			NeedsNeighborIDs: s.Caps.NeighborIDs,
			NeedsWhiteboards: s.Caps.Whiteboards,
			NeedsDelta:       s.Caps.NeedsDelta,
		}
	}
	return out
}

// Registry extension surface, re-exported so user packages can plug
// in strategies without reaching into internal paths.
type (
	// AlgorithmSpec is a registrable strategy description.
	AlgorithmSpec = algo.Spec
	// AlgorithmCaps declares a strategy's simulation capabilities.
	AlgorithmCaps = algo.Caps
	// AlgorithmBuildOpts carries per-run inputs to a Build function.
	AlgorithmBuildOpts = algo.BuildOpts
)

// RegisterAlgorithm adds a strategy to the registry (typically from
// an init function). Registered strategies are resolvable by
// ParseAlgorithm, runnable by Rendezvous and the batch calls
// (RunBatch, RunBatchReduced, RunBatchCheckpointed), and listed by
// Algorithms. Pick a unique Order ≥ 100: orders rank the listing
// (and thus Algorithm values), and a duplicate — including the zero
// value, which collides with AlgWhiteboard's rank — panics at
// registration.
//
// A spec can describe its agents two ways, and the choice is a
// throughput tradeoff:
//
//   - Build (required) constructs direct-style Programs: ordinary Go
//     functions, easiest to write and read, each hosted on a
//     coroutine (ProgramStepper) with one context switch per acting
//     round. Rendezvous runs this form, and so do the batch calls
//     when BuildSteppers is absent.
//   - BuildSteppers (optional) constructs state-machine Steppers that
//     the simulator steps inline, with no coroutine and with stepper
//     reuse across a batch's trials. Batches select this form
//     automatically when it is present; on the reference benchmark
//     it is several times faster per trial.
//
// A spec that provides both must keep them behaviorally identical
// (same actions, same RNG draw order).
var RegisterAlgorithm = algo.Register

// Options tunes a Rendezvous run. The zero value is usable for every
// algorithm except AlgNoWhiteboard (which needs Delta).
type Options struct {
	// Seed drives all agent randomness. Seed 0 is normalized to 1 by
	// the simulator itself, so every single-run entry point
	// (Rendezvous, RunPrograms, RunSteppers, RunTeam) agrees on the
	// default run. Batches take Batch.Seed instead and derive one
	// seed per trial from it.
	Seed uint64
	// MaxRounds bounds the run (defaults to 4n²+1000).
	MaxRounds int64
	// Params overrides the algorithm constants (defaults to
	// PracticalParams).
	Params Params
	// Delta is the minimum degree known to the agents. Zero means
	// "unknown": AlgWhiteboard then uses the §4.1 doubling estimation;
	// AlgNoWhiteboard reports an error (Theorem 2 assumes known δ).
	Delta int
	// Observer, if set, receives one event per simulated round.
	Observer func(RoundEvent)
	// WhiteboardStats, if set, collects agent a's diagnostics
	// (AlgWhiteboard only).
	WhiteboardStats *WhiteboardStats
	// NoboardStats, if set, collects diagnostics (AlgNoWhiteboard
	// only).
	NoboardStats *NoboardStats
}

// buildOpts lowers Options to the registry builders' input.
func buildOpts(opt Options) algo.BuildOpts {
	params := opt.Params
	if params == (Params{}) {
		params = core.PracticalParams()
	}
	return algo.BuildOpts{
		Params:          params,
		Delta:           opt.Delta,
		WhiteboardStats: opt.WhiteboardStats,
		NoboardStats:    opt.NoboardStats,
	}
}

// BuildPrograms constructs one run's direct-style Program pair for a
// registered algorithm — the building block for driving a registered
// strategy through RunPrograms with a custom SimConfig. Programs are
// stateful: build a fresh pair per run.
func BuildPrograms(a Algorithm, opt Options) (Program, Program, error) {
	spec, err := specOf(a)
	if err != nil {
		return nil, nil, err
	}
	progA, progB, err := spec.Programs(buildOpts(opt))
	if err != nil {
		return nil, nil, fmt.Errorf("fnr: %w", err)
	}
	return progA, progB, nil
}

// BuildSteppers constructs one run's Stepper pair for a registered
// algorithm — the state-machine counterpart of BuildPrograms, for
// RunSteppers. It fails for algorithms without a stepper builder
// (those run in their Program form only). Steppers are stateful: build
// a fresh pair per run, and FinishStepper any pair that is never
// handed to a run.
func BuildSteppers(a Algorithm, opt Options) (Stepper, Stepper, error) {
	spec, err := specOf(a)
	if err != nil {
		return nil, nil, err
	}
	stA, stB, err := spec.Steppers(buildOpts(opt))
	if err != nil {
		return nil, nil, fmt.Errorf("fnr: %w", err)
	}
	return stA, stB, nil
}

// Rendezvous runs the selected strategy for two agents starting on
// startA and startB (which the paper's algorithms require to be
// adjacent) and reports the outcome. The strategy is resolved through
// the registry: its declared capabilities configure the simulation
// (neighbor-ID visibility, whiteboards) and its Build constructs the
// program pair, which runs on coroutine hosts (see RunPrograms).
func Rendezvous(g *Graph, startA, startB Vertex, a Algorithm, opt Options) (*Result, error) {
	if g == nil {
		return nil, errors.New("fnr: nil graph")
	}
	spec, err := specOf(a)
	if err != nil {
		return nil, err
	}
	progA, progB, err := spec.Programs(buildOpts(opt))
	if err != nil {
		return nil, fmt.Errorf("fnr: %w", err)
	}
	return sim.Run(sim.Config{
		Graph:       g,
		StartA:      startA,
		StartB:      startB,
		NeighborIDs: spec.Caps.NeighborIDs,
		Whiteboards: spec.Caps.Whiteboards,
		MaxRounds:   opt.MaxRounds,
		Seed:        opt.Seed,
		Observer:    opt.Observer,
	}, progA, progB)
}

// Batch-execution surface, re-exported from the engine.
type (
	// Batch describes N independent trials of one registered strategy
	// on one instance; see RunBatch.
	Batch = engine.Batch
	// BatchOutcome is one trial of a batch, reduced for aggregation.
	BatchOutcome = engine.Outcome
	// Aggregate is a batch's deterministic summary (success rate,
	// round and move distributions).
	Aggregate = engine.Aggregate
	// BatchReducer is the bounded-memory outcome accumulator behind
	// every batch aggregate — and the composition point for sharded
	// sweeps (see Batch.ShardCount and RunBatchReduced).
	BatchReducer = engine.Reducer
	// TrialSpan is a half-open global trial-index range [Lo, Hi): a
	// sharded batch's coverage metadata on reducers and aggregates.
	TrialSpan = engine.TrialSpan
	// ScenarioInfo is the aggregate's echo of the scenario a batch ran
	// under (nil on legacy two-agent batches).
	ScenarioInfo = engine.ScenarioInfo
)

// MergeBatchReducers combines per-shard (or per-worker) reducers;
// the merge is order- and partition-insensitive, and shard spans
// coalesce. Merging every shard of a batch and aggregating yields
// byte-identical JSON to the unsharded RunBatch.
var MergeBatchReducers = engine.Merge

// DefaultLaneWidth is the widest lockstep lane Batch.LaneWidth = 0
// selects: how many trials each worker keeps resident at once on the
// lane every batch runs on. On large graphs the automatic width
// narrows so the resident trials' combined working set stays
// cache-friendly — AutoLaneWidth reports the resolved value. A
// negative LaneWidth is rejected.
const DefaultLaneWidth = engine.DefaultLaneWidth

// AutoLaneWidth reports the lockstep lane width a Batch with
// LaneWidth 0 resolves to on a graph with n vertices.
func AutoLaneWidth(n int) int { return engine.AutoLaneWidth(n) }

// RunBatch fans the batch's trials across a worker pool and returns
// the aggregate. Each trial's seed derives from (Batch.Seed, trial
// index), and every aggregate comes from the same exact-multiset
// reducer, so the result is bit-identical for any Workers or
// LaneWidth setting. Engine-owned memory scales with the number of
// distinct observed values, not the trial count, so 10M-trial
// batches are fine. Cancelling ctx stops the run at the next chunk
// boundary and returns (nil, ctx.Err()); callers that want the
// partial state use RunBatchReduced.
func RunBatch(ctx context.Context, b Batch) (*Aggregate, error) {
	return engine.Run(ctx, b)
}

// RunBatchReduced is RunBatch stopping one step earlier: it returns
// the batch's merged reducer instead of the final aggregate, so
// shards run in separate processes can be combined with
// MergeBatchReducers before calling Aggregate. Cancelling ctx stops
// the run at the next chunk boundary — no trial is ever torn
// mid-flight, no goroutine outlives the call — and returns the
// reducer state completed so far together with ctx.Err(). The
// partial reducer's Spans say exactly which global trials it covers,
// so it can be checkpointed and resumed.
func RunBatchReduced(ctx context.Context, b Batch) (*BatchReducer, error) {
	return engine.RunReduced(ctx, b)
}

// Fault-tolerance surface, re-exported from the engine: crash-safe
// checkpoint journals for long batches, and the deterministic
// fault-injection plans that make the tolerance machinery itself
// differential-testable.
type (
	// BatchCheckpoint configures RunBatchCheckpointed's journal: the
	// file rewritten (atomically) with the batch's merged reducer
	// state, and the trial cadence of those rewrites.
	BatchCheckpoint = engine.Checkpoint
	// FaultPlan injects deterministic per-trial faults (panics,
	// stalls, builder errors) into a batch via Batch.Faults; fault
	// placement depends only on (plan seed, global trial index), so
	// aggregates stay byte-identical at any parallelism.
	FaultPlan = engine.FaultPlan
)

// ParseFaultPlan parses the fault-plan grammar, e.g.
// "panic:p=1e-4,stall:p=1e-4,builderr:p=1e-5".
func ParseFaultPlan(spec string, seed uint64) (*FaultPlan, error) {
	return engine.ParseFaultPlan(spec, seed)
}

// RunBatchCheckpointed executes the batch like RunBatchReduced
// while journalling progress to ck.Path every ck.Every trials (and
// once on return), resuming from an earlier journal's reducer if one
// is given: only the trials outside resume's covered spans run, and
// the merged result is byte-identical to an uninterrupted run — the
// engine's crash-recovery loop (kill at any point, reload the
// journal with ReadBatchCheckpoint, rerun).
func RunBatchCheckpointed(ctx context.Context, b Batch, ck BatchCheckpoint, resume *BatchReducer) (*BatchReducer, error) {
	return engine.RunCheckpointed(ctx, b, ck, resume)
}

// WriteBatchCheckpoint atomically writes a batch's reducer state to
// a versioned, CRC-framed checkpoint journal at path.
func WriteBatchCheckpoint(path string, b Batch, r *BatchReducer) error {
	return engine.WriteCheckpointFile(path, b, r)
}

// ReadBatchCheckpoint loads the checkpoint journal at path,
// validating its integrity and that it belongs to this exact batch
// (algorithm, seed, trials, instance, budget and fault plan).
func ReadBatchCheckpoint(path string, b Batch) (*BatchReducer, error) {
	return engine.ReadCheckpointFile(path, b)
}

// RunPrograms executes two custom agent programs under an explicit
// simulation configuration — the low-level entry point for user-written
// strategies. Each program runs on a coroutine host (ProgramStepper),
// stepped by the same lockstep loop as RunSteppers.
func RunPrograms(cfg SimConfig, a, b Program) (*Result, error) {
	return sim.Run(cfg, a, b)
}

// RunSteppers executes two state-machine agents under an explicit
// simulation configuration — the Stepper counterpart of RunPrograms.
// Mixing styles is fine: wrap a Program with ProgramStepper to run it
// against a native Stepper.
func RunSteppers(cfg SimConfig, a, b Stepper) (*Result, error) {
	return sim.RunSteppers(cfg, a, b)
}

// RunTeam executes a k-agent stepper team under an explicit
// simulation configuration — the entry point for Scenario runs (the
// team length must match the scenario's agent count; a nil
// cfg.Scenario expects the usual two steppers).
func RunTeam(cfg SimConfig, team []Stepper) (*Result, error) {
	return sim.RunTeam(cfg, team)
}

// HardKind selects a lower-bound instance family.
type HardKind int

// The four Ω(·) families of §5.
const (
	// HardTwoStars is Theorem 3 / Fig. 1(a): δ=1, ∆=Θ(n).
	HardTwoStars HardKind = iota
	// HardStarClique is Theorem 3 / Fig. 1(b): δ=Θ(n/∆).
	HardStarClique
	// HardKT0 is Theorem 4 / Fig. 2: run it without neighbor IDs.
	HardKT0
	// HardDistance2 is Theorem 5 / Fig. 3: initial distance two.
	HardDistance2
	// HardDeterministic is Theorem 6 / Lemma 9: the adaptive adversary
	// against a greedy-sweep agent pair.
	HardDeterministic
)

// HardInstance builds a lower-bound instance of the given family sized
// by n (interpretation varies per family; see internal/lower).
func HardInstance(kind HardKind, n int) (*Instance, error) {
	switch kind {
	case HardTwoStars:
		return lower.TwoStarsInstance(max(1, (n-2)/2))
	case HardStarClique:
		arms := max(1, n/8)
		return lower.StarCliqueInstance(arms, 4)
	case HardKT0:
		return lower.KT0Instance(n)
	case HardDistance2:
		return lower.Distance2Instance(max(3, (n+1)/2))
	case HardDeterministic:
		return lower.Theorem6Instance(n, lower.NewGreedySweep, lower.NewGreedySweep)
	}
	return nil, fmt.Errorf("fnr: unknown hard-instance kind %d", kind)
}

// SweepAgentsForInstance returns the deterministic greedy-sweep pair
// used to exercise HardDeterministic instances.
func SweepAgentsForInstance() (Program, Program) {
	return lower.AsProgram(lower.NewGreedySweep()), lower.AsProgram(lower.NewGreedySweep())
}

// ---- Batch-job layer (internal/job) ------------------------------------
//
// A JobSpec is the one serializable description of a batch — algorithm,
// workload (or a reference to a cached graph), trials, seed, shard,
// fault plan, checkpoint policy — shared by the CLIs and the fnrd
// daemon. Constructing a spec and calling RunJob is equivalent to
// materializing the workload by hand and running the engine's reduced
// path, byte-for-byte in the aggregate.

type (
	// JobSpec is the canonical serializable batch description.
	JobSpec = job.Spec
	// JobWorkload names a generated topology plus derivation seed.
	JobWorkload = job.Workload
	// JobMaterialized is a built graph with its derived start pair.
	JobMaterialized = job.Materialized
	// JobExecOptions carries execution-only knobs (never affect
	// results).
	JobExecOptions = job.ExecOptions
	// JobResult pairs the finished (or partial) reducer with the batch
	// it reduced, so Aggregate needs no extra arguments.
	JobResult = job.Result
)

// MaterializeWorkload derives the graph and start pair for a workload —
// the single home of the seeded-PCG derivation previously duplicated
// across the CLIs and harness.
func MaterializeWorkload(w JobWorkload) (JobMaterialized, error) {
	return w.Materialize()
}

// RunJob materializes the spec's workload and executes it, routing to
// the plain reduced path or the checkpointed path according to the
// spec. On cancellation the partial result is returned alongside
// ctx.Err.
func RunJob(ctx context.Context, s JobSpec, opt JobExecOptions) (*JobResult, error) {
	return job.Run(ctx, s, opt)
}

// RunJobBuilt is RunJob for a workload that is already materialized —
// the entry point for callers that manage graph reuse themselves (the
// fnrd daemon's graph cache, benchengine's pre-built mega graph).
func RunJobBuilt(ctx context.Context, s JobSpec, m JobMaterialized, opt JobExecOptions) (*JobResult, error) {
	return job.RunBuilt(ctx, s, m, opt)
}
