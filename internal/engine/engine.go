// Package engine is the deterministic batch-trial runner: it fans N
// independent rendezvous trials across a worker pool and streams the
// per-trial results into compact aggregates (success rate, round and
// move distributions). Each trial's PCG seed is derived from the
// batch seed and the trial index alone, and every Aggregate comes
// from a Reducer, an exact multiset whose merge is order- and
// partition-insensitive, so a batch's Aggregate is bit-identical
// whether it ran on 1 worker or on GOMAXPROCS — the worker count
// changes wall-clock time only.
//
// The engine resolves strategies by name through the algo registry;
// anything registered there (the paper's algorithms, the baselines,
// or a third-party Spec) can be batched without the engine knowing
// its construction. Every batch runs on one scheduler, the lockstep
// sim.TrialLane (see runLanes); a strategy's Program form rides it
// on coroutine hosts.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fnr/internal/algo"
	"fnr/internal/core"
	"fnr/internal/graph"
	"fnr/internal/sim"
)

// Batch describes one batch of independent trials: the same instance
// and strategy, Trials different derived seeds.
type Batch struct {
	// Graph is the shared instance (immutable, so safe to share
	// across workers). Required.
	Graph *graph.Graph
	// StartA and StartB are the agents' start vertices in the default
	// two-agent setting. Ignored when Scenario is set.
	StartA, StartB graph.Vertex
	// Scenario, if non-nil, runs the batch as a k-agent, delayed-
	// wakeup scenario (see sim.Scenario): per-agent starts and wake
	// delays replace StartA/StartB, and the meeting predicate is
	// all-k gathered (or first-pair). A scenario that is observably
	// the legacy setting — k=2, zero delays, all-gather — is folded
	// into StartA/StartB before anything observes it, so its
	// aggregate and checkpoint identity are byte-identical to the
	// equivalent legacy batch. k>2 requires the stepper form and a
	// strategy with a team builder (the oblivious baselines; the
	// paper's pairwise algorithms reject k>2 loudly).
	Scenario *sim.Scenario
	// Algorithm names a registered strategy (see algo.Names).
	Algorithm string
	// Params overrides the algorithm constants (zero value selects
	// core.PracticalParams).
	Params core.Params
	// Delta is the minimum degree known to the agents (0 = unknown).
	Delta int
	// Trials is the number of independent runs. Required (> 0).
	Trials int
	// Seed is the batch seed; trial i runs with TrialSeed(Seed, i).
	Seed uint64
	// MaxRounds bounds each run (0 = the simulator default 4n²+1000).
	MaxRounds int64
	// Workers bounds trial parallelism (≤ 0 = GOMAXPROCS). It never
	// affects results, only wall-clock time.
	Workers int
	// ForceProgramPath runs the strategy's Program form (its Build
	// programs, each hosted on a coroutine inside the lane) even when
	// the strategy provides native steppers — a benchmarking and
	// diagnostics knob (benchengine times both forms with it; the
	// differential suite uses it to prove them byte-identical). The
	// zero value runs the native stepper form whenever the spec has a
	// stepper builder, and the Program form otherwise. Like Workers,
	// it must never affect results, only wall-clock time.
	ForceProgramPath bool
	// LaneWidth selects the lockstep lane width: 0 = automatic
	// (AutoLaneWidth of the graph size), ≥ 1 = exactly that many
	// resident trials per worker; negative widths are rejected. It
	// never affects results, only wall-clock time and memory (the
	// differential suite pins this).
	LaneWidth int
	// ShardIndex and ShardCount split the batch's trial range across
	// independent processes: shard i of k runs only the global trial
	// indices [Trials·i/k, Trials·(i+1)/k). Per-trial seeds are still
	// derived from the global index, so the k shards together execute
	// exactly the trials the unsharded batch would, and merging their
	// reducers (Merge) reproduces the unsharded aggregate byte for
	// byte. ShardCount 0 or 1 means unsharded; a sharded aggregate
	// carries its coverage in TrialSpans.
	ShardIndex, ShardCount int
	// Faults, if non-nil, injects deterministic per-trial faults
	// (panics, stalls, builder errors) derived from the plan's seed
	// and the global trial index alone — the differential-test knob
	// for the engine's fault-tolerance layer. Fault injection wraps
	// native steppers, so it requires the stepper form (prepare
	// rejects a faulted batch whose strategy lacks steppers, or that
	// forces the Program form). Like Workers and LaneWidth, the worker
	// count, lane width and shard split must never change a faulted
	// batch's aggregate.
	Faults *FaultPlan
}

// normalized folds a legacy-equivalent scenario (k=2, zero delays,
// all-gather) into the StartA/StartB pair fields: every public entry
// point applies it first, so such a batch is indistinguishable —
// aggregate bytes, checkpoint identity, execution path — from the
// same batch described the legacy way. Idempotent.
func (b Batch) normalized() Batch {
	if sc := b.Scenario; sc != nil {
		if sa, sb, ok := sc.LegacyPair(); ok {
			b.StartA, b.StartB = sa, sb
			b.Scenario = nil
		}
	}
	return b
}

// teamSize returns the batch's agent count (2 unless a scenario says
// otherwise).
func (b Batch) teamSize() int {
	if b.Scenario != nil {
		return b.Scenario.K()
	}
	return 2
}

// starts returns the batch's per-agent start vertices.
func (b Batch) starts() []graph.Vertex {
	if b.Scenario != nil {
		return b.Scenario.Starts
	}
	return []graph.Vertex{b.StartA, b.StartB}
}

// shardSpan resolves the batch's global trial range [lo, hi).
func (b Batch) shardSpan() (lo, hi int) {
	if b.ShardCount <= 1 {
		return 0, b.Trials
	}
	return b.Trials * b.ShardIndex / b.ShardCount, b.Trials * (b.ShardIndex + 1) / b.ShardCount
}

// DefaultLaneWidth is the widest automatic lockstep lane: wide enough
// to amortize per-sweep overhead and stepper builds across resident
// trials. AutoLaneWidth narrows it on large graphs.
const DefaultLaneWidth = 8

// laneAutoBudget caps the summed per-trial working set the automatic
// lane width keeps resident per worker. Each interleaved trial
// touches O(n) state every sweep (dense Sample counters, whiteboard
// partitions, walker scratch), so widths whose combined footprint
// outgrows the cache run slower than a one-trial lane — measured:
// width 8 at n = 65536 is ~6× slower than width 1 on one core.
const laneAutoBudget = 1 << 21

// AutoLaneWidth is the lockstep lane width a Batch with LaneWidth 0
// resolves to on a graph with n vertices: DefaultLaneWidth, narrowed
// so the resident trials' combined O(n) working set stays within a
// per-worker cache budget, and never below 1.
func AutoLaneWidth(n int) int {
	width := DefaultLaneWidth
	if per := 32 * n; per > 0 {
		if w := laneAutoBudget / per; w < width {
			width = w
		}
	}
	return max(width, 1)
}

// laneWidth resolves the batch's lockstep lane width. The caller has
// prepared b, so LaneWidth ≥ 0 and Graph is set.
func (b Batch) laneWidth() int {
	if b.LaneWidth > 0 {
		return b.LaneWidth
	}
	return AutoLaneWidth(b.Graph.N())
}

// Outcome is one trial reduced to what aggregation needs.
type Outcome struct {
	// Met reports whether the agents rendezvoused within the budget.
	Met bool
	// Rounds is the meeting round when Met, and the executed round
	// count otherwise.
	Rounds int64
	// Moves is the total number of edge traversals by all agents.
	Moves int64
	// Err reports a per-trial simulation failure (abort, builder
	// error, or an isolated panic); such trials count as failures,
	// not meetings.
	Err bool
	// Msg carries the failure detail when Err — the abort error,
	// builder error, or recovered panic message. It feeds
	// Aggregate.FirstErrors; Outcome stays comparable with ==.
	Msg string
}

// Dist summarizes a sample: mean, median, p95 and range. The zero
// value stands for an empty sample.
type Dist struct {
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	P95    float64 `json:"p95"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Aggregate is a batch's streamed summary. It deliberately excludes
// the worker count and any timing: two runs of the same Batch must
// marshal to identical JSON regardless of parallelism.
type Aggregate struct {
	// Algorithm echoes the batch's strategy name.
	Algorithm string `json:"algorithm"`
	// Trials is the number of runs executed.
	Trials int `json:"trials"`
	// Seed echoes the batch seed.
	Seed uint64 `json:"seed"`
	// Scenario echoes the batch's k-agent/delayed-wakeup scenario, or
	// is omitted for the legacy two-agent setting (including folded
	// legacy-equivalent scenarios) — keeping legacy aggregate JSON
	// byte-identical to pre-scenario output.
	Scenario *ScenarioInfo `json:"scenario,omitempty"`
	// Met counts trials that rendezvoused; Failures = Trials - Met
	// (budget exhaustions and erroring trials alike).
	Met      int `json:"met"`
	Failures int `json:"failures"`
	// Errors counts trials that faulted (program panic) rather than
	// merely exhausting their budget; always ≤ Failures.
	Errors int `json:"errors"`
	// SuccessRate is Met / Trials.
	SuccessRate float64 `json:"success_rate"`
	// Rounds summarizes the meeting round over met trials only.
	Rounds Dist `json:"rounds"`
	// Moves summarizes total edge traversals over non-erroring
	// trials (an erroring trial has no meaningful move count).
	Moves Dist `json:"moves"`
	// FirstErrors lists the first few distinct error messages of the
	// batch — each with its lowest erroring trial index, "trial N:
	// msg", ordered by that index — so a sea of failures surfaces its
	// cause without storing per-trial detail. Keying by lowest trial
	// index (never arrival order) keeps the list byte-identical
	// regardless of worker count, lane width or shard split, and
	// exact under reducer merges. Omitted when no trial erred.
	FirstErrors []string `json:"first_errors,omitempty"`
	// TrialSpans lists the global trial-index ranges the aggregate
	// covers when the batch ran sharded (several ranges after merging
	// non-adjacent shard reducers). It is omitted — keeping the JSON
	// byte-identical to pre-shard output — for unsharded batches and
	// for complete merges covering all of [0, Trials).
	TrialSpans []TrialSpan `json:"trial_spans,omitempty"`
}

// ScenarioInfo is the aggregate's echo of a batch scenario — the
// JSON-facing mirror of sim.Scenario, kept separate so the wire shape
// is explicit and stable.
type ScenarioInfo struct {
	// Agents is the team size k.
	Agents int `json:"agents"`
	// Starts lists the per-agent start vertices.
	Starts []int `json:"starts"`
	// WakeDelays lists the per-agent wake delays; omitted when every
	// agent wakes at round 0.
	WakeDelays []int64 `json:"wake_delays,omitempty"`
	// Meet is "firstpair" under the first-pair meeting predicate and
	// omitted for the default all-k gathering.
	Meet string `json:"meet,omitempty"`
}

// Equal reports whether two scenario echoes are identical.
func (s *ScenarioInfo) Equal(o *ScenarioInfo) bool {
	if s == nil || o == nil {
		return s == o
	}
	return s.Agents == o.Agents && s.Meet == o.Meet &&
		slices.Equal(s.Starts, o.Starts) &&
		slices.Equal(s.WakeDelays, o.WakeDelays)
}

// scenarioInfo builds the aggregate's scenario echo (nil for the
// legacy setting). The caller has normalized b.
func (b Batch) scenarioInfo() *ScenarioInfo {
	sc := b.Scenario
	if sc == nil {
		return nil
	}
	info := &ScenarioInfo{Agents: sc.K(), Starts: make([]int, sc.K())}
	for i, s := range sc.Starts {
		info.Starts[i] = int(s)
	}
	for _, d := range sc.WakeDelays {
		if d != 0 {
			info.WakeDelays = slices.Clone(sc.WakeDelays)
			break
		}
	}
	if sc.MeetFirstPair {
		info.Meet = "firstpair"
	}
	return info
}

// Equal reports whether two aggregates are field-for-field identical
// (the TrialSpans slice made Aggregate non-comparable with ==).
func (a *Aggregate) Equal(o *Aggregate) bool {
	if a == nil || o == nil {
		return a == o
	}
	return a.Algorithm == o.Algorithm && a.Trials == o.Trials && a.Seed == o.Seed &&
		a.Scenario.Equal(o.Scenario) &&
		a.Met == o.Met && a.Failures == o.Failures && a.Errors == o.Errors &&
		a.SuccessRate == o.SuccessRate && a.Rounds == o.Rounds && a.Moves == o.Moves &&
		slices.Equal(a.FirstErrors, o.FirstErrors) &&
		slices.Equal(a.TrialSpans, o.TrialSpans)
}

// TrialSeed derives trial i's simulation seed from the batch seed.
// The mix is SplitMix64 over an odd-multiple offset, so neighboring
// trial indices and neighboring batch seeds both produce
// well-separated streams.
func TrialSeed(batchSeed uint64, trial int) uint64 {
	x := batchSeed + (uint64(trial)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Trials fans f(0..n-1) across a pool of `workers` goroutines
// (≤ 0 = GOMAXPROCS) and returns the results indexed by trial. f must
// be safe for concurrent calls with distinct indices.
func Trials[T any](workers, n int, f func(trial int) T) []T {
	return TrialsScratch(workers, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) T { return f(i) })
}

// TrialsScratch is Trials with per-worker scratch: every worker
// goroutine calls newScratch once and passes the value to each of its
// f invocations, so reusable trial state (a sim.TrialContext, say)
// is allocated per worker, not per trial, without
// any locking. f must be safe for concurrent calls with distinct
// (scratch, trial) pairs; scratch values must never affect results.
func TrialsScratch[S, T any](workers, n int, newScratch func() S, f func(scratch S, trial int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	chunkedWorkers(context.Background(), workers, n, newScratch, func(scratch S, from, to int) {
		for i := from; i < to; i++ {
			out[i] = f(scratch, i)
		}
	})
	return out
}

// claimChunk is the largest trial-index chunk a worker claims per
// cursor operation: large enough that the shared cursor is off the
// hot path of a long batch (one contended claim per 64 trials instead
// of per trial). The serial path walks the whole batch in chunks of
// exactly this size.
const claimChunk = 64

// chunkedWorkers fans the index range [0, n) across a pool of
// `workers` goroutines (≤ 0 = GOMAXPROCS) that claim chunks from a
// shared cursor, calling run(scratch, from, to) for each claimed
// chunk, and returns every worker's scratch once all work is done
// (the reducer path merges them). Chunk claiming partitions
// [0, n) exactly — every index is processed once — and which worker
// claims which chunk must never affect results.
//
// The pool uses guided self-scheduling: a claim at cursor from takes
// min(claimChunk, max(1, (n-from)/(2·workers))) indices. A long batch
// claims claimChunk-sized chunks until its tail, where the chunks
// shrink so no worker idles while another finishes a large one; a
// batch of a few dozen trials splits down to single trials, so it
// still uses every worker. A chunk's size depends only on the cursor,
// so sizes never grow as the cursor advances. A single worker keeps
// fixed claimChunk-sized chunks: it has no one to balance against.
//
// Cancelling ctx stops the pool at the next chunk-claim boundary:
// chunks already claimed run to completion (a cancel never tears a
// trial mid-flight), no further chunks are claimed, and every worker
// goroutine exits before chunkedWorkers returns — cancellation leaks
// nothing. The ctx check is free for context.Background() (no Done
// channel means no Err call per chunk).
func chunkedWorkers[S any](ctx context.Context, workers, n int, newScratch func() S, run func(scratch S, from, to int)) []S {
	if n <= 0 {
		return nil
	}
	cancellable := ctx.Done() != nil
	stopped := func() bool { return cancellable && ctx.Err() != nil }
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// The serial fast path claims its chunks from a plain loop —
		// no atomics — but honors the same chunk-boundary cancel.
		scratch := newScratch()
		for from := 0; from < n; from += claimChunk {
			if stopped() {
				break
			}
			run(scratch, from, min(from+claimChunk, n))
		}
		return []S{scratch}
	}
	scratches := make([]S, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := newScratch()
			scratches[w] = scratch
			for !stopped() {
				from := int(next.Load())
				if from >= n {
					return
				}
				size := min(claimChunk, max(1, (n-from)/(2*workers)))
				if !next.CompareAndSwap(int64(from), int64(from+size)) {
					continue
				}
				run(scratch, from, from+size)
			}
		}(w)
	}
	wg.Wait()
	return scratches
}

// RunOutcomes executes the batch and returns the per-trial outcomes
// in trial order — the outcome-collecting lane sink, for callers (the
// experiment harness) whose statistics go beyond the standard
// Aggregate, which only Run and the reducer path produce.
// The trials run on the lockstep lane (see runLanes), in the
// strategy's native stepper form or, under ForceProgramPath or for a
// spec without steppers, its Program form; both forms produce
// byte-identical outcomes.
//
// Cancelling ctx stops the run at the next chunk boundary and
// returns (nil, ctx.Err()): an outcome slice cannot say which trials
// it covers, so partial results are the reducer API's job
// (RunReduced returns the completed state plus its TrialSpans).
func RunOutcomes(ctx context.Context, b Batch) ([]Outcome, error) {
	b = b.normalized()
	spec, opts, err := b.prepare()
	if err != nil {
		return nil, err
	}
	lo, hi := b.shardSpan()
	out := make([]Outcome, hi-lo)
	runLanes(ctx, b, spec, opts, lo, hi,
		func() struct{} { return struct{}{} },
		func(_ struct{}, trial int, o Outcome) { out[trial-lo] = o },
		nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// laneWorker couples one worker's lockstep lane to its outcome sink.
type laneWorker[S any] struct {
	lane *sim.TrialLane
	sink S
}

// runLanes is the engine's one trial scheduler: it executes trials
// [lo, hi) of the batch on a pool of workers, each owning one
// sim.TrialLane of the batch's lane width and one sink, claiming
// trial-index chunks and streaming each finished trial's Outcome into
// the worker's sink via emit. Emitted trial indices are global (shard-offset), matching
// the seeds. After each chunk, cover (if non-nil) receives the
// chunk's completed global range — [from, from) when a cancel struck
// before any arm, the full chunk otherwise; the reducer path records
// its TrialSpans coverage there. It returns every worker's sink
// (trial-indexed sinks write into shared trial-indexed storage;
// reducer sinks get merged by the caller). Lane width, worker count
// and chunk assignment never affect which Outcome a trial produces.
//
// Cancelling ctx stops each lane at its next refill boundary (via
// lane.Stop): resident trials drain, nothing new is armed, and the
// pool exits at the chunk-claim boundary.
func runLanes[S any](ctx context.Context, b Batch, spec algo.Spec, opts algo.BuildOpts, lo, hi int, newSink func() S, emit func(sink S, trial int, o Outcome), cover func(sink S, from, to int)) []S {
	cfg := trialConfig(b, spec)
	seedOf := func(t int) uint64 { return TrialSeed(b.Seed, t) }
	build := func() ([]sim.Stepper, error) {
		return spec.Team(opts, b.teamSize())
	}
	if b.Faults != nil {
		build = b.Faults.wrapBuilder(build)
	}
	width := b.laneWidth()
	workers := chunkedWorkers(ctx, b.Workers, hi-lo, func() *laneWorker[S] {
		w := &laneWorker[S]{
			lane: sim.NewTeamLane(width, build),
			sink: newSink(),
		}
		if b.Faults != nil {
			w.lane.Hook = faultHook{b.Faults}
		}
		if ctx.Done() != nil {
			w.lane.Stop = func() bool { return ctx.Err() != nil }
		}
		return w
	}, func(w *laneWorker[S], from, to int) {
		wm := w.lane.Run(cfg, seedOf, lo+from, lo+to, func(trial int, res *sim.Result, err error) {
			emit(w.sink, trial, OutcomeOf(res, err))
		})
		if cover != nil {
			cover(w.sink, lo+from, wm)
		}
	})
	sinks := make([]S, len(workers))
	for i, w := range workers {
		w.lane.Close()
		sinks[i] = w.sink
	}
	return sinks
}

// useSteppers reports whether the batch runs the strategy's native
// stepper form (rather than its Program form).
func (b Batch) useSteppers(spec algo.Spec) bool {
	return spec.BuildSteppers != nil && !b.ForceProgramPath
}

// Run executes the batch and returns its aggregate: RunReduced, then
// Reducer.Aggregate. Cancelling ctx returns (nil, ctx.Err()); callers
// that want the partial state use RunReduced.
func Run(ctx context.Context, b Batch) (*Aggregate, error) {
	r, err := RunReduced(ctx, b)
	if err != nil {
		return nil, err
	}
	return r.Aggregate(b), nil
}

// prepare validates the batch and resolves its strategy, including a
// pre-flight program build so capability mismatches (for example
// "noboard" without Delta) fail before any worker starts.
func (b Batch) prepare() (algo.Spec, algo.BuildOpts, error) {
	var spec algo.Spec
	var opts algo.BuildOpts
	if b.Graph == nil {
		return spec, opts, errors.New("engine: nil graph")
	}
	if b.Trials <= 0 {
		return spec, opts, fmt.Errorf("engine: batch needs Trials > 0, got %d", b.Trials)
	}
	if b.ShardCount < 0 || b.ShardIndex < 0 || b.ShardIndex >= max(b.ShardCount, 1) {
		return spec, opts, fmt.Errorf("engine: shard %d/%d invalid (need 0 ≤ index < count)", b.ShardIndex, b.ShardCount)
	}
	if b.LaneWidth < 0 {
		return spec, opts, fmt.Errorf("engine: LaneWidth %d < 0", b.LaneWidth)
	}
	n := graph.Vertex(b.Graph.N())
	if sc := b.Scenario; sc != nil {
		if err := sc.Validate(n); err != nil {
			return spec, opts, fmt.Errorf("engine: %w", err)
		}
	} else if b.StartA < 0 || b.StartA >= n || b.StartB < 0 || b.StartB >= n {
		return spec, opts, fmt.Errorf("engine: start vertices (%d, %d) out of range [0,%d)", b.StartA, b.StartB, n)
	}
	// The paper's problem is defined for distinct start vertices;
	// colliding starts would "meet" at round 0 in every trial and
	// silently skew the aggregates toward instant success. The k-way
	// check names the colliding agents (agents a and b in the legacy
	// pair).
	starts := b.starts()
	for i, si := range starts {
		for j := i + 1; j < len(starts); j++ {
			if si == starts[j] {
				return spec, opts, fmt.Errorf("engine: agents %s and %s both start at vertex %d; the rendezvous problem requires distinct start vertices",
					sim.AgentName(i), sim.AgentName(j), si)
			}
		}
	}
	spec, err := algo.Lookup(b.Algorithm)
	if err != nil {
		return spec, opts, fmt.Errorf("engine: %w", err)
	}
	if k := b.teamSize(); k > 2 {
		if !b.useSteppers(spec) {
			// The Program form is exactly two direct-style agents;
			// k-agent teams exist only in stepper form.
			return spec, opts, fmt.Errorf("engine: %d-agent scenarios require the stepper path (strategy without steppers, or ForceProgramPath)", k)
		}
		if !spec.SupportsTeam() {
			return spec, opts, fmt.Errorf("engine: algo %q does not support %d agents (two-agent strategy)", spec.Name, k)
		}
	}
	params := b.Params
	if params == (core.Params{}) {
		params = core.PracticalParams()
	}
	opts = algo.BuildOpts{Params: params, Delta: b.Delta}
	if b.Faults != nil {
		if err := b.Faults.validate(); err != nil {
			return spec, opts, fmt.Errorf("engine: %w", err)
		}
		if !b.useSteppers(spec) {
			// Fault plans are defined (and differential-tested) on
			// the native stepper form; a Program-form batch refuses
			// one rather than run it untested.
			return spec, opts, errors.New("engine: fault injection requires the stepper path (strategy without steppers, or ForceProgramPath)")
		}
	}
	if !b.useSteppers(spec) {
		// The Program form runs on the same lane, each program hosted
		// on a coroutine.
		spec.BuildSteppers = algo.SteppersFromPrograms(spec.Build)
	}
	// Pre-flight the builder the batch will actually use, so
	// capability mismatches (for example "noboard" without Delta)
	// fail before any worker starts. The probe team never runs, so
	// honor the stepper lifecycle by finishing it explicitly.
	team, err := spec.Team(opts, b.teamSize())
	for i := len(team) - 1; i >= 0; i-- {
		sim.Finish(team[i])
	}
	if err != nil {
		return spec, opts, fmt.Errorf("engine: %w", err)
	}
	return spec, opts, nil
}

// trialConfig is the simulation configuration of the batch's trials;
// the lane seeds each trial itself (TrialSeed of its index).
func trialConfig(b Batch, spec algo.Spec) sim.Config {
	return sim.Config{
		Graph:       b.Graph,
		StartA:      b.StartA,
		StartB:      b.StartB,
		Scenario:    b.Scenario,
		NeighborIDs: spec.Caps.NeighborIDs,
		Whiteboards: spec.Caps.Whiteboards,
		MaxRounds:   b.MaxRounds,
	}
}

// OutcomeOf reduces one simulation result (or its error) to an
// Outcome — the single definition of that mapping, shared with the
// experiment harness.
func OutcomeOf(res *sim.Result, err error) Outcome {
	if err != nil {
		return Outcome{Err: true, Msg: err.Error()}
	}
	out := Outcome{Moves: res.TotalMoves()}
	if res.Met {
		out.Met = true
		out.Rounds = res.MeetRound
	} else {
		out.Rounds = res.Rounds
	}
	return out
}
