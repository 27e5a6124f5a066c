package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fnr/internal/algo"
	"fnr/internal/sim"
	"fnr/internal/stats"
)

// Traced strategies: benchmark-owned wrappers registered next to the
// real ones. Each wraps the registry's steppers, times every Next, and
// forwards Init, Reset (only when the wrapped stepper is Reusable, so
// the engine's lane takes the same reuse path) and Finish. Batches run
// a wrapper by naming it, so no tracing code sits inside the program.

// tracedPrefix turns a registry name into its wrapper's name.
const tracedPrefix = "perfbench."

// nextStats accumulates one wrapped strategy's Next calls and the
// time of a sampled subset of them.
type nextStats struct {
	calls, sampled, sampledNS atomic.Int64
}

// nextSnapshot is a point-in-time copy of nextStats.
type nextSnapshot struct{ calls, sampled, sampledNS int64 }

func (s *nextStats) snapshot() nextSnapshot {
	return nextSnapshot{s.calls.Load(), s.sampled.Load(), s.sampledNS.Load()}
}

// estimate returns the calls made between two snapshots and their
// estimated total Next time: the sampled calls' mean, less the
// timer's own cost, times the number of calls.
func (a nextSnapshot) estimate(b nextSnapshot) (calls, ns float64) {
	calls = float64(b.calls - a.calls)
	sampled := float64(b.sampled - a.sampled)
	if sampled == 0 {
		return calls, 0
	}
	per := float64(b.sampledNS-a.sampledNS)/sampled - timerNS
	return calls, max(per, 0) * calls
}

// sampleMask selects which Next calls are timed: one in
// sampleMask+1, chosen by a per-stepper xorshift stream so the
// sample does not lock onto a periodic pattern in the strategy.
// Timing every call would double the cost of a cheap Next.
const sampleMask = 7

// timerNS is the cost of an empty timed interval (time.Now then
// time.Since), calibrated once and subtracted from every sample.
var timerNS float64

func calibrateTimer() {
	const n = 1 << 16
	var runs []float64
	for range probeReps {
		var total time.Duration
		for range n {
			t0 := time.Now()
			total += time.Since(t0)
		}
		runs = append(runs, float64(total.Nanoseconds())/n)
	}
	timerNS = stats.Median(runs)
}

// stepperSeq seeds each wrapper's sampling stream differently.
var stepperSeq atomic.Uint64

// tracedStats maps a wrapped algorithm name to its counters.
var tracedStats = map[string]*nextStats{}

// tracedOrderBase is the registry Order of the first wrapper (the
// registry reserves < 100 for built-ins).
const tracedOrderBase = 9100

// tracedAlgos are the strategies the workloads run, each of which gets
// a timing wrapper.
var tracedAlgos = []string{"whiteboard", "noboard", "sweep"}

// registerTracedOnce registers the wrappers of tracedAlgos on first
// use (the registry rejects a second registration of a name).
var registerTracedOnce = sync.OnceValue(func() error { return registerTraced(tracedAlgos...) })

// registerTraced registers a timing wrapper for each named strategy
// and the do-nothing strategy of the sim.round_ns probe, and
// calibrates the timer.
func registerTraced(names ...string) error {
	calibrateTimer()
	for i, name := range names {
		inner, err := algo.Lookup(name)
		if err != nil {
			return err
		}
		if inner.BuildSteppers == nil {
			return fmt.Errorf("trace: %q has no stepper builder to wrap", name)
		}
		st := &nextStats{}
		tracedStats[name] = st
		spec := algo.Spec{
			Name:    tracedPrefix + name,
			Order:   tracedOrderBase + i,
			Summary: "timing wrapper of " + name,
			Caps:    inner.Caps,
			Build:   inner.Build,
			BuildSteppers: func(o algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
				a, b, err := inner.BuildSteppers(o)
				if err != nil {
					return a, b, err
				}
				return wrapStepper(a, st), wrapStepper(b, st), nil
			},
		}
		if inner.BuildTeam != nil {
			spec.BuildTeam = func(o algo.BuildOpts, k int) ([]sim.Stepper, error) {
				team, err := inner.BuildTeam(o, k)
				if err != nil {
					return team, err
				}
				for i := range team {
					team[i] = wrapStepper(team[i], st)
				}
				return team, nil
			}
		}
		algo.Register(spec)
	}
	algo.Register(algo.Spec{
		Name:    stayAlgo,
		Order:   tracedOrderBase + len(names),
		Summary: "do-nothing agents (the lane's per-round cost)",
		Caps:    algo.Caps{NeighborIDs: true, Whiteboards: true},
		Build: func(algo.BuildOpts) (sim.Program, sim.Program, error) {
			return stayProgram, stayProgram, nil
		},
		BuildSteppers: func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
			return stayStepper{}, stayStepper{}, nil
		},
	})
	return nil
}

// timedStepper counts every Next, times a sample of them into
// worker-local counters, and publishes the counters to the shared
// nextStats on Reset and Finish, which the lane calls per trial and at
// Close, so no atomic sits on the Next path.
type timedStepper struct {
	inner                     sim.Stepper
	st                        *nextStats
	rng                       uint64
	calls, sampled, sampledNS int64
}

func (t *timedStepper) Init(ctx *sim.StepContext) { t.inner.Init(ctx) }

func (t *timedStepper) Next(v *sim.View) sim.Action {
	t.calls++
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	if t.rng&sampleMask != 0 {
		return t.inner.Next(v)
	}
	start := time.Now()
	a := t.inner.Next(v)
	t.sampledNS += int64(time.Since(start))
	t.sampled++
	return a
}

func (t *timedStepper) flush() {
	if t.calls == 0 {
		return
	}
	t.st.calls.Add(t.calls)
	t.st.sampled.Add(t.sampled)
	t.st.sampledNS.Add(t.sampledNS)
	t.calls, t.sampled, t.sampledNS = 0, 0, 0
}

func (t *timedStepper) Finish() {
	t.flush()
	sim.Finish(t.inner)
}

// reusableTimedStepper is a timedStepper over a sim.Reusable stepper.
type reusableTimedStepper struct{ timedStepper }

func (t *reusableTimedStepper) Reset(ctx *sim.StepContext) {
	t.flush()
	t.inner.(sim.Reusable).Reset(ctx)
}

func wrapStepper(s sim.Stepper, st *nextStats) sim.Stepper {
	if s == nil {
		return nil
	}
	t := timedStepper{inner: s, st: st, rng: stepperSeq.Add(1)*0x9e3779b97f4a7c15 | 1}
	if _, ok := s.(sim.Reusable); ok {
		return &reusableTimedStepper{t}
	}
	return &t
}

// span is one timed call across a layer boundary. Spans of one batch
// or job share Op; Parent is the enclosing span's ID (0 = root).
// Attrs carries counts measured at the same boundary.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Op     string             `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory (safe for concurrent use); write dumps
// them when the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record stores a finished span and returns its ID. A nil tracer
// records nothing (untraced runs).
func (t *tracer) record(parent int64, op, name string, start, end time.Time, attrs map[string]float64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Attrs: attrs,
	})
	return t.next
}

// selfTimes returns each span name's summed self time: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
