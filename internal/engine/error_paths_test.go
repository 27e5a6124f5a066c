package engine

import (
	"encoding/json"
	"errors"
	"testing"

	"fnr/internal/algo"
	"fnr/internal/sim"

	_ "fnr/internal/algo/paper"
)

// finishCountingStepper records whether its Finish hook ran.
type finishCountingStepper struct{ finished *int }

func (s finishCountingStepper) Init(*sim.StepContext)     {}
func (s finishCountingStepper) Next(*sim.View) sim.Action { return sim.Halt() }
func (s finishCountingStepper) Finish()                   { *s.finished++ }

// vandalStepper dirties the slot's context as hard as a stepper can —
// whiteboard writes, junk parked on the scratch slot — then aborts
// the run.
type vandalStepper struct{ rounds int }

func (s *vandalStepper) Init(ctx *sim.StepContext) {
	// Poison the agent's scratch slot with a foreign type: the next
	// real trial must cope (it type-asserts and rebuilds) without its
	// results changing.
	ctx.Scratch.Set("vandal junk")
}

func (s *vandalStepper) Next(v *sim.View) sim.Action {
	if s.rounds <= 0 {
		return sim.Abort(errors.New("vandal abort"))
	}
	s.rounds--
	return sim.Stay().WithWrite(424242)
}

// panickingStepper dirties scratch like the vandal, then panics out
// of Next entirely — the worst a trial can do to its lane slot.
type panickingStepper struct{ rounds int }

func (s *panickingStepper) Init(ctx *sim.StepContext) {
	ctx.Scratch.Set("panic junk")
}

func (s *panickingStepper) Next(v *sim.View) sim.Action {
	if s.rounds <= 0 {
		panic("deliberate mid-batch panic")
	}
	s.rounds--
	return sim.Stay().WithWrite(171717)
}

// scratchProbe records what its agent's scratch slot held at Init,
// then halts.
type scratchProbe struct{ seen *any }

func (s scratchProbe) Init(ctx *sim.StepContext) { *s.seen = ctx.Scratch.Get() }
func (s scratchProbe) Next(*sim.View) sim.Action { return sim.Halt() }

// rebuiltEach hides its stepper's Reusable capability, so a lane
// consults its builder for every trial.
type rebuiltEach struct{ sim.Stepper }

// switchLane is a width-1 lane whose builder builds from *active at
// every arm: tests swap strategies between trials on one slot, so
// every trial shares the slot's TrialContext.
func switchLane(opts algo.BuildOpts, active *algo.Spec) *sim.TrialLane {
	return sim.NewTeamLane(1, func() ([]sim.Stepper, error) {
		team, err := active.Team(opts, 2)
		for i, st := range team {
			team[i] = rebuiltEach{st}
		}
		return team, err
	})
}

// runOne runs one trial of b on lane and reduces it to its Outcome.
func runOne(lane *sim.TrialLane, b Batch, spec algo.Spec, trial int) Outcome {
	var out Outcome
	seedOf := func(i int) uint64 { return TrialSeed(b.Seed, i) }
	lane.Run(trialConfig(b, spec), seedOf, trial, trial+1, func(_ int, res *sim.Result, err error) {
		out = OutcomeOf(res, err)
	})
	return out
}

// TestBuilderErrorMidBatchLeavesWorkerContextClean is the satellite
// gate for engine batch error paths: a stepper-builder error (or an
// aborting, whiteboard-scribbling, scratch-poisoning trial) in the
// middle of a lane slot's trial sequence must not leave the slot's
// TrialContext in a state that influences later trials — the
// error-then-retry sequence must reproduce the clean batch's outcomes
// and aggregate JSON byte for byte.
func TestBuilderErrorMidBatchLeavesWorkerContextClean(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 6, Seed: 5, MaxRounds: 1 << 22, Workers: 1,
		}
		spec, opts, err := base.prepare()
		if err != nil {
			t.Fatal(err)
		}

		// Reference: the six trials on one clean slot.
		active := spec
		clean := switchLane(opts, &active)
		var cleanOut []Outcome
		for i := 0; i < base.Trials; i++ {
			cleanOut = append(cleanOut, runOne(clean, base, spec, i))
		}
		clean.Close()

		// Disturbed: the same six trials on one slot, with a builder
		// failure and a vandal trial injected after trial 0.
		finished := 0
		brokenSpec := algo.Spec{
			Name: "broken", Caps: spec.Caps, Build: spec.Build,
			BuildSteppers: func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
				return finishCountingStepper{&finished}, nil, errors.New("mid-batch builder failure")
			},
		}
		vandalSpec := algo.Spec{
			Name: "vandal", Caps: algo.Caps{NeighborIDs: true, Whiteboards: true}, Build: spec.Build,
			BuildSteppers: func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
				return &vandalStepper{rounds: 4}, &vandalStepper{rounds: 6}, nil
			},
		}
		active = spec
		dirty := switchLane(opts, &active)
		var dirtyOut []Outcome
		dirtyOut = append(dirtyOut, runOne(dirty, base, spec, 0))
		active = brokenSpec
		if out := runOne(dirty, base, spec, 99); !out.Err {
			t.Fatalf("%s: builder failure did not produce an error outcome: %+v", name, out)
		}
		if finished != 1 {
			t.Errorf("%s: partially built stepper's Finish ran %d times, want 1", name, finished)
		}
		active = vandalSpec
		if out := runOne(dirty, base, spec, 99); !out.Err {
			t.Fatalf("%s: vandal trial did not produce an error outcome: %+v", name, out)
		}
		active = spec
		for i := 1; i < base.Trials; i++ {
			dirtyOut = append(dirtyOut, runOne(dirty, base, spec, i))
		}
		dirty.Close()

		for i := range cleanOut {
			if cleanOut[i] != dirtyOut[i] {
				t.Errorf("%s trial %d: outcome diverged after mid-batch errors: clean %+v vs dirty %+v",
					name, i, cleanOut[i], dirtyOut[i])
			}
		}
		cleanAgg, err := json.Marshal(aggregateOf(base, cleanOut))
		if err != nil {
			t.Fatal(err)
		}
		dirtyAgg, err := json.Marshal(aggregateOf(base, dirtyOut))
		if err != nil {
			t.Fatal(err)
		}
		if string(cleanAgg) != string(dirtyAgg) {
			t.Errorf("%s: aggregate JSON diverged after an error-then-retry batch:\nclean: %s\ndirty: %s",
				name, cleanAgg, dirtyAgg)
		}
	}
}

// TestPanicMidBatchQuarantinesWorkerContext extends the mid-batch
// hygiene gate to panics: a trial that scribbles on its slot's
// TrialContext and then panics out of Next must surface as an error
// outcome carrying the panic message, the slot's poisoned context
// must be quarantined (the next trial's Init sees a fresh, empty
// scratch slot), and every subsequent trial must reproduce the clean
// batch byte for byte.
func TestPanicMidBatchQuarantinesWorkerContext(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 6, Seed: 5, MaxRounds: 1 << 22, Workers: 1,
		}
		spec, opts, err := base.prepare()
		if err != nil {
			t.Fatal(err)
		}

		active := spec
		clean := switchLane(opts, &active)
		var cleanOut []Outcome
		for i := 0; i < base.Trials; i++ {
			cleanOut = append(cleanOut, runOne(clean, base, spec, i))
		}
		clean.Close()

		panicSpec := algo.Spec{
			Name: "panicker", Caps: algo.Caps{NeighborIDs: true, Whiteboards: true}, Build: spec.Build,
			BuildSteppers: func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
				return &panickingStepper{rounds: 3}, &panickingStepper{rounds: 5}, nil
			},
		}
		var seen any = "unset"
		probeSpec := algo.Spec{
			Name: "probe", Caps: spec.Caps, Build: spec.Build,
			BuildSteppers: func(algo.BuildOpts) (sim.Stepper, sim.Stepper, error) {
				return scratchProbe{&seen}, scratchProbe{new(any)}, nil
			},
		}
		active = spec
		dirty := switchLane(opts, &active)
		var dirtyOut []Outcome
		dirtyOut = append(dirtyOut, runOne(dirty, base, spec, 0))
		active = panicSpec
		out := runOne(dirty, base, spec, 99)
		if !out.Err {
			t.Fatalf("%s: panicking trial did not produce an error outcome: %+v", name, out)
		}
		if want := "sim: trial panicked: deliberate mid-batch panic"; out.Msg != want {
			t.Errorf("%s: panic outcome message %q, want %q", name, out.Msg, want)
		}
		active = probeSpec
		runOne(dirty, base, spec, 99)
		if seen != nil {
			t.Errorf("%s: agent a's scratch slot held %v after a panic — the poisoned context was re-armed", name, seen)
		}
		active = spec
		for i := 1; i < base.Trials; i++ {
			dirtyOut = append(dirtyOut, runOne(dirty, base, spec, i))
		}
		dirty.Close()

		for i := range cleanOut {
			if cleanOut[i] != dirtyOut[i] {
				t.Errorf("%s trial %d: outcome diverged after a mid-batch panic: clean %+v vs dirty %+v",
					name, i, cleanOut[i], dirtyOut[i])
			}
		}
		cleanAgg, _ := json.Marshal(aggregateOf(base, cleanOut))
		dirtyAgg, _ := json.Marshal(aggregateOf(base, dirtyOut))
		if string(cleanAgg) != string(dirtyAgg) {
			t.Errorf("%s: aggregate JSON diverged after a panic-then-retry batch:\nclean: %s\ndirty: %s",
				name, cleanAgg, dirtyAgg)
		}
	}
}
