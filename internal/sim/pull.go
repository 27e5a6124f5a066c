package sim

import "iter"

// NewProgramStepper adapts a direct-style Program into a Stepper: the
// program runs on a lightweight coroutine (iter.Pull), so the
// per-acting-round handoff between the lockstep loop and the program
// is a direct context switch. This is the only Program host — Run,
// the engine's Program form (Batch.ForceProgramPath, and specs
// without a stepper builder) and SteppersFromPrograms all use it — so
// a Program runs on exactly the loop a native Stepper runs on.
//
// This is how the paper's Program reference implementations run while
// staying in direct style; strategies wanting the last word in trial
// throughput implement Stepper natively instead (see
// internal/baseline for examples, and README.md, "Writing a fast
// strategy").
func NewProgramStepper(prog Program) Stepper {
	return &programStepper{prog: prog}
}

// programStepper hosts a Program on a coroutine. Control moves
// program-ward on next() (inside Next) and runtime-ward on yield
// (inside Env.step), so exactly one of the two is ever running.
type programStepper struct {
	prog    Program
	env     *Env
	cur     *View // the runtime's view for the acting round being processed
	next    func() (Action, bool)
	stopFn  func()
	yieldFn func(Action) bool // false once the run is shutting down
	final   Action            // exit-derived action (halt or panic) once the coroutine ends
}

func (ps *programStepper) Init(ctx *StepContext) {
	ps.env = &Env{
		name:    ctx.Name,
		nPrime:  ctx.NPrime,
		kt1:     ctx.NeighborIDs,
		boards:  ctx.Whiteboards,
		rng:     ctx.Rand,
		scratch: ctx.Scratch,
		host:    ps,
	}
	seq := func(yield func(Action) bool) {
		ps.yieldFn = yield
		defer func() { ps.final = exitAction(recover()) }()
		ps.prog(ps.env)
	}
	ps.next, ps.stopFn = iter.Pull(iter.Seq[Action](seq))
}

func (ps *programStepper) Next(v *View) Action {
	ps.cur = v
	act, ok := ps.next()
	if !ok {
		// The program returned, halted, or panicked since its last
		// action; report how it exited.
		return ps.final
	}
	return act
}

// Finish unwinds the coroutine if the program is still live
// (idempotent, safe before Init) — the Finisher hook the runtime
// calls on every exit path.
func (ps *programStepper) Finish() {
	if ps.stopFn != nil {
		ps.stopFn()
	}
}
