package sim

import "fmt"

// panicError formats a recovered panic value as the error a panicking
// lane trial surfaces — one message wherever the lane caught the panic
// (builder, Init/Reset, or Next), so the engine's first-error
// reporting does not depend on it.
func panicError(r any) error {
	return fmt.Errorf("sim: trial panicked: %v", r)
}

// safeFinish is Finish hardened against a poisoned stepper: a trial
// that panicked mid-run may have left its steppers in a state where
// even the Finish hook panics, and quarantine teardown must not let
// that second panic escape the lane.
func safeFinish(s Stepper) {
	defer func() { _ = recover() }()
	Finish(s)
}
