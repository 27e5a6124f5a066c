package engine

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"
)

// cancelBatch is a batch big enough that a racing cancel reliably
// lands mid-run in either strategy form.
func cancelBatch(t *testing.T) Batch {
	t.Helper()
	g, sa, sb := testGraph(t)
	return Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "whiteboard", Delta: g.MinDegree(),
		Trials: 10_000, Seed: 77, MaxRounds: 1 << 22,
	}
}

// Cancelling RunReduced mid-batch returns the completed partial state
// together with ctx.Err(): the reducer's trial count equals its span
// coverage exactly (nothing half-run, nothing uncounted), and
// resuming the uncovered ranges reproduces the uninterrupted
// aggregate byte for byte — wherever the cancel happened to land.
func TestCancelMidBatchReturnsCoveredPartialState(t *testing.T) {
	b := cancelBatch(t)
	want, err := RunReduced(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, _ := json.Marshal(want.Aggregate(b))

	paths := []struct {
		name string
		mut  func(*Batch)
	}{
		{"lanes", func(b *Batch) {}},
		{"program", func(b *Batch) { b.ForceProgramPath = true }},
	}
	for _, p := range paths {
		pb := b
		p.mut(&pb)
		ctx, cancel := context.WithCancel(t.Context())
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		r, err := RunReduced(ctx, pb)
		cancel()
		if err == nil {
			// The batch outran the cancel; nothing to assert beyond
			// the result being the reference.
			if blob, _ := json.Marshal(r.Aggregate(pb)); string(blob) != string(wantAgg) {
				t.Errorf("%s: uncancelled run diverged from reference", p.name)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", p.name, err)
		}
		covered := 0
		spans := r.Spans()
		for i, s := range spans {
			if s.Lo >= s.Hi || s.Lo < 0 || s.Hi > pb.Trials {
				t.Fatalf("%s: malformed span %v", p.name, s)
			}
			if i > 0 && s.Lo <= spans[i-1].Hi {
				t.Fatalf("%s: spans not coalesced-ascending: %v", p.name, spans)
			}
			covered += s.Hi - s.Lo
		}
		if covered != r.trials {
			t.Fatalf("%s: spans cover %d trials but reducer absorbed %d", p.name, covered, r.trials)
		}
		if covered == pb.Trials {
			t.Logf("%s: cancel landed after the last chunk; resume is a no-op", p.name)
		}
		// Resume: the partial state plus the uncovered remainder must
		// reproduce the uninterrupted aggregate exactly.
		resumed, err := RunCheckpointed(t.Context(), pb, Checkpoint{}, r)
		if err != nil {
			t.Fatalf("%s: resume: %v", p.name, err)
		}
		gotAgg, _ := json.Marshal(resumed.Aggregate(pb))
		if string(gotAgg) != string(wantAgg) {
			t.Errorf("%s: cancel+resume aggregate differs from uninterrupted run:\ngot:  %s\nwant: %s",
				p.name, gotAgg, wantAgg)
		}
	}
}

// A context cancelled before the call returns immediately: no trials,
// empty coverage, ctx.Err() — and RunOutcomes/Run report (nil, err).
func TestPreCancelledContext(t *testing.T) {
	b := cancelBatch(t)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	r, err := RunReduced(ctx, b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunReduced: err = %v, want context.Canceled", err)
	}
	if r.trials != 0 || len(r.Spans()) != 0 {
		t.Errorf("pre-cancelled RunReduced absorbed %d trials, spans %v", r.trials, r.Spans())
	}
	if out, err := RunOutcomes(ctx, b); out != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("RunOutcomes: (%v, %v), want (nil, context.Canceled)", out, err)
	}
	if agg, err := Run(ctx, b); agg != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("Run: (%v, %v), want (nil, context.Canceled)", agg, err)
	}
}

// Cancellation must not leak worker goroutines: every worker exits
// before the Run* call returns, for the native stepper form and the
// Program form (whose coroutines must unwind too), even when the
// cancel races chunk claiming.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	b := cancelBatch(t)
	b.Workers = 8
	before := runtime.NumGoroutine()
	for i := range 20 {
		ctx, cancel := context.WithCancel(t.Context())
		pb := b
		pb.ForceProgramPath = i%2 == 1
		go cancel() // race the cancel against the whole run
		if _, err := RunReduced(ctx, pb); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatal(err)
		}
		cancel()
	}
	// Workers exit synchronously (the pool waits on its WaitGroup),
	// but give the scheduler a grace window before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the cancelled batches, %d after — workers leaked", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
