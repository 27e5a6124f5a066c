package engine

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"fnr/internal/algo"
	"fnr/internal/graph"

	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

type diffInstance struct {
	name string
	g    *graph.Graph
}

// The differential suite: for every registered algorithm, across a
// seed × instance matrix, the native stepper form and the Program
// form (ForceProgramPath: the Build programs on coroutine hosts) must
// produce identical per-trial Outcomes and byte-identical Aggregate
// JSON. For the paper's algorithms and the baselines the two forms
// are independent implementations, so this compares two readings of
// the paper, not two schedulers. CI runs it under -race, which also
// exercises the coroutine host against the race detector.
func TestStepperAndProgramPathsAreIdentical(t *testing.T) {
	planted, err := graph.PlantedMinDegree(96, 24, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	complete, err := graph.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	instances := []diffInstance{{"planted96", planted}, {"k16", complete}}

	for _, spec := range specsUnderTest(t) {
		for _, inst := range instances {
			for _, seed := range []uint64{1, 99} {
				sa := graph.Vertex(0)
				sb := inst.g.Adj(sa)[0]
				base := Batch{
					Graph: inst.g, StartA: sa, StartB: sb,
					Algorithm: spec, Delta: inst.g.MinDegree(),
					Trials: 6, Seed: seed, MaxRounds: 1 << 20,
				}

				fast := base
				slow := base
				slow.ForceProgramPath = true // Program form

				fastOut, err := RunOutcomes(t.Context(), fast)
				if err != nil {
					t.Fatalf("%s/%s/seed%d stepper path: %v", spec, inst.name, seed, err)
				}
				slowOut, err := RunOutcomes(t.Context(), slow)
				if err != nil {
					t.Fatalf("%s/%s/seed%d program path: %v", spec, inst.name, seed, err)
				}
				for i := range fastOut {
					if fastOut[i] != slowOut[i] {
						t.Errorf("%s/%s/seed%d trial %d: stepper %+v vs program %+v",
							spec, inst.name, seed, i, fastOut[i], slowOut[i])
					}
				}

				fastAgg, err := json.Marshal(AggregateOutcomes(fast, fastOut))
				if err != nil {
					t.Fatal(err)
				}
				slowAgg, err := json.Marshal(AggregateOutcomes(slow, slowOut))
				if err != nil {
					t.Fatal(err)
				}
				if string(fastAgg) != string(slowAgg) {
					t.Errorf("%s/%s/seed%d: aggregate JSON differs:\nstepper: %s\nprogram: %s",
						spec, inst.name, seed, fastAgg, slowAgg)
				}
			}
		}
	}
}

// specsUnderTest returns every registered algorithm name, failing the
// test if the registry is unexpectedly empty (a differential suite
// that silently tests nothing is worse than a failing one).
func specsUnderTest(t *testing.T) []string {
	t.Helper()
	names := algo.Names()
	if len(names) < 7 {
		t.Fatalf("registry has %d specs, expected at least the 7 built-ins: %v", len(names), names)
	}
	return names
}

// The tightened gate for the paper's two algorithms, now native
// steppers: per-trial outcomes and aggregate JSON must be
// byte-identical across worker counts 1/4/16 and across the
// native-vs-ForceProgramPath axis — every combination against one
// reference. CI runs this under -race, which exercises the native
// machines and the worker-owned TrialContext reuse against the race
// detector.
func TestPaperSteppersIdenticalAcrossWorkersAndPaths(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 24, Seed: 424, MaxRounds: 1 << 22,
		}
		var refOut []Outcome
		var refAgg []byte
		for _, force := range []bool{false, true} {
			for _, workers := range []int{1, 4, 16} {
				b := base
				b.Workers = workers
				b.ForceProgramPath = force
				out, err := RunOutcomes(t.Context(), b)
				if err != nil {
					t.Fatalf("%s force=%v workers=%d: %v", name, force, workers, err)
				}
				agg, err := json.Marshal(AggregateOutcomes(b, out))
				if err != nil {
					t.Fatal(err)
				}
				if refOut == nil {
					refOut, refAgg = out, agg
					continue
				}
				for i := range out {
					if out[i] != refOut[i] {
						t.Errorf("%s force=%v workers=%d trial %d: %+v vs reference %+v",
							name, force, workers, i, out[i], refOut[i])
					}
				}
				if string(agg) != string(refAgg) {
					t.Errorf("%s force=%v workers=%d: aggregate JSON differs:\n%s\nreference: %s",
						name, force, workers, agg, refAgg)
				}
			}
		}
	}
}

// The stepper fast path must also be deterministic across worker
// counts, exactly like the Program path.
func TestStepperPathDeterministicAcrossWorkers(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"sweep", "birthday", "whiteboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 30, Seed: 77, MaxRounds: 1 << 22,
		}
		var blobs [][]byte
		for _, workers := range []int{1, 8} {
			b := base
			b.Workers = workers
			agg, err := Run(t.Context(), b)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			blob, err := json.Marshal(agg)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		if string(blobs[0]) != string(blobs[1]) {
			t.Errorf("%s: stepper-path aggregates differ across worker counts:\n1: %s\n8: %s", name, blobs[0], blobs[1])
		}
	}
}

// The lockstep-lane gate: for both paper algorithms, per-trial
// outcomes and aggregate JSON must be byte-identical across workers
// 1/4/16 × lane widths 1/8/64, with a width-1 lane on 1 worker — one
// trial resident at a time, in trial order — as the reference. CI
// runs this under -race, exercising the lane's slot state and the
// chunked claim queue against the race detector.
func TestLaneWidthAndWorkersDeterministic(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "noboard"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 24, Seed: 424, MaxRounds: 1 << 22,
		}
		ref := base
		ref.Workers = 1
		ref.LaneWidth = 1
		refOut, err := RunOutcomes(t.Context(), ref)
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		refAgg, err := json.Marshal(AggregateOutcomes(ref, refOut))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 16} {
			for _, width := range []int{1, 8, 64} {
				b := base
				b.Workers = workers
				b.LaneWidth = width
				out, err := RunOutcomes(t.Context(), b)
				if err != nil {
					t.Fatalf("%s workers=%d width=%d: %v", name, workers, width, err)
				}
				for i := range out {
					if out[i] != refOut[i] {
						t.Errorf("%s workers=%d width=%d trial %d: %+v vs reference %+v",
							name, workers, width, i, out[i], refOut[i])
					}
				}
				agg, err := json.Marshal(AggregateOutcomes(b, out))
				if err != nil {
					t.Fatal(err)
				}
				if string(agg) != string(refAgg) {
					t.Errorf("%s workers=%d width=%d: aggregate JSON differs:\n%s\nreference: %s",
						name, workers, width, agg, refAgg)
				}
			}
		}
	}
}

// Batches of a few trials split across every worker (see
// chunkedWorkers), so their per-worker parts merge at sizes a fixed
// 64-trial claim never produced. Within each entry point — Run, the
// streaming reducer, and the checkpoint journal — the aggregate JSON
// must be byte-identical at 1, 2 and 3 workers. Entry points are
// compared only with themselves: the outcome slice's Welford mean and
// the reducer's multiset mean may differ by a few ULPs.
func TestSmallBatchesIdenticalAcrossWorkers(t *testing.T) {
	g, sa, sb := testGraph(t)
	entries := []struct {
		name string
		run  func(b Batch) (*Aggregate, error)
	}{
		{"Run", func(b Batch) (*Aggregate, error) { return Run(t.Context(), b) }},
		{"RunReduced", func(b Batch) (*Aggregate, error) {
			r, err := RunReduced(t.Context(), b)
			if err != nil {
				return nil, err
			}
			return r.Aggregate(b), nil
		}},
		{"RunCheckpointed", func(b Batch) (*Aggregate, error) {
			path := filepath.Join(t.TempDir(), "journal.ckpt")
			r, err := RunCheckpointed(t.Context(), b, Checkpoint{Path: path, Every: 2}, nil)
			if err != nil {
				return nil, err
			}
			return r.Aggregate(b), nil
		}},
	}
	for _, name := range []string{"whiteboard", "noboard", "sweep"} {
		for _, trials := range []int{1, 3, 4, 10, 65} {
			for _, e := range entries {
				t.Run(fmt.Sprintf("%s/%d/%s", name, trials, e.name), func(t *testing.T) {
					var ref []byte
					for _, workers := range []int{1, 2, 3} {
						agg, err := e.run(Batch{
							Graph: g, StartA: sa, StartB: sb,
							Algorithm: name, Delta: g.MinDegree(),
							Trials: trials, Seed: 31, MaxRounds: 1 << 22,
							Workers: workers,
						})
						if err != nil {
							t.Fatalf("workers=%d: %v", workers, err)
						}
						blob, err := json.Marshal(agg)
						if err != nil {
							t.Fatal(err)
						}
						if ref == nil {
							ref = blob
						} else if string(blob) != string(ref) {
							t.Errorf("workers=%d: aggregate differs from 1 worker:\n%s\nreference: %s", workers, blob, ref)
						}
					}
				})
			}
		}
	}
}
