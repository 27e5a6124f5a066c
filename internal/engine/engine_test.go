package engine

import (
	"encoding/json"
	"errors"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"fnr/internal/algo"
	"fnr/internal/graph"

	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

func testGraph(t *testing.T) (*graph.Graph, graph.Vertex, graph.Vertex) {
	t.Helper()
	rng := rand.New(rand.NewPCG(11, 12))
	g, err := graph.PlantedMinDegree(128, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	sa := graph.Vertex(0)
	return g, sa, g.Adj(sa)[0]
}

// aggregateOf folds b's trial-ordered outcomes (its shard's trials,
// when sharded) through a Reducer — Add at each global trial index,
// then AddSpan over the covered range — and aggregates: how a test
// holding an outcome slice reaches the one Aggregate producer.
func aggregateOf(b Batch, outcomes []Outcome) *Aggregate {
	lo, _ := b.shardSpan()
	r := NewReducer()
	for i, o := range outcomes {
		r.Add(lo+i, o)
	}
	r.AddSpan(lo, lo+len(outcomes))
	return r.Aggregate(b)
}

// The tentpole guarantee: the same batch seed produces byte-identical
// JSON aggregates at 1 worker and at many workers.
func TestDeterminismAcrossWorkers(t *testing.T) {
	g, sa, sb := testGraph(t)
	for _, name := range []string{"whiteboard", "sweep", "staywalk"} {
		base := Batch{
			Graph: g, StartA: sa, StartB: sb,
			Algorithm: name, Delta: g.MinDegree(),
			Trials: 40, Seed: 99, MaxRounds: 1 << 22,
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
			t.Errorf("%s: aggregates differ across worker counts:\n1: %s\n8: %s", name, blobs[0], blobs[1])
		}
	}
}

func TestOutcomesMatchTrialSeeds(t *testing.T) {
	g, sa, sb := testGraph(t)
	b := Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "sweep", Trials: 10, Seed: 5, Workers: 4,
	}
	outcomes, err := RunOutcomes(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 10 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	// Each trial must be individually reproducible: re-running trial i
	// as a 1-trial batch with the pre-derived seed is not possible
	// (seeds derive from the index), but re-running the whole batch
	// serially must reproduce every entry.
	b.Workers = 1
	again, err := RunOutcomes(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outcomes {
		if outcomes[i] != again[i] {
			t.Fatalf("trial %d differs across runs: %+v vs %+v", i, outcomes[i], again[i])
		}
	}
	for _, o := range outcomes {
		if !o.Met {
			t.Fatalf("sweep on adjacent starts must meet: %+v", o)
		}
	}
}

// Capability mismatch: "noboard" declares NeedsDelta, so a batch
// without Delta must fail up front with the sentinel error.
func TestCapabilityMismatch(t *testing.T) {
	g, sa, sb := testGraph(t)
	_, err := Run(t.Context(), Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "noboard", Trials: 4, Seed: 1,
	})
	if !errors.Is(err, algo.ErrDeltaRequired) {
		t.Fatalf("err = %v, want ErrDeltaRequired", err)
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	g, sa, sb := testGraph(t)
	_, err := Run(t.Context(), Batch{Graph: g, StartA: sa, StartB: sb, Algorithm: "nope", Trials: 1})
	if !errors.Is(err, algo.ErrUnknown) {
		t.Fatalf("err = %v, want ErrUnknown", err)
	}
}

func TestBatchValidation(t *testing.T) {
	g, sa, sb := testGraph(t)
	cases := []Batch{
		{Graph: nil, Algorithm: "sweep", Trials: 1},
		{Graph: g, StartA: sa, StartB: sb, Algorithm: "sweep", Trials: 0},
		{Graph: g, StartA: -1, StartB: sb, Algorithm: "sweep", Trials: 1},
		{Graph: g, StartA: sa, StartB: graph.Vertex(g.N()), Algorithm: "sweep", Trials: 1},
	}
	for i, b := range cases {
		if _, err := Run(t.Context(), b); err == nil {
			t.Errorf("case %d: invalid batch accepted", i)
		}
	}
}

// A negative lane width is a caller error, rejected by every entry
// point before any trial runs.
func TestNegativeLaneWidthRejected(t *testing.T) {
	g, sa, sb := testGraph(t)
	b := Batch{Graph: g, StartA: sa, StartB: sb, Algorithm: "sweep", Trials: 4, Seed: 1, LaneWidth: -1}
	const want = "engine: LaneWidth -1 < 0"
	_, errRun := Run(t.Context(), b)
	_, errOutcomes := RunOutcomes(t.Context(), b)
	_, errReduced := RunReduced(t.Context(), b)
	_, errCheckpointed := RunCheckpointed(t.Context(), b, Checkpoint{}, nil)
	for name, err := range map[string]error{
		"Run": errRun, "RunOutcomes": errOutcomes,
		"RunReduced": errReduced, "RunCheckpointed": errCheckpointed,
	} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

// Equal start vertices would turn every trial into a round-0 meeting
// and silently skew aggregates; the batch must be rejected up front
// with an error that names the problem.
func TestEqualStartsRejected(t *testing.T) {
	g, sa, _ := testGraph(t)
	_, err := Run(t.Context(), Batch{Graph: g, StartA: sa, StartB: sa, Algorithm: "sweep", Trials: 4, Seed: 1})
	if err == nil {
		t.Fatal("StartA == StartB accepted")
	}
	if !strings.Contains(err.Error(), "distinct start vertices") {
		t.Fatalf("err = %v, want a distinct-start-vertices error", err)
	}
	// RunOutcomes goes through the same validation.
	if _, err := RunOutcomes(t.Context(), Batch{Graph: g, StartA: sa, StartB: sa, Algorithm: "sweep", Trials: 4, Seed: 1}); err == nil {
		t.Fatal("RunOutcomes accepted StartA == StartB")
	}
}

func TestTrialsScratchPerWorker(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		scratches := map[*int]bool{}
		got := TrialsScratch(workers, 40,
			func() *int {
				s := new(int)
				mu.Lock()
				scratches[s] = true
				mu.Unlock()
				return s
			},
			func(s *int, i int) int {
				*s++ // scratch is worker-private: no lock needed
				return i * i
			})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
		if len(scratches) > max(workers, 1) {
			t.Fatalf("workers=%d: %d scratches allocated, want ≤ %d (one per worker)", workers, len(scratches), workers)
		}
		total := 0
		for s := range scratches {
			total += *s
		}
		if total != 40 {
			t.Fatalf("workers=%d: scratch uses sum to %d, want 40", workers, total)
		}
	}
}

func TestTrialSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for batch := uint64(0); batch < 4; batch++ {
		for trial := 0; trial < 1000; trial++ {
			s := TrialSeed(batch, trial)
			if seen[s] {
				t.Fatalf("seed collision at batch %d trial %d", batch, trial)
			}
			seen[s] = true
		}
	}
	if TrialSeed(7, 3) != TrialSeed(7, 3) {
		t.Fatal("TrialSeed not deterministic")
	}
}

func TestTrialsOrdering(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		got := Trials(workers, 50, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
	if Trials(4, 0, func(int) int { return 0 }) != nil {
		t.Fatal("empty Trials should return nil")
	}
}

func TestAggregateCounts(t *testing.T) {
	g, sa, sb := testGraph(t)
	// walkpair with a tiny budget: misses must be counted as failures
	// and excluded from the rounds distribution.
	agg, err := Run(t.Context(), Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "walkpair", Trials: 8, Seed: 3, MaxRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Met+agg.Failures != agg.Trials {
		t.Fatalf("met %d + failures %d != trials %d", agg.Met, agg.Failures, agg.Trials)
	}
	if agg.Met == agg.Trials {
		t.Fatal("1-round budget should force some misses")
	}
}

// The chunked-claim rewrite of the worker pool must preserve the
// output layout exactly: out[i] == f(i) for every index, at any
// worker count, across chunk-boundary edge cases (satellite of the
// lockstep PR — chunk claiming changes which worker runs an index,
// never where its result lands).
func TestTrialsChunkedClaimOrdering(t *testing.T) {
	sizes := []int{1, claimChunk - 1, claimChunk, claimChunk + 1, 5*claimChunk + 17}
	for _, workers := range []int{1, 3, 7, 16} {
		for _, n := range sizes {
			got := Trials(workers, n, func(i int) int { return 3*i + 1 })
			if len(got) != n {
				t.Fatalf("workers=%d n=%d: %d results", workers, n, len(got))
			}
			for i, v := range got {
				if v != 3*i+1 {
					t.Fatalf("workers=%d n=%d: got[%d] = %d, want %d", workers, n, i, v, 3*i+1)
				}
			}
		}
	}
}

// The pool's claims follow the guided rule: every index is claimed
// exactly once, no chunk exceeds claimChunk, chunk sizes never grow
// as the cursor advances, and on several workers a batch far smaller
// than claimChunk splits into single trials so every worker gets one.
// All four hold under any goroutine schedule, because a chunk's size
// depends only on the cursor it was claimed at. Each live worker
// returns one scratch.
func TestChunkedWorkersClaimSizes(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{1, 4, claimChunk - 1, claimChunk, claimChunk + 1, 256, 5*claimChunk + 17} {
			var mu sync.Mutex
			var claims [][2]int
			scratches := chunkedWorkers(t.Context(), workers, n, func() struct{} { return struct{}{} }, func(_ struct{}, from, to int) {
				mu.Lock()
				defer mu.Unlock()
				claims = append(claims, [2]int{from, to})
			})
			if len(scratches) != min(workers, n) {
				t.Fatalf("workers=%d n=%d: %d scratches", workers, n, len(scratches))
			}
			slices.SortFunc(claims, func(a, b [2]int) int { return a[0] - b[0] })
			next, prevSize := 0, claimChunk
			for _, c := range claims {
				from, to := c[0], c[1]
				if from != next {
					t.Fatalf("workers=%d n=%d: claim [%d, %d) after cursor %d (claims %v)", workers, n, from, to, next, claims)
				}
				size := to - from
				if size < 1 || size > claimChunk {
					t.Fatalf("workers=%d n=%d: claim [%d, %d) has size %d, want 1..%d", workers, n, from, to, size, claimChunk)
				}
				if size > prevSize {
					t.Fatalf("workers=%d n=%d: claim [%d, %d) grew to %d after a chunk of %d", workers, n, from, to, size, prevSize)
				}
				if n == 4 && workers == 2 && size != 1 {
					t.Fatalf("workers=2 n=4: claim [%d, %d) has size %d, want single trials", from, to, size)
				}
				next, prevSize = to, size
			}
			if next != n {
				t.Fatalf("workers=%d n=%d: claims cover [0, %d)", workers, n, next)
			}
		}
	}
}
