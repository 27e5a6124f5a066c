package harness

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"fnr/internal/core"
	"fnr/internal/graph"
)

func TestTableRenderAndCSV(t *testing.T) {
	tb := &Table{
		ID: "T0", Title: "demo", Claim: "demo claim",
		Columns: []string{"a", "bb", "c"},
	}
	tb.AddRow(1, 2.5, "x")
	tb.AddRow(10, 0.333333333, "longer")
	tb.AddNote("note %d", 7)
	out := tb.Render()
	for _, want := range []string{"### T0 — demo", "demo claim", "| a ", "| bb", "longer", "- note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,bb,c" {
		t.Fatalf("csv = %q", buf.String())
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 15 {
		t.Fatalf("registry has %d experiments, want 15", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, ok := ByID("E9"); !ok {
		t.Error("ByID(E9) not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID(nope) found something")
	}
}

func TestRunTrialsOrderAndSeeds(t *testing.T) {
	cfg := Config{Seeds: 20, Workers: 3}
	type rec struct {
		trial int
		seed  uint64
	}
	got := runTrials(cfg, 42, func(trial int, seed uint64) rec { return rec{trial, seed} })
	if len(got) != 20 {
		t.Fatalf("got %d results, want 20", len(got))
	}
	seeds := map[uint64]bool{}
	for i, r := range got {
		if r.trial != i {
			t.Fatalf("got[%d].trial = %d (results out of order)", i, r.trial)
		}
		if seeds[r.seed] {
			t.Fatalf("duplicate trial seed %d", r.seed)
		}
		seeds[r.seed] = true
	}
	if len(runTrials(Config{Seeds: 0}, 1, func(int, uint64) int { return 0 })) != 0 {
		t.Fatal("empty trial set failed")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Seeds != 10 || c.Workers < 1 {
		t.Fatalf("defaults: %+v", c)
	}
	q := Config{Quick: true}.withDefaults()
	if q.Seeds != 4 {
		t.Fatalf("quick seeds = %d", q.Seeds)
	}
	if c.Params.SampleMult == 0 {
		t.Fatal("params not defaulted")
	}
}

// Each experiment must run end-to-end in quick mode and produce a
// non-empty, renderable table — the same table at 1 and 2 workers.
// Quick mode runs batches of 4 trials, which the engine splits across
// every worker, so this also pins multi-worker merges of small
// batches. This is the integration test for the whole reproduction
// pipeline.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still simulates; skipped under -short")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var rendered []string
			for _, workers := range []int{1, 2} {
				tb, err := e.Run(Config{Quick: true, Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", e.ID, workers, err)
				}
				if len(tb.Rows) == 0 {
					t.Fatalf("%s: empty table", e.ID)
				}
				if tb.ID != e.ID {
					t.Fatalf("%s: table ID %q", e.ID, tb.ID)
				}
				out := tb.Render()
				if !strings.Contains(out, e.ID) {
					t.Fatalf("%s: render missing ID", e.ID)
				}
				var buf bytes.Buffer
				if err := tb.WriteCSV(&buf); err != nil {
					t.Fatalf("%s: csv: %v", e.ID, err)
				}
				rendered = append(rendered, out)
			}
			if rendered[0] != rendered[1] {
				t.Errorf("%s: table differs between 1 and 2 workers:\n%s\nvs\n%s", e.ID, rendered[0], rendered[1])
			}
		})
	}
}

func TestBoundFunctions(t *testing.T) {
	// On complete graphs the Lemma-1 term must reduce to ≈ √n·ln n —
	// the Anderson–Weber regime the paper generalizes.
	n := 1024
	l1 := lemma1Bound(n, n-1, n-1)
	root := math.Sqrt(float64(n)) * math.Log(float64(n))
	if math.Abs(l1-root)/root > 0.01 {
		t.Fatalf("lemma1Bound(K_n) = %v, want ≈ √n·ln n = %v", l1, root)
	}
	// theorem1Bound = n/δ·ln²n + lemma1Bound.
	tb := theorem1Bound(n, 256, 300)
	want := float64(n)/256*math.Pow(math.Log(float64(n)), 2) + lemma1Bound(n, 256, 300)
	if math.Abs(tb-want) > 1e-9 {
		t.Fatalf("theorem1Bound = %v, want %v", tb, want)
	}
	// theorem2Bound grows when δ shrinks.
	p := Config{}.withDefaults().Params
	if theorem2Bound(p, n, 64) <= theorem2Bound(p, n, 256) {
		t.Fatal("theorem2Bound not decreasing in δ")
	}
}

func TestAdversarialRelabel(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	g, err := graph.PlantedMinDegree(100, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	pivot := graph.Vertex(17)
	h := adversarialRelabel(g, pivot)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatal("relabel changed structure")
	}
	// N+(pivot) must hold exactly the top IDs.
	cut := int64(h.N() - g.Degree(pivot) - 1)
	if h.ID(pivot) < cut {
		t.Fatalf("pivot ID %d below cut %d", h.ID(pivot), cut)
	}
	for _, w := range h.Adj(pivot) {
		if h.ID(w) < cut {
			t.Fatalf("pivot neighbor ID %d below cut %d", h.ID(w), cut)
		}
	}
	// Everyone else sits below the cut.
	inNb := map[graph.Vertex]bool{pivot: true}
	for _, w := range g.Adj(pivot) {
		inNb[w] = true
	}
	for v := graph.Vertex(0); int(v) < h.N(); v++ {
		if !inNb[v] && h.ID(v) >= cut {
			t.Fatalf("non-neighbor %d got top ID %d", v, h.ID(v))
		}
	}
}

func TestPlantLowDegreeNeighbor(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 34))
	g, err := graph.PlantedMinDegree(80, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	start := graph.Vertex(5)
	h, err := plantLowDegreeNeighbor(g, start, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N()+1 {
		t.Fatalf("n = %d, want %d", h.N(), g.N()+1)
	}
	x := graph.Vertex(g.N())
	if h.Degree(x) != 5 {
		t.Fatalf("planted degree %d, want 5", h.Degree(x))
	}
	if !h.HasEdge(x, start) {
		t.Fatal("planted vertex not adjacent to start")
	}
	if h.MinDegree() != 5 {
		t.Fatalf("min degree %d, want 5", h.MinDegree())
	}
}

func TestClassifierWorkloadSeparation(t *testing.T) {
	g, alpha, err := classifierWorkload(16)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 33 || alpha != 4 {
		t.Fatalf("workload n=%d α=%d", g.N(), alpha)
	}
	// Ground truth: clique leaves are ≥ 4α-heavy, isolated < α-light
	// for Γ = N+(center).
	tset := make(map[int64]struct{}, g.N())
	for v := 0; v < g.N(); v++ {
		tset[int64(v)] = struct{}{}
	}
	for v := graph.Vertex(1); v <= 16; v++ {
		if h := core.Heaviness(g, v, tset); h < 4*alpha {
			t.Fatalf("clique leaf %d heaviness %d < 4α=%d", v, h, 4*alpha)
		}
	}
	for v := graph.Vertex(17); v <= 32; v++ {
		if h := core.Heaviness(g, v, tset); h >= alpha {
			t.Fatalf("isolated leaf %d heaviness %d ≥ α=%d", v, h, alpha)
		}
	}
}
