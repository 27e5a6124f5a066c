// Command rendezvous runs neighborhood-rendezvous simulations and
// prints the outcome — a single traced run by default, a parallel
// batch with aggregate statistics under -trials.
//
// Usage:
//
//	rendezvous -graph planted -n 1024 -d 181 -algo whiteboard -seed 7
//	rendezvous -graph complete -n 256 -algo birthday
//	rendezvous -hard kt0 -n 256 -algo walkpair
//	rendezvous -graph planted -n 1024 -algo whiteboard -trials 500 -parallel 8 -json
//	rendezvous -list-algos
//
// The algorithm list is served by the strategy registry: anything
// registered (including third-party strategies linked into a custom
// build) is runnable by name.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"fnr"
)

func algoNames() []string {
	infos := fnr.Algorithms()
	names := make([]string, len(infos))
	for i, a := range infos {
		names[i] = a.Name
	}
	return names
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("rendezvous: ")
	var (
		graphKind = flag.String("graph", "planted", "graph family: planted|complete|ring|star|hypercube|torus|regular|gnp")
		hardKind  = flag.String("hard", "", "lower-bound instance instead of -graph: twostars|starclique|kt0|dist2|det")
		n         = flag.Int("n", 256, "number of vertices (dimension for hypercube)")
		d         = flag.Int("d", 0, "degree parameter (planted/regular; default n^0.75)")
		p         = flag.Float64("p", 0.1, "edge probability for gnp")
		algoName  = flag.String("algo", "whiteboard", "algorithm: "+strings.Join(algoNames(), "|"))
		listAlgos = flag.Bool("list-algos", false, "list registered algorithms and exit")
		seed      = flag.Uint64("seed", 1, "random seed (graph, agents, and batch trials)")
		trials    = flag.Int("trials", 1, "number of independent trials (> 1 submits an engine batch)")
		parallel  = flag.Int("parallel", 0, "batch worker count (0 = GOMAXPROCS; never affects results)")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON instead of text")
		maxRounds = flag.Int64("max-rounds", 0, "round budget (0 = 4n²+1000)")
		preset    = flag.String("params", "practical", "constant preset: practical|paper")
		delta     = flag.Int("delta", 0, "min degree known to agents (0 = doubling estimation / graph's δ where required)")
		trace     = flag.Bool("trace", false, "print agent positions every round (single runs only)")
	)
	flag.Parse()

	if *listAlgos {
		printAlgos(*jsonOut)
		return
	}
	if *algoName == "detpair" {
		// The deterministic greedy-sweep pair the Theorem-6 adversary
		// defends against; only meaningful with -hard det.
		runDetPair(*hardKind, *n)
		return
	}
	algo, err := fnr.ParseAlgorithm(*algoName)
	if err != nil {
		log.Fatal(err)
	}
	info := fnr.Algorithms()[algo]
	params := fnr.PracticalParams()
	switch *preset {
	case "practical":
	case "paper":
		params = fnr.PaperParams()
	default:
		log.Fatalf("unknown preset %q", *preset)
	}

	g, sa, sb, kt0, err := buildInstance(*graphKind, *hardKind, *n, *d, *p, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if info.NeedsDelta && *delta == 0 {
		*delta = g.MinDegree()
	}
	if kt0 && info.NeedsNeighborIDs {
		log.Printf("warning: the %s instance is a KT0 lower bound, but %v declares the neighbor-ID capability, so it still sees IDs here; the KT0 restriction only binds ID-free strategies (the E7 harness races those)", *hardKind, algo)
	}
	if *hardKind == "det" {
		log.Printf("note: the det instance defends against the deterministic greedy-sweep pair; use -algo detpair to see the ≥ n/32 hold-off")
	}

	if *trials > 1 {
		runBatch(g, sa, sb, info.Name, params, *delta, *trials, *seed, *maxRounds, *parallel, *jsonOut)
		return
	}
	if !*jsonOut {
		fmt.Printf("instance: %v, start a=%d (ID %d), b=%d (ID %d), dist=%d\n",
			g, sa, g.ID(sa), sb, g.ID(sb), fnr.Dist(g, sa, sb))
	}

	opt := fnr.Options{
		Seed:      *seed,
		MaxRounds: *maxRounds,
		Params:    params,
		Delta:     *delta,
	}
	if *trace && !*jsonOut {
		opt.Observer = func(ev fnr.RoundEvent) {
			fmt.Printf("round %8d: a=%d b=%d (×%d)\n", ev.Round, ev.PosA, ev.PosB, ev.Skipped)
		}
	}
	res, err := fnr.Rendezvous(g, sa, sb, algo, opt)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		out := map[string]any{
			"algorithm":  info.Name,
			"n":          g.N(),
			"min_degree": g.MinDegree(),
			"max_degree": g.MaxDegree(),
			"seed":       *seed,
			"met":        res.Met,
			"rounds":     res.Rounds,
			"moves_a":    res.A.Moves,
			"moves_b":    res.B.Moves,
			"writes":     res.Writes,
		}
		if res.Met {
			out["meet_round"] = res.MeetRound
			out["meet_vertex_id"] = g.ID(res.MeetVertex)
		}
		emitJSON(out)
		if !res.Met {
			os.Exit(1)
		}
		return
	}
	if res.Met {
		fmt.Printf("rendezvous at round %d on vertex %d (ID %d)\n", res.MeetRound, res.MeetVertex, g.ID(res.MeetVertex))
	} else {
		fmt.Printf("no rendezvous within %d rounds\n", res.Rounds)
		defer os.Exit(1)
	}
	fmt.Printf("agent a: %d moves, %d stays, halted=%v\n", res.A.Moves, res.A.Stays, res.A.Halted)
	fmt.Printf("agent b: %d moves, %d stays, halted=%v\n", res.B.Moves, res.B.Stays, res.B.Halted)
	fmt.Printf("whiteboard writes: %d\n", res.Writes)
}

// runBatch submits an engine batch and prints the aggregate.
func runBatch(g *fnr.Graph, sa, sb fnr.Vertex, name string, params fnr.Params, delta, trials int, seed uint64, maxRounds int64, workers int, jsonOut bool) {
	start := time.Now()
	agg, err := fnr.RunBatch(context.Background(), fnr.Batch{
		Graph:     g,
		StartA:    sa,
		StartB:    sb,
		Algorithm: name,
		Params:    params,
		Delta:     delta,
		Trials:    trials,
		Seed:      seed,
		MaxRounds: maxRounds,
		Workers:   workers,
	})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	if agg.Met == 0 {
		// Mirror the single-run convention: no rendezvous → exit 1.
		defer os.Exit(1)
	}
	if jsonOut {
		emitJSON(agg)
		return
	}
	fmt.Printf("instance: %v, start a=%d b=%d\n", g, sa, sb)
	fmt.Printf("batch: %s × %d trials (seed %d) in %v\n", name, trials, seed, elapsed.Round(time.Millisecond))
	fmt.Printf("met %d/%d (%.1f%%)\n", agg.Met, agg.Trials, 100*agg.SuccessRate)
	fmt.Printf("rounds (met): mean %.1f median %.1f p95 %.1f range [%.0f, %.0f]\n",
		agg.Rounds.Mean, agg.Rounds.Median, agg.Rounds.P95, agg.Rounds.Min, agg.Rounds.Max)
	fmt.Printf("moves (all):  mean %.1f median %.1f p95 %.1f range [%.0f, %.0f]\n",
		agg.Moves.Mean, agg.Moves.Median, agg.Moves.P95, agg.Moves.Min, agg.Moves.Max)
}

// printAlgos lists the registry contents.
func printAlgos(jsonOut bool) {
	infos := fnr.Algorithms()
	if jsonOut {
		emitJSON(infos)
		return
	}
	for _, a := range infos {
		var needs []string
		if a.NeedsNeighborIDs {
			needs = append(needs, "neighbor IDs")
		}
		if a.NeedsWhiteboards {
			needs = append(needs, "whiteboards")
		}
		if a.NeedsDelta {
			needs = append(needs, "known δ")
		}
		req := ""
		if len(needs) > 0 {
			req = " [needs " + strings.Join(needs, ", ") + "]"
		}
		fmt.Printf("%-12s %s%s\n", a.Name, a.Summary, req)
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Fatal(err)
	}
}

func runDetPair(hardKind string, n int) {
	if hardKind != "det" {
		log.Fatal("-algo detpair requires -hard det")
	}
	inst, err := fnr.HardInstance(fnr.HardDeterministic, n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instance: %v\n%s\n", inst.G, inst.Note)
	a, b := fnr.SweepAgentsForInstance()
	res, err := fnr.RunPrograms(fnr.SimConfig{
		Graph: inst.G, StartA: inst.StartA, StartB: inst.StartB,
		NeighborIDs: true, MaxRounds: int64(8 * n),
	}, a, b)
	if err != nil {
		log.Fatal(err)
	}
	if res.Met {
		fmt.Printf("met at round %d (theorem guarantees ≥ %d)\n", res.MeetRound, inst.LowerBound)
	} else {
		fmt.Printf("no rendezvous within %d rounds (theorem guarantees ≥ %d)\n", res.Rounds, inst.LowerBound)
	}
}

func buildInstance(graphKind, hardKind string, n, d int, p float64, seed uint64) (g *fnr.Graph, sa, sb fnr.Vertex, kt0 bool, err error) {
	if hardKind != "" {
		var kind fnr.HardKind
		switch hardKind {
		case "twostars":
			kind = fnr.HardTwoStars
		case "starclique":
			kind = fnr.HardStarClique
		case "kt0":
			kind = fnr.HardKT0
		case "dist2":
			kind = fnr.HardDistance2
		case "det":
			kind = fnr.HardDeterministic
		default:
			return nil, 0, 0, false, fmt.Errorf("unknown hard instance %q", hardKind)
		}
		inst, err := fnr.HardInstance(kind, n)
		if err != nil {
			return nil, 0, 0, false, err
		}
		return inst.G, inst.StartA, inst.StartB, inst.KT0, nil
	}
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	if d == 0 {
		d = depthDefault(n)
	}
	switch graphKind {
	case "planted":
		g, err = fnr.PlantedMinDegree(n, d, rng)
	case "complete":
		g, err = fnr.Complete(n)
	case "ring":
		g, err = fnr.Ring(n)
	case "star":
		g, err = fnr.Star(n)
	case "hypercube":
		g, err = fnr.Hypercube(n)
	case "torus":
		side := 3
		for side*side < n {
			side++
		}
		g, err = fnr.Torus(side, side)
	case "regular":
		g, err = fnr.RandomRegular(n, d, rng)
	case "gnp":
		g, err = fnr.GNP(n, p, rng)
	default:
		err = fmt.Errorf("unknown graph family %q", graphKind)
	}
	if err != nil {
		return nil, 0, 0, false, err
	}
	sa = fnr.Vertex(rng.IntN(g.N()))
	for g.Degree(sa) == 0 {
		sa = fnr.Vertex(rng.IntN(g.N()))
	}
	adj := g.Adj(sa)
	sb = adj[rng.IntN(len(adj))]
	return g, sa, sb, false, nil
}

func depthDefault(n int) int {
	d := 2
	for d*d*d*d < n*n*n { // d ≈ n^0.75
		d++
	}
	return d
}
