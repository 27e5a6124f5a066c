package sim

import (
	goruntime "runtime"
	"strings"
	"testing"
	"testing/quick"

	"fnr/internal/graph"
)

func stayer(e *Env) {
	for {
		e.Stay()
	}
}

// portWalker repeatedly moves through port 0.
func portWalker(e *Env) {
	for {
		if err := e.MoveToPort(0); err != nil {
			return
		}
	}
}

func mustRing(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Ring(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustComplete(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunValidatesConfig(t *testing.T) {
	g := mustRing(t, 4)
	if _, err := Run(Config{Graph: nil, StartA: 0, StartB: 1}, stayer, stayer); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(Config{Graph: g, StartA: 0, StartB: 99}, stayer, stayer); err == nil {
		t.Error("out-of-range start accepted")
	}
	if _, err := Run(Config{Graph: g, StartA: 0, StartB: 1}, nil, stayer); err == nil {
		t.Error("nil program accepted")
	}
}

func TestImmediateMeeting(t *testing.T) {
	g := mustRing(t, 4)
	res, err := Run(Config{Graph: g, StartA: 2, StartB: 2}, stayer, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.MeetRound != 0 || res.MeetVertex != 2 {
		t.Fatalf("got %+v, want met at round 0 on vertex 2", res)
	}
}

func TestStayersNeverMeet(t *testing.T) {
	g := mustRing(t, 4)
	res, err := Run(Config{Graph: g, StartA: 0, StartB: 2, MaxRounds: 50}, stayer, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("stayers met")
	}
	if res.Rounds != 50 {
		t.Fatalf("Rounds = %d, want 50", res.Rounds)
	}
	if res.A.Stays != 50 || res.B.Stays != 50 {
		t.Fatalf("stays = %d, %d, want 50, 50", res.A.Stays, res.B.Stays)
	}
}

// On K2 both agents moving every round swap positions forever; meeting
// requires co-location at the beginning of a round, so they never meet.
func TestSwapIsNotMeeting(t *testing.T) {
	g := mustComplete(t, 2)
	res, err := Run(Config{Graph: g, StartA: 0, StartB: 1, MaxRounds: 30}, portWalker, portWalker)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("swapping agents reported as met")
	}
	if res.A.Moves != 30 || res.B.Moves != 30 {
		t.Fatalf("moves = %d, %d, want 30, 30", res.A.Moves, res.B.Moves)
	}
}

// idWalker walks a ring by increasing vertex ID (requires tight IDs and
// neighbor-ID access).
func idWalker(e *Env) {
	n := e.NPrime()
	for {
		next := (e.HereID() + 1) % n
		if err := e.MoveToID(next); err != nil {
			return
		}
	}
}

func TestChaserMeetsStayer(t *testing.T) {
	// On a ring, a walker moving by increasing ID circles the ring; it
	// must reach the stayer within n rounds.
	g := mustRing(t, 8)
	res, err := Run(Config{Graph: g, StartA: 0, StartB: 3, NeighborIDs: true, MaxRounds: 100}, idWalker, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met {
		t.Fatal("walker never reached stayer")
	}
	if res.MeetVertex != 3 {
		t.Fatalf("met at %d, want 3", res.MeetVertex)
	}
	if res.MeetRound > 8 {
		t.Fatalf("met at round %d, want ≤ 8", res.MeetRound)
	}
}

func TestMoveToID(t *testing.T) {
	g := mustComplete(t, 5)
	hopper := func(e *Env) {
		// Walk the complete graph by ID: 0 → 1 → 2 → 3.
		for next := int64(1); next < 4; next++ {
			if err := e.MoveToID(next); err != nil {
				panic(err)
			}
		}
		e.Halt()
	}
	res, err := Run(Config{Graph: g, StartA: 0, StartB: 3, NeighborIDs: true, MaxRounds: 20}, hopper, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.MeetVertex != 3 || res.MeetRound != 3 {
		t.Fatalf("got %+v, want met at round 3 on vertex 3", res)
	}
}

func TestMoveToIDRequiresKT1(t *testing.T) {
	g := mustComplete(t, 3)
	var gotErr error
	prog := func(e *Env) {
		gotErr = e.MoveToID(1)
	}
	if _, err := Run(Config{Graph: g, StartA: 0, StartB: 2, NeighborIDs: false, MaxRounds: 5}, prog, stayer); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil || !strings.Contains(gotErr.Error(), "neighbor-ID") {
		t.Fatalf("MoveToID in KT0 returned %v, want neighbor-ID error", gotErr)
	}
}

func TestKT0HidesNeighborIDs(t *testing.T) {
	g := mustComplete(t, 4)
	sawIDs := false
	prog := func(e *Env) {
		if e.NeighborIDs() != nil || e.HasNeighborIDs() {
			sawIDs = true
		}
		if e.Degree() != 3 {
			panic("degree should still be visible in KT0")
		}
	}
	if _, err := Run(Config{Graph: g, StartA: 0, StartB: 2, NeighborIDs: false, MaxRounds: 5}, prog, stayer); err != nil {
		t.Fatal(err)
	}
	if sawIDs {
		t.Fatal("KT0 run leaked neighbor IDs")
	}
}

func TestWhiteboards(t *testing.T) {
	g := mustComplete(t, 4)
	// Writer marks its start vertex 0 and leaves; reader then visits
	// vertex 0 and reads the mark.
	writer := func(e *Env) {
		if err := e.WriteWhiteboard(42); err != nil {
			panic(err)
		}
		if err := e.MoveToID(3); err != nil { // commit + leave
			panic(err)
		}
	}
	var read int64 = NoMark
	reader := func(e *Env) {
		e.Stay() // round 0: writer's mark commits at vertex 0
		if err := e.MoveToID(0); err != nil {
			panic(err)
		}
		read = e.Whiteboard()
	}
	res, err := Run(Config{
		Graph: g, StartA: 0, StartB: 2,
		NeighborIDs: true, Whiteboards: true, MaxRounds: 20,
	}, writer, reader)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("agents met unexpectedly")
	}
	if read != 42 {
		t.Fatalf("reader saw %d, want 42", read)
	}
	if res.Writes != 1 {
		t.Fatalf("Writes = %d, want 1", res.Writes)
	}
}

func TestWhiteboardDisabledRejectsWrites(t *testing.T) {
	g := mustComplete(t, 3)
	var gotErr error
	prog := func(e *Env) {
		gotErr = e.WriteWhiteboard(1)
	}
	if _, err := Run(Config{Graph: g, StartA: 0, StartB: 1, MaxRounds: 5}, prog, stayer); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("WriteWhiteboard succeeded in a whiteboard-free run")
	}
}

func TestProgramPanicPropagates(t *testing.T) {
	g := mustRing(t, 4)
	bomber := func(e *Env) {
		e.Stay()
		panic("boom")
	}
	_, err := Run(Config{Graph: g, StartA: 0, StartB: 2, MaxRounds: 10}, bomber, stayer)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want program panic", err)
	}
}

func TestBothHaltedEndsRun(t *testing.T) {
	g := mustRing(t, 6)
	quitter := func(e *Env) {
		e.Stay()
	}
	res, err := Run(Config{Graph: g, StartA: 0, StartB: 3, MaxRounds: 1000}, quitter, quitter)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("quitters met")
	}
	if !res.A.Halted || !res.B.Halted {
		t.Fatal("agents not marked halted")
	}
	if res.Rounds >= 1000 {
		t.Fatalf("run did not end early: %d rounds", res.Rounds)
	}
}

func TestHaltStopsAgent(t *testing.T) {
	g := mustRing(t, 6)
	halter := func(e *Env) {
		e.Halt()
		panic("unreachable")
	}
	res, err := Run(Config{Graph: g, StartA: 0, StartB: 3, MaxRounds: 100}, halter, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if !res.A.Halted {
		t.Fatal("Halt did not halt")
	}
}

func TestStayForFastForward(t *testing.T) {
	g := mustRing(t, 4)
	longWaiter := func(e *Env) {
		e.StayFor(1_000_000)
	}
	var covered int64
	res, err := Run(Config{
		Graph: g, StartA: 0, StartB: 2, MaxRounds: 2_000_000,
		Observer: func(ev RoundEvent) { covered += ev.Skipped },
	}, longWaiter, longWaiter)
	if err != nil {
		t.Fatal(err)
	}
	if res.A.Stays != 1_000_000 {
		t.Fatalf("stays = %d, want 1000000", res.A.Stays)
	}
	if covered != res.Rounds {
		t.Fatalf("observer covered %d rounds, runtime executed %d", covered, res.Rounds)
	}
}

func TestWaitUntilRound(t *testing.T) {
	g := mustRing(t, 4)
	var woke int64 = -1
	prog := func(e *Env) {
		e.WaitUntilRound(137)
		woke = e.Round()
		e.WaitUntilRound(5) // in the past: no-op
		if e.Round() != 137 {
			panic("WaitUntilRound moved backwards")
		}
	}
	if _, err := Run(Config{Graph: g, StartA: 0, StartB: 2, MaxRounds: 200}, prog, stayer); err != nil {
		t.Fatal(err)
	}
	if woke != 137 {
		t.Fatalf("woke at round %d, want 137", woke)
	}
}

// randomWalk is a seed-driven random walker used for determinism tests.
func randomWalk(e *Env) {
	for {
		p := e.Rand().IntN(e.Degree())
		if err := e.MoveToPort(p); err != nil {
			return
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := mustComplete(t, 12)
	run := func(seed uint64) *Result {
		res, err := Run(Config{Graph: g, StartA: 0, StartB: 7, Seed: seed, MaxRounds: 100000}, randomWalk, randomWalk)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(42), run(42)
	if r1.Met != r2.Met || r1.MeetRound != r2.MeetRound || r1.MeetVertex != r2.MeetVertex ||
		r1.A.Moves != r2.A.Moves || r1.B.Moves != r2.B.Moves {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

// Property: two random walkers on a complete graph always meet well
// within the default budget, for any seed.
func TestRandomWalkersMeetProperty(t *testing.T) {
	g := mustComplete(t, 8)
	check := func(seed uint64) bool {
		res, err := Run(Config{Graph: g, StartA: 1, StartB: 5, Seed: seed}, randomWalk, randomWalk)
		return err == nil && res.Met
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: StayFor(k) is observationally equivalent to k separate
// Stay calls (same meeting round against a fixed opponent).
func TestStayForEquivalenceProperty(t *testing.T) {
	g := mustRing(t, 10)
	runWith := func(waiter Program) int64 {
		res, err := Run(Config{Graph: g, StartA: 0, StartB: 4, NeighborIDs: true, MaxRounds: 500}, idWalker, waiter)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Met {
			t.Fatal("walker never reached waiter")
		}
		return res.MeetRound
	}
	check := func(kRaw uint8) bool {
		k := int64(kRaw%20) + 1
		bulk := runWith(func(e *Env) { e.StayFor(k); stayer(e) })
		loop := runWith(func(e *Env) {
			for i := int64(0); i < k; i++ {
				e.Stay()
			}
			stayer(e)
		})
		return bulk == loop
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMovesAndDegreeAccounting(t *testing.T) {
	g := mustRing(t, 5)
	var sawDegree int
	prog := func(e *Env) {
		sawDegree = e.Degree()
		if err := e.MoveToPort(0); err != nil {
			panic(err)
		}
		if err := e.MoveToPort(0); err != nil {
			panic(err)
		}
	}
	res, err := Run(Config{Graph: g, StartA: 0, StartB: 3, MaxRounds: 10}, prog, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if sawDegree != 2 {
		t.Fatalf("degree = %d, want 2", sawDegree)
	}
	if res.A.Moves != 2 {
		t.Fatalf("moves = %d, want 2", res.A.Moves)
	}
}

func TestMoveToPortRange(t *testing.T) {
	g := mustRing(t, 5)
	var gotErr error
	prog := func(e *Env) {
		gotErr = e.MoveToPort(7)
	}
	if _, err := Run(Config{Graph: g, StartA: 0, StartB: 2, MaxRounds: 5}, prog, stayer); err != nil {
		t.Fatal(err)
	}
	if gotErr == nil {
		t.Fatal("out-of-range port accepted")
	}
}

func TestDisableMeeting(t *testing.T) {
	g := mustRing(t, 4)
	res, err := Run(Config{Graph: g, StartA: 1, StartB: 1, MaxRounds: 20, DisableMeeting: true}, stayer, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("DisableMeeting run reported a meeting")
	}
	if res.Rounds != 20 {
		t.Fatalf("Rounds = %d, want 20", res.Rounds)
	}
}

func TestMeetingFromRound(t *testing.T) {
	g := mustComplete(t, 2)
	// Both agents sit on the same vertex from round 0, but detection
	// is gated to round 10: the meeting must be reported exactly then.
	res, err := Run(Config{
		Graph: g, StartA: 0, StartB: 0,
		MaxRounds: 50, MeetingFromRound: 10,
	}, stayer, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Met || res.MeetRound != 10 {
		t.Fatalf("got met=%v round=%d, want meeting exactly at 10", res.Met, res.MeetRound)
	}
}

func TestMeetingFromRoundSkipsTransients(t *testing.T) {
	g := mustComplete(t, 2)
	// A meets B's vertex at round 1 (transient, before the gate), then
	// leaves at round 2; they never co-locate afterwards.
	visitOnce := func(e *Env) {
		if err := e.MoveToPort(0); err != nil {
			panic(err)
		}
		if err := e.MoveToPort(0); err != nil {
			panic(err)
		}
		for {
			e.Stay()
		}
	}
	res, err := Run(Config{
		Graph: g, StartA: 0, StartB: 1,
		MaxRounds: 40, MeetingFromRound: 5,
	}, visitOnce, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatalf("transient pre-gate co-location reported as meeting (round %d)", res.MeetRound)
	}
}

// Program coroutines must not leak: after many runs the goroutine
// count stays flat.
func TestNoGoroutineLeaks(t *testing.T) {
	g := mustRing(t, 6)
	before := goruntime.NumGoroutine()
	for i := 0; i < 200; i++ {
		_, err := Run(Config{Graph: g, StartA: 0, StartB: 3, MaxRounds: 5, Seed: uint64(i)}, stayer, stayer)
		if err != nil {
			t.Fatal(err)
		}
	}
	after := goruntime.NumGoroutine()
	if after > before+4 {
		t.Fatalf("goroutines grew from %d to %d across 200 runs", before, after)
	}
}

func TestWhiteboardPersistsAcrossRounds(t *testing.T) {
	g := mustComplete(t, 4)
	writer := func(e *Env) {
		if err := e.WriteWhiteboard(7); err != nil {
			panic(err)
		}
		if err := e.MoveToID(3); err != nil {
			panic(err)
		}
		// Idle far from the mark.
		for {
			e.Stay()
		}
	}
	var reads []int64
	reader := func(e *Env) {
		for i := 0; i < 3; i++ {
			e.StayFor(4)
			if err := e.MoveToID(0); err != nil {
				panic(err)
			}
			reads = append(reads, e.Whiteboard())
			if err := e.MoveToID(2); err != nil {
				panic(err)
			}
		}
	}
	if _, err := Run(Config{
		Graph: g, StartA: 0, StartB: 2,
		NeighborIDs: true, Whiteboards: true, MaxRounds: 100, DisableMeeting: true,
	}, writer, reader); err != nil {
		t.Fatal(err)
	}
	if len(reads) != 3 {
		t.Fatalf("reader made %d visits, want 3", len(reads))
	}
	for i, r := range reads {
		if r != 7 {
			t.Fatalf("visit %d read %d, want persistent mark 7", i, r)
		}
	}
}

// The two agents' random streams must be independent: changing the
// shared seed changes both, but agent b's draws never influence agent
// a's trajectory for a fixed seed.
func TestAgentRandomStreamIndependence(t *testing.T) {
	g := mustComplete(t, 16)
	trajectory := func(bProg Program) []graph.Vertex {
		var tr []graph.Vertex
		_, err := Run(Config{
			Graph: g, StartA: 0, StartB: 8, Seed: 42,
			MaxRounds: 30, DisableMeeting: true,
			Observer: func(ev RoundEvent) { tr = append(tr, ev.PosA) },
		}, randomWalk, bProg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// b's behavior differs wildly between the two runs; a's walk must
	// not change.
	t1 := trajectory(stayer)
	t2 := trajectory(randomWalk)
	if len(t1) != len(t2) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("agent a's trajectory depends on b's draws at round %d", i)
		}
	}
}

func TestMaxRoundsExactBoundary(t *testing.T) {
	g := mustRing(t, 4)
	res, err := Run(Config{Graph: g, StartA: 0, StartB: 2, MaxRounds: 1}, stayer, stayer)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Met {
		t.Fatalf("got rounds=%d met=%v, want exactly 1 round", res.Rounds, res.Met)
	}
}

func TestObserverSeesMonotonicRounds(t *testing.T) {
	g := mustRing(t, 6)
	last := int64(-1)
	_, err := Run(Config{
		Graph: g, StartA: 0, StartB: 3, MaxRounds: 50,
		Observer: func(ev RoundEvent) {
			if ev.Round <= last {
				t.Fatalf("observer rounds not increasing: %d after %d", ev.Round, last)
			}
			last = ev.Round
		},
	}, stayer, func(e *Env) { e.StayFor(20); stayer(e) })
	if err != nil {
		t.Fatal(err)
	}
	if last < 0 {
		t.Fatal("observer never called")
	}
}

// NeighborIDs buffers are only valid within a round; agents that copy
// them must observe consistent port order with the graph.
func TestNeighborIDsMatchPortOrder(t *testing.T) {
	g := mustComplete(t, 5)
	checked := false
	prog := func(e *Env) {
		ids := e.NeighborIDs()
		if len(ids) != 4 {
			panic("wrong neighbor count")
		}
		for p, id := range ids {
			if nb := g.Neighbor(0, p); g.ID(nb) != id {
				panic("port order mismatch")
			}
		}
		checked = true
	}
	if _, err := Run(Config{Graph: g, StartA: 0, StartB: 3, NeighborIDs: true, MaxRounds: 3}, prog, stayer); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("program never ran")
	}
}

// Randomized-program invariant check: agents performing arbitrary mixes
// of moves, stays, bulk waits, writes, and early halts must never break
// the runtime's accounting — per-agent moves+stays cover every round up
// to the halt, positions stay within the graph, and the run terminates.
func TestRandomProgramInvariantsProperty(t *testing.T) {
	g := mustComplete(t, 9)
	mkChaotic := func() Program {
		return func(e *Env) {
			r := e.Rand()
			for {
				switch r.IntN(6) {
				case 0:
					e.Stay()
				case 1:
					e.StayFor(1 + int64(r.IntN(7)))
				case 2, 3:
					if err := e.MoveToPort(r.IntN(e.Degree())); err != nil {
						panic(err)
					}
				case 4:
					if e.HasWhiteboards() {
						if err := e.WriteWhiteboard(int64(r.IntN(100))); err != nil {
							panic(err)
						}
					}
					e.Stay()
				case 5:
					if r.IntN(40) == 0 {
						return // occasional early halt
					}
					e.Stay()
				}
			}
		}
	}
	check := func(seed uint64) bool {
		maxRounds := int64(200)
		var lastA, lastB graph.Vertex = -1, -1
		res, err := Run(Config{
			Graph: g, StartA: 3, StartB: 6,
			NeighborIDs: true, Whiteboards: true,
			Seed: seed, MaxRounds: maxRounds, DisableMeeting: true,
			Observer: func(ev RoundEvent) {
				lastA, lastB = ev.PosA, ev.PosB
			},
		}, mkChaotic(), mkChaotic())
		if err != nil {
			return false
		}
		if res.Rounds > maxRounds {
			return false
		}
		if lastA < 0 || lastA >= graph.Vertex(g.N()) || lastB < 0 || lastB >= graph.Vertex(g.N()) {
			return false
		}
		// Every executed round is either a move or a stay for a live
		// agent; halted agents stop accumulating.
		if res.A.Moves+res.A.Stays > res.Rounds || res.B.Moves+res.B.Stays > res.Rounds {
			return false
		}
		if !res.A.Halted && res.A.Moves+res.A.Stays != res.Rounds {
			return false
		}
		if !res.B.Halted && res.B.Moves+res.B.Stays != res.Rounds {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
