package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"fnr/internal/harness"
	"fnr/internal/stats"
)

// The suite workload: one quick pass of every harness.All() experiment,
// in-process. Its inputs are fixed by the harness's own seeds, so the
// benchmark seed does not reach it.

// suitePass runs every experiment once and returns the rendered tables
// (one string per experiment) and each experiment's wall time in ms.
// A tracer records one span per experiment under the pass's span.
func suitePass(env *runEnv, tr *tracer, pass int) ([]string, []float64, error) {
	cfg := harness.Config{Quick: true, Workers: env.workers}
	exps := harness.All()
	tables := make([]string, len(exps))
	walls := make([]float64, len(exps))
	op := fmt.Sprintf("suite/%d", pass)
	type child struct {
		name   string
		t0, t1 time.Time
	}
	var children []child
	start := time.Now()
	for i, e := range exps {
		t0 := time.Now()
		tb, err := e.Run(cfg)
		t1 := time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("suite: %s: %w", e.ID, err)
		}
		tables[i] = tb.Render()
		walls[i] = ms(t1.Sub(t0))
		children = append(children, child{"harness." + e.ID, t0, t1})
	}
	if tr != nil {
		root := tr.record(0, op, "suite.pass", start, time.Now(), nil)
		for _, c := range children {
			tr.record(root, op, c.name, c.t0, c.t1, nil)
		}
	}
	return tables, walls, nil
}

func runSuite(env *runEnv) (*outcome, error) {
	out := newOutcome()
	out.detail["seed_independent"] = true
	// Set-up is a warm-up pass (code paged in, heap grown, per-worker
	// scratch warm); its tables are the reference later passes must
	// reproduce.
	var ref []string
	for range env.setupRepeats() {
		t0 := time.Now()
		tables, _, err := suitePass(env, nil, -1)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		if ref == nil {
			ref = tables
		}
		env.checkTables("suite warm-up", tables, ref)
		runtime.GC() // as in runBatchWorkload
	}
	for _, t := range ref {
		out.digests = append(out.digests, digest([]byte(t)))
	}

	perExp := make([][]float64, len(harnessIDs))
	var traced, plain []float64
	start, cpu0 := time.Now(), cpuSeconds()
	for pass := 0; env.more(start, out.ops); pass++ {
		// Traced runs alternate traced and untraced passes; the
		// difference of their medians is the tracing overhead.
		var tr *tracer
		if env.traced && pass%2 == 0 {
			tr = env.tr
		}
		t0 := time.Now()
		tables, walls, err := suitePass(env, tr, pass)
		wall := msSince(t0)
		if err != nil {
			env.attempted++
			env.fail("suite pass", err.Error())
			out.opDone(start)
			continue
		}
		out.opDone(start)
		out.latencies = append(out.latencies, wall)
		env.checkTables(fmt.Sprintf("suite pass %d", pass), tables, ref)
		if tr == nil {
			plain = append(plain, wall)
			continue
		}
		traced = append(traced, wall)
		for i, w := range walls {
			perExp[i] = append(perExp[i], w)
		}
	}
	out.elapsed, out.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	out.detail["experiments_per_pass"] = len(harnessIDs)
	out.detail["suite_s"] = stats.Median(out.latencies) / 1e3
	if env.traced {
		for i, id := range harnessIDs {
			out.layer[harnessMetric(id)] = stats.Median(perExp[i])
		}
		out.layer["trace.overhead_pct"] = overheadPct(traced, plain)
	}
	return out, nil
}

// checkTables counts each experiment's table as one checked output.
func (env *runEnv) checkTables(label string, got, want []string) {
	for i := range want {
		env.attempted++
		if i >= len(got) || got[i] != want[i] {
			env.fail(label, fmt.Sprintf("table %s differs from the reference:\n%s", harnessIDs[i], firstDiff(got, want, i)))
		}
	}
}

// firstDiff returns the first differing line of table i.
func firstDiff(got, want []string, i int) string {
	if i >= len(got) {
		return "(missing)"
	}
	g, w := strings.Split(got[i], "\n"), strings.Split(want[i], "\n")
	for k := range min(len(g), len(w)) {
		if g[k] != w[k] {
			return fmt.Sprintf("got  %s\nwant %s", g[k], w[k])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
