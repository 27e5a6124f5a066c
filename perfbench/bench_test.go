package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"fnr/internal/harness"
	"fnr/internal/job"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{n: 1, pct: 50, beyond: 0},
		{n: 19, pct: 50, beyond: 9}, // too few: the median, with 9 beyond
		{n: 20, pct: 50, beyond: 10},
		{n: 39, pct: 50, beyond: 19},
		{n: 40, pct: 75, beyond: 10},
		{n: 99, pct: 75, beyond: 24},
		{n: 100, pct: 90, beyond: 10},
		{n: 199, pct: 90, beyond: 19},
		{n: 200, pct: 95, beyond: 10},
		{n: 5000, pct: 95, beyond: 250},
	} {
		pct, beyond := pickTail(c.n)
		if pct != c.pct || beyond != c.beyond {
			t.Errorf("pickTail(%d) = %v, %d; want %v, %d", c.n, pct, beyond, c.pct, c.beyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted on purpose
	}
	got := summarize(xs)
	want := summary{N: 100, P50: 50.5, TailPct: 90, Tail: 90, Beyond: 10}
	if got != want {
		t.Errorf("summarize(1..100) = %+v, want %+v", got, want)
	}
	if xs[0] != 100 {
		t.Error("summarize sorted its input in place")
	}
	// Below 20 samples no percentile has ten beyond it: the tail
	// repeats the median and the count says how few lie beyond.
	got = summarize([]float64{3, 1, 2})
	want = summary{N: 3, P50: 2, TailPct: 50, Tail: 2, Beyond: 1}
	if got != want {
		t.Errorf("summarize(3 samples) = %+v, want %+v", got, want)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zeros", got)
	}
}

func TestThroughput(t *testing.T) {
	// 25 ops, one every 0.1 s, except that ops 20-21 each took 1 s:
	// groups of 2, the last of 7. The slow group does not move the
	// median.
	var ends []float64
	at := 0.0
	for i := range 25 {
		if i == 20 || i == 21 {
			at += 1
		} else {
			at += 0.1
		}
		ends = append(ends, at)
	}
	if got := throughput(ends); math.Abs(got-10) > 1e-9 {
		t.Errorf("throughput = %v, want 10", got)
	}
	// Two ops, one a group: rates 2/s and 1/1.5 s, median 4/3.
	if got := throughput([]float64{0.5, 2}); math.Abs(got-4.0/3) > 1e-9 {
		t.Errorf("throughput(0.5, 2) = %v, want 4/3", got)
	}
	if got := throughput(nil); got != 0 {
		t.Errorf("throughput(nil) = %v, want 0", got)
	}
}

func TestMetricNames(t *testing.T) {
	for _, ok := range []string{"setup_s", "core.next_ns.whiteboard", "harness.E10_ms", "9lives", "a-b", strings.Repeat("x", 64)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "é", "a:b", strings.Repeat("x", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true, want false", bad)
		}
	}
	for _, ok := range []string{"ms", "s", "1/s", "count", "%", "MB", "us"} {
		if !validUnit(ok) {
			t.Errorf("validUnit(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", "m s", "µs", strings.Repeat("u", 17)} {
		if validUnit(bad) {
			t.Errorf("validUnit(%q) = true, want false", bad)
		}
	}
	if err := validateDefs(endToEnd, true); err != nil {
		t.Error(err)
	}
	if err := validateDefs(perLayer, false); err != nil {
		t.Error(err)
	}
	for _, bad := range [][]metricDef{
		{{Name: "a b", Unit: "s", Better: "lower", Bound: 0.1}},
		{{Name: "x", Unit: "s", Better: "lower", Bound: 0.1}, {Name: "x", Unit: "s", Better: "lower", Bound: 0.1}},
		{{Name: "x", Unit: "s", Better: "faster", Bound: 0.1}},
		{{Name: "x", Unit: "s", Better: "lower", Bound: 0.3}},
		{{Name: "x", Unit: "s", Better: "lower"}},
	} {
		if validateDefs(bad, true) == nil {
			t.Errorf("validateDefs(%+v) accepted an invalid list", bad)
		}
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the metrics and workloads
// the program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, want %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		want, _ := json.Marshal(perLayer)
		t.Errorf("BENCHMARK.json per_layer differs from the program's; want %s", want)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if !validName(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, want %v", names, want)
	}
	if !slices.Equal(b.Paths, []string{"perfbench"}) || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v / run_seconds %d out of range", b.Paths, b.RunSeconds)
	}
}

func TestHarnessIDs(t *testing.T) {
	var ids []string
	for _, e := range harness.All() {
		ids = append(ids, e.ID)
	}
	if !slices.Equal(ids, harnessIDs) {
		t.Errorf("harness.All() IDs = %v, want harnessIDs %v", ids, harnessIDs)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) int64 { return int64(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "job", Start: at(0), End: at(10)},
		{ID: 2, Parent: 1, Name: "server.submit", Start: at(0), End: at(2)},
		{ID: 3, Parent: 1, Name: "server.status", Start: at(5), End: at(6)},
		{ID: 4, Parent: 1, Name: "server.status", Start: at(8), End: at(9)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job":           6 * time.Millisecond,
		"server.submit": 2 * time.Millisecond,
		"server.status": 2 * time.Millisecond,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

// smallBatch builds a small batch workload for the tests below.
func smallBatch(t *testing.T, alg string, n, d, trials int) (job.Spec, job.Materialized) {
	t.Helper()
	wl := job.Workload{Kind: "planted", N: n, D: d, Seed: 11}
	m, err := wl.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return job.Spec{Algorithm: alg, Workload: &wl, Trials: trials, Seed: 5}, m
}

// TestInjectedMismatch checks that an aggregate one byte off its
// reference, an aggregate with faulted trials, or a digest off its
// pinned value counts as a failure.
func TestInjectedMismatch(t *testing.T) {
	spec, m := smallBatch(t, "sweep", 64, 8, 300)
	ref, err := runSpec(spec, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.RunBuilt(context.Background(), spec, m, job.ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	env := &runEnv{}
	if env.check("clean", res.Aggregate(), nil, ref) == nil || env.failedFrac() != 0 {
		t.Fatalf("a matching aggregate failed its check: %v", env.notes)
	}
	bad := slices.Clone(ref)
	bad[len(bad)/2] ^= 1
	if env.check("injected", res.Aggregate(), nil, bad) != nil {
		t.Fatal("a mismatching aggregate passed its check")
	}
	if env.attempted != 2 || env.failed != 1 || env.failedFrac() != 0.5 {
		t.Errorf("attempted %d failed %d frac %v, want 2, 1, 0.5", env.attempted, env.failed, env.failedFrac())
	}

	// A deterministic fault is in the reference too, so the byte
	// compare passes: the faulted trials alone must fail the check,
	// in-process and served.
	faulty := spec
	faulty.Faults = "panic:p=0.05"
	fref, err := runSpec(faulty, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := job.RunBuilt(context.Background(), faulty, m, job.ExecOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fenv := &runEnv{}
	if fenv.check("faulted", fres.Aggregate(), nil, fref) != nil {
		t.Error("an aggregate with faulted trials passed its check")
	}
	fenv.checkServed("served faulted", fref, nil, fref)
	fenv.checkServed("served clean", ref, nil, ref)
	if fenv.attempted != 3 || fenv.failed != 2 {
		t.Errorf("faulted checks: attempted %d failed %d, want 3, 2: %v", fenv.attempted, fenv.failed, fenv.notes)
	}

	path := t.TempDir() + "/golden.json"
	genv := &runEnv{seed: defaultSeed}
	if err := goldenStep(genv, path, true, "w", []string{"aa", "bb"}, false); err != nil {
		t.Fatal(err)
	}
	if err := goldenStep(genv, path, false, "w", []string{"aa", "bc"}, false); err != nil {
		t.Fatal(err)
	}
	if genv.attempted != 2 || genv.failed != 1 {
		t.Errorf("golden check: attempted %d failed %d, want 2, 1", genv.attempted, genv.failed)
	}
	other := &runEnv{seed: defaultSeed + 1}
	if err := goldenStep(other, path, false, "w", []string{"x"}, false); err != nil || other.attempted != 0 {
		t.Errorf("a seed without pinned digests was checked (attempted %d, err %v)", other.attempted, err)
	}
}

// TestWrapperMatchesUnwrapped runs small batches through the timing
// wrappers: every aggregate field but the algorithm name must equal
// the unwrapped run's, which holds only if Init, Reset and Finish
// reach the wrapped steppers (the lane re-arms each stepper many
// times through Reset).
func TestWrapperMatchesUnwrapped(t *testing.T) {
	if err := registerTracedOnce(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		alg         string
		n, d, trial int
	}{
		{"sweep", 64, 8, 2000},
		{"whiteboard", 256, 32, 64},
		{"noboard", 256, 32, 64},
	} {
		spec, m := smallBatch(t, c.alg, c.n, c.d, c.trial)
		want, err := runSpec(spec, m, 2)
		if err != nil {
			t.Fatal(err)
		}
		before := tracedStats[c.alg].snapshot()
		ts := spec
		ts.Algorithm = tracedPrefix + c.alg
		res, err := job.RunBuilt(context.Background(), ts, m, job.ExecOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		agg := res.Aggregate()
		if agg.Algorithm != ts.Algorithm {
			t.Errorf("%s: wrapped aggregate names %q", c.alg, agg.Algorithm)
		}
		agg.Algorithm = c.alg
		got, _ := json.Marshal(agg)
		if string(got) != string(want) {
			t.Errorf("%s: wrapped aggregate\n  %s\nwant\n  %s", c.alg, got, want)
		}
		calls, ns := before.estimate(tracedStats[c.alg].snapshot())
		if calls <= 0 || ns <= 0 {
			t.Errorf("%s: wrapper published %v calls, %v ns", c.alg, calls, ns)
		}
	}
}

// TestSuiteWorkerIndependent backs the suite's pinned table digests on
// hosts with another core count: the tables must not depend on the
// worker count.
func TestSuiteWorkerIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick suite twice")
	}
	one, _, err := suitePass(&runEnv{workers: 1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	three, _, err := suitePass(&runEnv{workers: 3}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != three[i] {
			t.Errorf("table %s differs between 1 and 3 workers:\n%s", harnessIDs[i], firstDiff(three, one, i))
		}
	}
}

// TestTracedSlices runs every workload briefly in traced mode: all
// outputs must check out, and together they must fill every per-layer
// metric.
func TestTracedSlices(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	if err := registerTracedOnce(); err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, w := range workloads {
		env := &runEnv{seed: 3, maxOps: sliceOps[w.name], traced: true, tr: newTracer(), workers: 2}
		out, err := w.run(env)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if env.failed != 0 || env.attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, env.failed, env.attempted, env.notes)
		}
		if out.ops != sliceOps[w.name] {
			t.Errorf("%s: ran %d ops, want %d", w.name, out.ops, sliceOps[w.name])
		}
		for k, v := range out.layer {
			values[k] = v
		}
	}
	if _, err := buildMetrics(perLayer, values); err != nil {
		t.Error(err)
	}
	for _, k := range []string{"core.next_ns.whiteboard", "sim.round_ns", "server.submit_ms", "harness.E1_ms"} {
		if values[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, values[k])
		}
	}
}
