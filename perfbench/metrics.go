package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"slices"

	"fnr/internal/stats"
)

// metricDef is one metric of BENCHMARK.json: its name, unit, which
// direction is better and, for end-to-end metrics, the share of the
// parent's median by which it may worsen.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every untraced run prints, on every
// workload. The unit operation ("op") is workload-specific: a group of
// engine batches (paper-batch, tiny-batch), one served job from POST to
// its first terminal GET (serve, warm jobs), one quick pass of the
// experiment suite (suite). See README.md for the mapping. The tail
// latency is printed in the detail line, not gated: on a shared host
// its run-to-run spread exceeded any admissible bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer are the metrics every traced run prints. Each is filled
// from the traced workload's own traffic where that workload
// exercises the layer, and otherwise from a short traced slice of the
// workload that does (see README.md).
var perLayer = []metricDef{
	{Name: "core.next_ns.whiteboard", Unit: "ns", Better: "lower"},
	{Name: "core.next_ns.noboard", Unit: "ns", Better: "lower"},
	{Name: "baseline.next_ns.sweep", Unit: "ns", Better: "lower"},
	{Name: "core.next_calls", Unit: "count", Better: "lower"},
	{Name: "baseline.next_calls", Unit: "count", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "baseline.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.self_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.self_ns_per_round", Unit: "ns", Better: "lower"},
	{Name: "sim.rounds", Unit: "count", Better: "lower"},
	{Name: "sim.round_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.program_round_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.batch_worker_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.lane_width", Unit: "count", Better: "higher"},
	{Name: "engine.alloc_bytes_per_trial", Unit: "B", Better: "lower"},
	{Name: "engine.allocs_per_trial", Unit: "count", Better: "lower"},
	{Name: "engine.reduce_add_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.merge_us", Unit: "us", Better: "lower"},
	{Name: "engine.aggregate_us", Unit: "us", Better: "lower"},
	{Name: "graph.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "graph.footprint_mb", Unit: "MB", Better: "lower"},
	{Name: "graphcache.hits", Unit: "count", Better: "higher"},
	{Name: "graphcache.misses", Unit: "count", Better: "lower"},
	{Name: "graphcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "graphcache.evictions", Unit: "count", Better: "lower"},
	{Name: "graphcache.resident_mb", Unit: "MB", Better: "lower"},
	{Name: "job.normalize_hash_us", Unit: "us", Better: "lower"},
	{Name: "job.lower_us", Unit: "us", Better: "lower"},
	{Name: "server.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.status_ms", Unit: "ms", Better: "lower"},
	{Name: "server.polls_per_job", Unit: "count", Better: "lower"},
	{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.cold_job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// harnessIDs are the experiment suite's IDs in harness.All() order;
// each becomes a per-layer metric "harness.<ID>_ms". A test pins the
// list against harness.All().
var harnessIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "S1", "A1", "A2"}

func init() {
	for _, id := range harnessIDs {
		perLayer = append(perLayer, metricDef{Name: harnessMetric(id), Unit: "ms", Better: "lower"})
	}
}

func harnessMetric(id string) string { return "harness." + id + "_ms" }

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name:
// starts with a letter or digit, at most 64 letters, digits, '_', '.'
// and '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// validateDefs checks a metric list: legal, unique names and units,
// a known direction, and an end-to-end bound in (0, 0.25].
func validateDefs(defs []metricDef, endToEnd bool) error {
	seen := map[string]bool{}
	for _, d := range defs {
		switch {
		case !validName(d.Name):
			return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", d.Name)
		case seen[d.Name]:
			return fmt.Errorf("metric %q listed twice", d.Name)
		case !validUnit(d.Unit):
			return fmt.Errorf("metric %q: unit %q is not [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		case d.Better != "lower" && d.Better != "higher":
			return fmt.Errorf("metric %q: better must be lower or higher, got %q", d.Name, d.Better)
		case endToEnd && (d.Bound <= 0 || d.Bound > 0.25):
			return fmt.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		case !endToEnd && d.Bound != 0:
			return fmt.Errorf("per-layer metric %q has a bound", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// tailLadder lists the tail percentiles the picker may report, highest
// first. It stops at p95: a run of ~1000 samples would otherwise
// report a p99 resting on its ten slowest operations, which on a
// shared host measure the neighbours more than the program.
var tailLadder = []float64{95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail
// percentile.
const minBeyond = 10

// summary is a timing sample reduced to its median and tail.
type summary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	// TailPct is the highest ladder percentile with at least
	// minBeyond samples beyond it; when none qualifies it is 50, Tail
	// repeats the median and Beyond states how few samples lie beyond.
	TailPct float64 `json:"tail_pct"`
	Tail    float64 `json:"tail"`
	Beyond  int     `json:"beyond"`
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// pickTail returns the highest ladder percentile that leaves at least
// minBeyond of n samples strictly beyond its rank, and how many it
// leaves; when none qualifies, 50 and the (fewer) samples beyond it.
func pickTail(n int) (pct float64, beyond int) {
	for _, p := range tailLadder {
		if b := n - rank(p, n); b >= minBeyond {
			return p, b
		}
	}
	return 50, n - rank(50, n)
}

// summarize reduces samples (any order) to a summary: the median and
// the picked tail percentile by nearest rank. An empty sample
// summarizes to zeros.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	med := stats.Median(xs)
	pct, beyond := pickTail(n)
	tail := med
	if pct > 50 {
		s := slices.Clone(xs)
		slices.Sort(s)
		tail = s[rank(pct, n)-1]
	}
	return summary{N: n, P50: med, TailPct: pct, Tail: tail, Beyond: beyond}
}

// throughputGroups is how many groups of consecutive operations the
// ops_per_s median is taken over.
const throughputGroups = 10

// throughput is the median, over throughputGroups groups of
// consecutive operations, of each group's operations per second. ends
// are the operations' completion times in seconds since the window
// opened, ascending; a group runs from its predecessor's last end to
// its own last end, and the last group takes the remainder. A burst of
// load from outside the process slows a group or two, not the median.
// Fewer operations than groups make one group.
func throughput(ends []float64) float64 {
	n := len(ends)
	if n == 0 {
		return 0
	}
	groups := min(throughputGroups, n)
	k := n / groups
	rates := make([]float64, groups)
	prev := 0.0
	for g := range groups {
		hi := (g + 1) * k
		if g == groups-1 {
			hi = n
		}
		rates[g] = float64(hi-g*k) / (ends[hi-1] - prev)
		prev = ends[hi-1]
	}
	return stats.Median(rates)
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics renders values for exactly the names in defs, failing
// on a missing or non-finite value.
func buildMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// resultLine marshals r as the last line of standard output.
func resultLine(r result) string {
	data, err := json.Marshal(r)
	if err != nil {
		// Only float64, int, bool and string fields; NaN/Inf are
		// rejected by buildMetrics before this point.
		panic(err)
	}
	return string(data)
}
