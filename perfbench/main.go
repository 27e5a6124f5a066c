// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time, checks every output against an independent
// reference, and prints its metrics as the last line of standard
// output. Build and run it through run.py from the repository root:
//
//	python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// variant and prints the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"fnr/internal/engine"
	"fnr/internal/stats"

	// Strategy registrations.
	_ "fnr/internal/algo/paper"
	_ "fnr/internal/baseline"
)

// workloads maps each workload name to its runner, in BENCHMARK.json
// order.
var workloads = []struct {
	name string
	run  func(*runEnv) (*outcome, error)
}{
	{"paper-batch", func(env *runEnv) (*outcome, error) { return runBatchWorkload(env, paperBatch) }},
	{"tiny-batch", func(env *runEnv) (*outcome, error) { return runBatchWorkload(env, tinyBatch) }},
	{"serve", runServe},
	{"suite", runSuite},
}

// setupRepeats is how often a full run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// sliceOps is how many operations a traced slice of a non-primary
// workload runs.
var sliceOps = map[string]int{"paper-batch": 4, "tiny-batch": 2, "serve": 48, "suite": 2}

// maxNotes bounds how many failure messages a run prints.
const maxNotes = 8

// runEnv is what a workload runner needs: inputs, run length, and the
// output checker.
type runEnv struct {
	seed    uint64
	seconds float64
	maxOps  int // > 0: a traced slice, stopped after maxOps operations
	traced  bool
	tr      *tracer
	workers int

	attempted, failed int
	notes             []string
}

func (env *runEnv) setupRepeats() int {
	if env.maxOps > 0 {
		return 1
	}
	return setupRepeats
}

// more reports whether the timed loop should start another operation.
func (env *runEnv) more(start time.Time, ops int) bool {
	if env.maxOps > 0 {
		return ops < env.maxOps
	}
	return time.Since(start).Seconds() < env.seconds
}

// fail records a failed output check.
func (env *runEnv) fail(label, msg string) {
	env.failed++
	if len(env.notes) < maxNotes {
		env.notes = append(env.notes, label+": "+msg)
	}
}

// check counts one aggregate as a checked output: it fails when the
// run erred, its JSON differs from want by a single byte, or any trial
// faulted. It returns agg when the check passed, nil otherwise.
func (env *runEnv) check(label string, agg *engine.Aggregate, err error, want []byte) *engine.Aggregate {
	var got []byte
	if err == nil {
		got, err = json.Marshal(agg)
	}
	if !env.checkBytes(label, got, err, want) || env.faulted(label, agg) {
		return nil
	}
	return agg
}

// checkServed is check for an aggregate received as JSON.
func (env *runEnv) checkServed(label string, got []byte, err error, want []byte) {
	if !env.checkBytes(label, got, err, want) {
		return
	}
	var agg engine.Aggregate
	if err := json.Unmarshal(got, &agg); err != nil {
		env.fail(label, "decoding the aggregate: "+err.Error())
		return
	}
	env.faulted(label, &agg)
}

// faulted fails an output that already passed its byte compare when
// any of its trials faulted: a deterministic fault would be in the
// reference too.
func (env *runEnv) faulted(label string, agg *engine.Aggregate) bool {
	if agg.Errors == 0 {
		return false
	}
	env.fail(label, fmt.Sprintf("%d trials faulted: %v", agg.Errors, agg.FirstErrors))
	return true
}

// checkBytes counts one aggregate JSON as a checked output.
func (env *runEnv) checkBytes(label string, got []byte, err error, want []byte) bool {
	env.attempted++
	switch {
	case err != nil:
		env.fail(label, err.Error())
		return false
	case !bytes.Equal(got, want):
		env.fail(label, fmt.Sprintf("aggregate differs from reference:\n  got  %s\n  want %s", got, want))
		return false
	}
	return true
}

// failedFrac is the share of checked outputs that failed.
func (env *runEnv) failedFrac() float64 {
	if env.attempted == 0 {
		return 1
	}
	return float64(env.failed) / float64(env.attempted)
}

// outcome is what one workload run measured.
type outcome struct {
	setup     []float64 // s, one per set-up
	latencies []float64 // ms, one per untraced operation
	ops       int
	ends      []float64 // s since the window opened, one per op, ascending
	elapsed   float64   // s, the timed window
	cpu       float64   // s of process CPU time in the timed window
	digests   []string
	layer     map[string]float64
	detail    map[string]any
}

// opDone counts one operation of the window that opened at start.
func (o *outcome) opDone(start time.Time) {
	o.ops++
	o.ends = append(o.ends, time.Since(start).Seconds())
}

func newOutcome() *outcome {
	return &outcome{layer: map[string]float64{}, detail: map[string]any{}}
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func msSince(t time.Time) float64 { return ms(time.Since(t)) }

// cpuSeconds is the process's user plus system CPU time so far. Time
// the host steals from a virtual CPU is not in it, so a window whose
// CPU time per wall second falls below its usual value ran on a busy
// host. It is a diagnostic: 0 if the call fails.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload     = flag.String("workload", "", "workload: paper-batch, tiny-batch, serve or suite")
		seed         = flag.Uint64("seed", defaultSeed, "workload seed (derives every workload and batch seed)")
		seconds      = flag.Float64("seconds", 10, "length of the timed window")
		trace        = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		outDir       = flag.String("out-dir", "", "directory the traced run writes its spans to (required)")
		commit       = flag.String("commit", "unknown", "program revision, recorded in the output")
		sourceDigest = flag.String("source-digest", "", "digest of the program's sources, recorded in the output")
		goldenPath   = flag.String("golden", "", "pinned digests file, checked for its seed and for seed-independent workloads (required)")
		updateGolden = flag.Bool("update-golden", false, "write this run's digests into -golden instead of checking them")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *goldenPath == "" || *outDir == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --golden and --out-dir are required")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	idx := -1
	for i, w := range workloads {
		if w.name == *workload {
			idx = i
		}
	}
	if idx < 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if err := validateDefs(endToEnd, true); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := validateDefs(perLayer, false); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := registerTracedOnce(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	env := &runEnv{seed: *seed, seconds: *seconds, traced: *trace == 1, workers: runtime.NumCPU()}
	if env.traced {
		env.tr = newTracer()
	}
	w := workloads[idx]
	out, err := w.run(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	seedIndependent := out.detail["seed_independent"] == true

	if err := goldenStep(env, *goldenPath, *updateGolden, w.name, out.digests, seedIndependent); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	values := map[string]float64{}
	defs := endToEnd
	if env.traced {
		defs = perLayer
		for k, v := range out.layer {
			values[k] = v
		}
		// Fill the layers this workload does not exercise from short
		// traced slices of the workloads that do.
		for _, other := range workloads {
			if other.name == w.name {
				continue
			}
			senv := &runEnv{seed: env.seed, maxOps: sliceOps[other.name], traced: true, tr: env.tr, workers: env.workers}
			sout, err := other.run(senv)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: traced slice %s: %v\n", other.name, err)
				return 1
			}
			env.attempted += senv.attempted
			env.failed += senv.failed
			env.notes = append(env.notes, senv.notes...)
			for k, v := range sout.layer {
				if _, ok := values[k]; !ok {
					values[k] = v
				}
			}
		}
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, env.seed))
		if err := env.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		out.detail["spans_file"] = path
		sel := selfTimes(env.tr.spans)
		selfMS := map[string]float64{}
		for k, v := range sel {
			selfMS[k] = ms(v)
		}
		out.detail["span_self_ms"] = selfMS
	} else {
		sum := summarize(out.latencies)
		rss, err := maxRSSMB()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: getrusage:", err)
			return 1
		}
		values["setup_s"] = stats.Median(out.setup)
		values["ops_per_s"] = throughput(out.ends)
		values["latency_ms_p50"] = sum.P50
		values["max_rss_mb"] = rss
		out.detail["latency_ms"] = sum
		out.detail["setup_s_samples"] = out.setup
	}
	metrics, err := buildMetrics(defs, values)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	out.detail["workload"] = w.name
	out.detail["seed"] = env.seed
	out.detail["seconds"] = env.seconds
	out.detail["trace"] = *trace
	out.detail["nproc"] = runtime.NumCPU()
	out.detail["gomaxprocs"] = runtime.GOMAXPROCS(0)
	out.detail["go_version"] = runtime.Version()
	out.detail["commit"] = *commit
	out.detail["source_digest"] = *sourceDigest
	out.detail["ops"] = out.ops
	out.detail["elapsed_s"] = out.elapsed
	out.detail["mean_ops_per_s"] = float64(out.ops) / out.elapsed
	out.detail["window_cpu_per_s"] = out.cpu / out.elapsed
	out.detail["failed_frac"] = env.failedFrac()
	if len(env.notes) > 0 {
		out.detail["failures"] = env.notes
	}
	detail, err := json.Marshal(map[string]any{"detail": out.detail})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: detail:", err)
		return 1
	}
	fmt.Println(string(detail))
	for _, n := range env.notes {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", n)
	}
	fmt.Println(resultLine(result{
		Correct:   env.failed == 0,
		Attempted: env.attempted,
		Failed:    env.failed,
		Metrics:   metrics,
	}))
	if env.failed > 0 {
		return 1
	}
	return 0
}
