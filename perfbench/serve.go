package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"time"

	"fnr/internal/engine"
	"fnr/internal/graphcache"
	"fnr/internal/job"
	"fnr/internal/server"
	"fnr/internal/stats"
)

// The serve workload: fnrd's server behind httptest on loopback TCP,
// driven by a closed loop of serveClients clients. Each client POSTs a
// spec, then polls GET every servePoll until the job is terminal, then
// submits the next. The timed window runs warm jobs only: specs on
// serveWarmKeys workloads the cache already holds (graph-cache hits).
// After the window, serveColdJobs cold jobs each name a never-seen
// workload seed, so their graphs are built inside the request (cache
// misses); they are reported apart and move no gated metric.
const (
	serveClients = 2
	servePoll    = time.Millisecond
	// serveWarmKeys is two warm workloads per client: the two jobs in
	// flight name the same graph one time in four and different ones
	// otherwise, so both concurrent-hit cases run.
	serveWarmKeys = 2 * serveClients
	// serveN, serveD: δ = 64 ≥ √512, inside Theorem 1's regime like
	// paper-batch, on a graph half its size, so that a serveTrials-trial
	// warm job takes about ten poll intervals.
	serveN      = 512
	serveD      = 64
	serveTrials = 384
	serveStream = 0x5e7e
	// serveColdJobs is the fewest samples whose median has minBeyond
	// samples beyond it, the rule every reported percentile follows.
	serveColdJobs = 2 * minBeyond
)

var serveAlgos = []string{"whiteboard", "noboard", "sweep"}

// serveSpecs derives the warm spec pool: serveWarmKeys workloads ×
// serveAlgos × 2 batch seeds.
func serveSpecs(seed uint64) []job.Spec {
	rng := rand.New(rand.NewPCG(seed, serveStream))
	var pool []job.Spec
	for range serveWarmKeys {
		wl := job.Workload{Kind: "planted", N: serveN, D: serveD, Seed: rng.Uint64()}
		for _, alg := range serveAlgos {
			for range 2 {
				w := wl
				pool = append(pool, job.Spec{Algorithm: alg, Workload: &w, Trials: serveTrials, Seed: rng.Uint64()})
			}
		}
	}
	return pool
}

// coldSpec is the k-th cold job's spec: a fresh workload seed.
func coldSpec(seed uint64, k int) job.Spec {
	rng := rand.New(rand.NewPCG(seed^0xc01d, uint64(k)))
	wl := job.Workload{Kind: "planted", N: serveN, D: serveD, Seed: rng.Uint64()}
	return job.Spec{Algorithm: serveAlgos[k%len(serveAlgos)], Workload: &wl, Trials: serveTrials, Seed: rng.Uint64()}
}

// warmJob returns warm job i's index in the spec pool.
func warmJob(seed uint64, i, poolSize int) int {
	rng := rand.New(rand.NewPCG(seed^0x3a7, uint64(i)))
	return rng.IntN(poolSize)
}

// serveState is one set-up server with its warm pool and references.
type serveState struct {
	pool     []job.Spec
	poolJSON [][]byte
	built    map[string]job.Materialized // in-process builds of the warm workloads
	refs     [][]byte
	cache    *graphcache.Cache
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
}

func (s *serveState) close() {
	s.ts.Close()
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // every job already reached a terminal state
}

// setupServe builds the warm workloads and the pool's reference
// aggregates in-process, starts the server with a cache sized for the
// warm graphs, and submits every pool spec once (which makes the warm
// graphs resident).
func setupServe(env *runEnv) (*serveState, []float64, error) {
	st := &serveState{pool: serveSpecs(env.seed), built: map[string]job.Materialized{}}
	built := st.built
	var genMS []float64
	var footprint int64
	for _, s := range st.pool {
		key := s.WorkloadKey()
		if _, ok := built[key]; !ok {
			t0 := time.Now()
			m, err := s.Materialize()
			if err != nil {
				return nil, nil, fmt.Errorf("serve: materialize: %w", err)
			}
			genMS = append(genMS, msSince(t0))
			built[key] = m
			footprint = max(footprint, m.Graph.FootprintBytes())
		}
		ref, err := runSpec(s, built[key], 1)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: reference: %w", err)
		}
		st.refs = append(st.refs, ref)
		data, err := json.Marshal(s)
		if err != nil {
			return nil, nil, err
		}
		st.poolJSON = append(st.poolJSON, data)
	}
	// The cache holds the warm graphs: the window runs on hits alone,
	// and each cold build after it evicts the least recently used entry.
	st.cache = graphcache.New(footprint * serveWarmKeys)
	st.srv = server.New(server.Config{Jobs: 2, JobWorkers: 1, Cache: st.cache})
	st.ts = httptest.NewServer(st.srv)
	st.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients * 2}}
	for i := range st.pool {
		r := st.do(nil, "", st.poolJSON[i])
		env.checkServed(fmt.Sprintf("serve warm-up %d", i), r.agg, r.err, st.refs[i])
	}
	return st, genMS, nil
}

// jobRun is one client-side job: latency from the POST to the first
// terminal GET, and the round trips that made it up.
type jobRun struct {
	latency  float64 // ms
	end      time.Time
	submit   float64 // POST round trip, ms
	statuses []float64
	sleeps   []float64 // actual poll sleeps, ms
	agg      []byte
	err      error
}

type statusResp struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	Error     string          `json:"error"`
	Aggregate json.RawMessage `json:"aggregate"`
}

// do runs one job through the HTTP API. With a tracer it records the
// job's root span and one child span per round trip under opID.
func (s *serveState) do(tr *tracer, opID string, body []byte) jobRun {
	var r jobRun
	t0 := time.Now()
	resp, err := s.roundTrip(http.MethodPost, s.ts.URL+"/v1/batches", body, http.StatusAccepted)
	t1 := time.Now()
	r.submit = ms(t1.Sub(t0))
	var spans [][2]time.Time
	spans = append(spans, [2]time.Time{t0, t1})
	for err == nil && !terminal(resp.State) {
		s0 := time.Now()
		time.Sleep(servePoll)
		g0 := time.Now()
		r.sleeps = append(r.sleeps, ms(g0.Sub(s0)))
		resp, err = s.roundTrip(http.MethodGet, s.ts.URL+"/v1/batches/"+resp.ID, nil, http.StatusOK)
		g1 := time.Now()
		r.statuses = append(r.statuses, ms(g1.Sub(g0)))
		spans = append(spans, [2]time.Time{g0, g1})
	}
	end := time.Now()
	r.end = end
	r.latency = ms(end.Sub(t0))
	switch {
	case err != nil:
		r.err = err
	case resp.State != "done":
		r.err = fmt.Errorf("job %s ended %s: %s", resp.ID, resp.State, resp.Error)
	default:
		r.agg = resp.Aggregate
	}
	if tr != nil {
		root := tr.record(0, opID, "job", t0, end, map[string]float64{"polls": float64(len(r.statuses))})
		for k, sp := range spans {
			name := "server.status"
			if k == 0 {
				name = "server.submit"
			}
			tr.record(root, opID, name, sp[0], sp[1], nil)
		}
	}
	return r
}

func terminal(state string) bool {
	return state == "done" || state == "failed" || state == "cancelled"
}

// roundTrip sends one request and decodes the status reply; any other
// status code than want (a 429 included) is an error.
func (s *serveState) roundTrip(method, url string, body []byte, want int) (statusResp, error) {
	var out statusResp
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != want {
		return out, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("%s %s: decoding: %w", method, url, err)
	}
	return out, nil
}

// closedLoop runs jobs 0, 1, … on serveClients clients, each client
// submitting its next job when its last one is terminal, while
// more(i) holds for the next job i; body(i) is job i's spec. Every
// other job is traced by tr (nil: none). It returns the jobs in order.
func (s *serveState) closedLoop(more func(i int) bool, body func(i int) []byte, tr *tracer, op string) []jobRun {
	var (
		mu   sync.Mutex
		runs []jobRun
		wg   sync.WaitGroup
	)
	// claim hands out job indices in order, so the jobs run are
	// exactly 0..len(runs)-1.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !more(len(runs)) {
			return 0, false
		}
		runs = append(runs, jobRun{})
		return len(runs) - 1, true
	}
	for range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				jt := tr
				if i%2 == 1 {
					jt = nil
				}
				r := s.do(jt, fmt.Sprintf("%s/%d", op, i), body(i))
				mu.Lock()
				runs[i] = r
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return runs
}

func runServe(env *runEnv) (*outcome, error) {
	out := newOutcome()
	var st *serveState
	var genMS []float64
	for range env.setupRepeats() {
		t0 := time.Now()
		s, g, err := setupServe(env)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
		if st != nil {
			st.close()
		}
		st, genMS = s, g
		runtime.GC() // as in runBatchWorkload
	}
	defer st.close()
	st0 := st.cache.Stats()

	start, cpu0 := time.Now(), cpuSeconds()
	runs := st.closedLoop(
		func(i int) bool { return env.more(start, i) },
		func(i int) []byte { return st.poolJSON[warmJob(env.seed, i, len(st.pool))] },
		env.tr, "serve")
	out.elapsed, out.cpu = time.Since(start).Seconds(), cpuSeconds()-cpu0
	warmStats := st.cache.Stats()
	slices.Sort(out.ends)

	var tracedLat, plainLat, submits, statuses, sleeps []float64
	var polls float64
	for i, r := range runs {
		out.ops++
		out.ends = append(out.ends, r.end.Sub(start).Seconds())
		polls += float64(len(r.statuses))
		submits = append(submits, r.submit)
		statuses = append(statuses, r.statuses...)
		sleeps = append(sleeps, r.sleeps...)
		env.checkServed(fmt.Sprintf("serve job %d", i), r.agg, r.err, st.refs[warmJob(env.seed, i, len(st.pool))])
		out.latencies = append(out.latencies, r.latency)
		if i%2 == 0 {
			tracedLat = append(tracedLat, r.latency)
		} else {
			plainLat = append(plainLat, r.latency)
		}
	}

	// Cold jobs, after the window; each is checked against an
	// independent in-process build.
	colds := st.closedLoop(
		func(i int) bool { return i < serveColdJobs },
		func(i int) []byte {
			body, _ := json.Marshal(coldSpec(env.seed, i)) // plain data: cannot fail
			return body
		},
		nil, "serve-cold")
	var coldLat []float64
	for _, ref := range st.refs {
		out.digests = append(out.digests, digest(ref))
	}
	for k, r := range colds {
		s := coldSpec(env.seed, k)
		m, err := s.Materialize()
		var ref []byte
		if err == nil {
			ref, err = runSpec(s, m, 1)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: cold reference %d: %w", k, err)
		}
		env.checkServed(fmt.Sprintf("serve cold job %d", k), r.agg, r.err, ref)
		coldLat = append(coldLat, r.latency)
		out.digests = append(out.digests, digest(ref))
	}
	cs := st.cache.Stats()

	cold := summarize(coldLat)
	out.detail["warm_jobs"] = out.ops
	out.detail["cold_jobs"] = len(colds)
	out.detail["cold_job_latency_ms"] = cold
	out.detail["clients"] = serveClients
	out.detail["poll_interval_us"] = servePoll.Microseconds()
	out.detail["poll_sleep_ms"] = summarize(sleeps) // timer granularity can stretch the interval
	out.detail["server_config"] = map[string]int{"jobs": 2, "job_workers": 1}
	out.detail["window_cache_misses"] = warmStats.Misses - st0.Misses
	if !env.traced {
		return out, nil
	}

	hits, misses := cs.Hits-st0.Hits, cs.Misses-st0.Misses
	out.layer["graphcache.hits"] = float64(hits)
	out.layer["graphcache.misses"] = float64(misses)
	out.layer["graphcache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	out.layer["graphcache.evictions"] = float64(cs.Evictions - st0.Evictions)
	out.layer["graphcache.resident_mb"] = float64(cs.Bytes) / 1e6
	out.layer["graph.generate_ms"] = stats.Median(genMS)
	out.layer["graph.footprint_mb"] = float64(cs.Bytes) / float64(max(cs.Entries, 1)) / 1e6
	out.layer["server.submit_ms"] = stats.Median(submits)
	out.layer["server.status_ms"] = stats.Median(statuses)
	out.layer["server.polls_per_job"] = polls / float64(max(out.ops, 1))
	out.layer["server.cold_job_ms_p50"] = cold.P50
	out.layer["trace.overhead_pct"] = overheadPct(tracedLat, plainLat)

	// server.overhead_ms: warm job latency minus an in-process replay
	// of the same warm specs through the calls the server makes.
	replay, err := replayServe(env, st)
	if err != nil {
		return nil, err
	}
	out.layer["server.overhead_ms"] = stats.Median(out.latencies) - replay

	p, err := probeLayers(env, st.built[st.pool[0].WorkloadKey()], st.pool, st.refs[0])
	if err != nil {
		return nil, err
	}
	for k, v := range p {
		out.layer[k] = v
	}
	return out, nil
}

// replayServe returns the median in-process time of a warm job done
// the way the server does it: normalize, validate, hash, resolve the
// graph through the cache (a hit), RunBuilt on one engine worker,
// aggregate, marshal.
func replayServe(env *runEnv, st *serveState) (float64, error) {
	var lat []float64
	for rep := range 3 {
		for i, spec := range st.pool {
			t0 := time.Now()
			s := spec.Normalize()
			if err := s.Validate(); err != nil {
				return 0, err
			}
			if _, err := s.Hash(); err != nil {
				return 0, err
			}
			m, err := st.cache.Get(context.Background(), s.WorkloadKey(), s.Materialize)
			if err != nil {
				return 0, err
			}
			res, err := job.RunBuilt(context.Background(), s, m, job.ExecOptions{Workers: 1})
			var agg *engine.Aggregate
			if err == nil {
				agg = res.Aggregate()
				_, err = json.Marshal(agg) // the server marshals its reply
			}
			lat = append(lat, msSince(t0))
			env.check(fmt.Sprintf("serve replay %d/%d", rep, i), agg, err, st.refs[i])
		}
	}
	return stats.Median(lat), nil
}
