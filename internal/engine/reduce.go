package engine

import (
	"context"
	"math"
	"slices"
	"strconv"
	"strings"

	"fnr/internal/algo"
)

// This file is the engine's one aggregation path: per-worker Reducer
// state absorbs outcomes as trials finish, Merge combines the
// workers' parts, and the merged reducer emits the batch's Aggregate
// — without ever materializing an O(trials) outcome slice. Memory is
// O(distinct observed values), which for round/move counts is tiny
// compared to the trial count of the 10M-trial sweeps this exists
// for (a batch drawing a million distinct move totals would still
// hold two 16 MB tables, not a 320 MB outcome slice).
//
// Determinism: a reducer is a multiset (sorted value → count
// tables), so Merge is order- and partition-insensitive — any worker
// count, lane width, chunk assignment or shard split merges to the
// same state, byte for byte. Median/P95 reproduce stats.Quantile's
// arithmetic on the expanded sample exactly (same interpolation on
// the same sorted values), and Mean is the exact multiset mean
// Σ value·count / n. Values fit float64 exactly (round/move counts
// are bounded by 4n²+1000 « 2⁵³).

// TrialSpan is a half-open range [Lo, Hi) of global trial indices — a
// sharded batch's coverage metadata (see Batch.ShardCount).
type TrialSpan struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Reducer accumulates one worker's stream of trial outcomes. The
// zero value is empty and ready to use.
type Reducer struct {
	trials, met, errors int
	rounds, moves       distCounter
	errs                errLog
	spans               []TrialSpan
}

// NewReducer returns an empty reducer (the sink builder the lane
// path wants).
func NewReducer() *Reducer { return &Reducer{} }

// Add absorbs one trial's outcome: meeting rounds over met trials,
// move totals over non-erroring trials, error detail by global trial
// index (which is what keeps FirstErrors scheduling-independent).
func (r *Reducer) Add(trial int, o Outcome) {
	r.trials++
	if o.Met {
		r.met++
		r.rounds.add(o.Rounds, 1)
	}
	if o.Err {
		r.errors++
		r.errs.note(trial, o.Msg)
		return
	}
	r.moves.add(o.Moves, 1)
}

// reset empties the reducer, keeping its grown tables' capacity — the
// per-chunk flush cadence of the checkpoint path would otherwise
// reallocate every table every chunk.
func (r *Reducer) reset() {
	r.trials, r.met, r.errors = 0, 0, 0
	r.rounds.reset()
	r.moves.reset()
	r.errs.entries = r.errs.entries[:0]
	r.spans = r.spans[:0]
}

// AddSpan records that this reducer covers the global trial range
// [lo, hi). The spans list is kept as an arbitrary (possibly
// overlapping, unsorted) cover and only coalesced on read — the
// lane scheduler calls AddSpan once per claimed chunk (at most 64
// trials; smaller over a batch's tail, see chunkedWorkers), and a
// 10M-trial run making each add re-sort the list would turn
// bookkeeping into the bottleneck. The common case (a worker
// claiming adjacent chunks) still collapses on the spot.
func (r *Reducer) AddSpan(lo, hi int) {
	if lo >= hi {
		return
	}
	if n := len(r.spans); n > 0 && r.spans[n-1].Hi == lo {
		r.spans[n-1].Hi = hi
		return
	}
	r.spans = append(r.spans, TrialSpan{Lo: lo, Hi: hi})
}

// Spans returns the coalesced global trial ranges this reducer
// covers (nil for an empty reducer).
func (r *Reducer) Spans() []TrialSpan {
	return coalesceSpans(slices.Clone(r.spans))
}

// coalesceSpans sorts spans by Lo and fuses adjacent or overlapping
// ranges, so k shards' [i·T/k, (i+1)·T/k) spans merge to [0, T).
func coalesceSpans(spans []TrialSpan) []TrialSpan {
	if len(spans) < 2 {
		return spans
	}
	slices.SortFunc(spans, func(a, b TrialSpan) int { return a.Lo - b.Lo })
	out := spans[:1]
	for _, s := range spans[1:] {
		if last := &out[len(out)-1]; s.Lo <= last.Hi {
			last.Hi = max(last.Hi, s.Hi)
		} else {
			out = append(out, s)
		}
	}
	return out
}

// Merge combines per-worker reducers into one. It is insensitive to
// the order and the partition of the parts: any split of the same
// outcome multiset merges to the same state, and shard-range
// metadata coalesces (adjacent shards fuse into one span).
func Merge(parts ...*Reducer) *Reducer {
	m := NewReducer()
	for _, p := range parts {
		m.mergeFrom(p)
	}
	m.spans = coalesceSpans(m.spans)
	return m
}

// mergeFrom folds another reducer's state into this one in place —
// the journal path's hot merge (called once per chunk under a lock,
// so it appends spans uncoalesced; see AddSpan). Safe on nil.
func (r *Reducer) mergeFrom(p *Reducer) {
	if p == nil {
		return
	}
	r.trials += p.trials
	r.met += p.met
	r.errors += p.errors
	r.rounds.merge(&p.rounds)
	r.moves.merge(&p.moves)
	r.errs.mergeFrom(&p.errs)
	for _, s := range p.spans {
		r.AddSpan(s.Lo, s.Hi)
	}
}

// Aggregate emits the batch summary from the reduced state — the
// only producer of an Aggregate.
func (r *Reducer) Aggregate(b Batch) *Aggregate {
	b = b.normalized()
	agg := &Aggregate{
		Algorithm: b.Algorithm,
		Trials:    r.trials,
		Seed:      b.Seed,
		Scenario:  b.scenarioInfo(),
		Met:       r.met,
		Failures:  r.trials - r.met,
		Errors:    r.errors,
	}
	if r.trials > 0 {
		agg.SuccessRate = float64(r.met) / float64(r.trials)
	}
	agg.Rounds = r.rounds.dist()
	agg.Moves = r.moves.dist()
	agg.FirstErrors = r.errs.list()
	// A complete reducer — spans covering all of [0, Trials) — drops
	// the metadata, so k shards merged back together (or a resumed
	// run that reached the end) emit byte-identical JSON to the
	// unsharded, uninterrupted run. Spans are tracked per chunk, so
	// coalesce before deciding.
	r.spans = coalesceSpans(r.spans)
	if !(len(r.spans) == 1 && r.spans[0] == (TrialSpan{Lo: 0, Hi: b.Trials})) {
		agg.TrialSpans = slices.Clone(r.spans)
	}
	return agg
}

// RunReduced is Run stopping one step earlier: it returns the
// batch's merged reducer instead of the final aggregate. This is the
// composition point for sharded sweeps — run each shard (same Batch,
// different ShardIndex) in its own process, Merge the reducers, and
// Aggregate the merge; the result is byte-identical to the unsharded
// run. A reducer carries its trial coverage in Spans.
//
// Cancelling ctx stops the run at the next chunk boundary and
// returns the reducer state completed so far TOGETHER WITH ctx.Err():
// every trial the reducer absorbed is listed in its Spans, nothing
// half-run is included, and no goroutine outlives the call — the
// partial reducer can be checkpointed and later resumed (see
// RunCheckpointed) or merged with a rerun of the uncovered ranges.
func RunReduced(ctx context.Context, b Batch) (*Reducer, error) {
	b = b.normalized()
	spec, opts, err := b.prepare()
	if err != nil {
		return nil, err
	}
	lo, hi := b.shardSpan()
	m := Merge(runReducedRange(ctx, b, spec, opts, lo, hi, nil)...)
	return m, ctx.Err()
}

// chunkCollector is the per-worker lane sink of the reduced runs:
// outcomes accumulate into r, and endChunk stamps each
// completed chunk's trial-span coverage. In journal mode (out
// non-nil) the collector instead flushes r to the shared journal
// after every chunk and starts empty, so worker-local state stays
// one chunk deep and a crash loses at most the chunks not yet
// absorbed; in plain mode (out nil) r simply grows and the caller
// merges the workers' parts — no locks anywhere near the hot loop.
type chunkCollector struct {
	r   *Reducer
	out func(*Reducer)
}

func (c *chunkCollector) endChunk(from, to int) {
	c.r.AddSpan(from, to)
	if c.out != nil {
		c.out(c.r)
		c.r.reset()
	}
}

// runReducedRange executes global trials [lo, hi) of the batch on
// the lockstep lanes, reducing per worker, and returns the workers'
// reducer parts (empty husks in journal mode — the data went to out).
// Coverage spans are stamped per completed chunk, so a cancelled
// run's parts say exactly which trials they absorbed.
func runReducedRange(ctx context.Context, b Batch, spec algo.Spec, opts algo.BuildOpts, lo, hi int, out func(*Reducer)) []*Reducer {
	cs := runLanes(ctx, b, spec, opts, lo, hi,
		func() *chunkCollector { return &chunkCollector{r: NewReducer(), out: out} },
		func(c *chunkCollector, trial int, o Outcome) { c.r.Add(trial, o) },
		func(c *chunkCollector, from, to int) { c.endChunk(from, to) })
	parts := make([]*Reducer, len(cs))
	for i, c := range cs {
		parts[i] = c.r
	}
	return parts
}

// distCounter is a sorted value → count table: the bounded
// representation of a multiset of int64 observations. The zero value
// is an empty multiset.
type distCounter struct {
	vals   []int64
	counts []int64
	n      int64
}

// reset empties the counter, keeping table capacity.
func (d *distCounter) reset() {
	d.vals, d.counts, d.n = d.vals[:0], d.counts[:0], 0
}

// add records c occurrences of v.
func (d *distCounter) add(v, c int64) {
	i, ok := slices.BinarySearch(d.vals, v)
	if ok {
		d.counts[i] += c
	} else {
		d.vals = slices.Insert(d.vals, i, v)
		d.counts = slices.Insert(d.counts, i, c)
	}
	d.n += c
}

// merge folds another counter's table into this one.
func (d *distCounter) merge(o *distCounter) {
	for i, v := range o.vals {
		d.add(v, o.counts[i])
	}
}

// dist summarizes the multiset: Median/P95 bit-identical to
// stats.Quantile on the expanded sample, Mean the exact multiset
// mean (see the file comment).
func (d *distCounter) dist() Dist {
	if d.n == 0 {
		return Dist{}
	}
	var sum float64
	for i, v := range d.vals {
		sum += float64(v) * float64(d.counts[i])
	}
	return Dist{
		Mean:   sum / float64(d.n),
		Median: d.quantile(0.5),
		P95:    d.quantile(0.95),
		Min:    float64(d.vals[0]),
		Max:    float64(d.vals[len(d.vals)-1]),
	}
}

// quantile reproduces stats.Quantile's linear interpolation on the
// sorted expansion of the multiset, via rank lookups instead of an
// expanded slice: float64(int64) conversion is monotone and exact
// here, so sorted int64 order IS the sorted float64 order and the
// interpolation arithmetic matches bit for bit.
func (d *distCounter) quantile(q float64) float64 {
	if d.n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		return float64(d.vals[0])
	}
	if q >= 1 {
		return float64(d.vals[len(d.vals)-1])
	}
	pos := q * float64(d.n-1)
	lo := int64(math.Floor(pos))
	hi := int64(math.Ceil(pos))
	vlo := float64(d.rank(lo))
	if lo == hi {
		return vlo
	}
	vhi := float64(d.rank(hi))
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// rank returns the value at 0-based rank r of the sorted expansion.
func (d *distCounter) rank(r int64) int64 {
	var cum int64
	for i, c := range d.counts {
		cum += c
		if r < cum {
			return d.vals[i]
		}
	}
	return d.vals[len(d.vals)-1]
}

// maxFirstErrors bounds Aggregate.FirstErrors: enough distinct
// messages to diagnose a failing batch, small enough that error
// bookkeeping stays O(1) per erroring trial.
const maxFirstErrors = 5

// errEntry is one distinct error message with the lowest global
// trial index observed carrying it.
type errEntry struct {
	trial int
	msg   string
}

// errLog keeps the maxFirstErrors distinct error messages with the
// lowest trial indices — deterministically, no matter in which order
// the trials arrive or how they were partitioned across workers,
// lanes or shards. The exactness argument: an entry that belongs in
// the true top-K can only be rejected if K distinct messages with
// strictly lower current indices are resident, and resident indices
// never undercut their messages' true minima — so K messages with
// lower true minima would exist, contradicting membership. The same
// argument makes bounded per-part logs merge exactly: a globally
// top-K message is top-K in the part holding its global minimum.
type errLog struct {
	entries []errEntry // sorted by (trial, msg), ≤ maxFirstErrors long
}

// note records that the trial erred with the given message. Empty
// messages (hand-built Outcomes) carry no diagnostic value and are
// skipped; Aggregate.Errors still counts them.
func (l *errLog) note(trial int, msg string) {
	if msg == "" {
		return
	}
	for i, e := range l.entries {
		if e.msg != msg {
			continue
		}
		if trial >= e.trial {
			return
		}
		l.entries = slices.Delete(l.entries, i, i+1)
		break
	}
	at, _ := slices.BinarySearchFunc(l.entries, errEntry{trial, msg}, cmpErrEntry)
	if at >= maxFirstErrors {
		return
	}
	l.entries = slices.Insert(l.entries, at, errEntry{trial, msg})
	if len(l.entries) > maxFirstErrors {
		l.entries = l.entries[:maxFirstErrors]
	}
}

func cmpErrEntry(a, b errEntry) int {
	if a.trial != b.trial {
		return a.trial - b.trial
	}
	return strings.Compare(a.msg, b.msg)
}

// mergeFrom folds another log's entries into this one.
func (l *errLog) mergeFrom(o *errLog) {
	for _, e := range o.entries {
		l.note(e.trial, e.msg)
	}
}

// list renders the log for Aggregate.FirstErrors (nil when empty).
func (l *errLog) list() []string {
	if len(l.entries) == 0 {
		return nil
	}
	out := make([]string, len(l.entries))
	for i, e := range l.entries {
		out[i] = "trial " + strconv.Itoa(e.trial) + ": " + e.msg
	}
	return out
}
