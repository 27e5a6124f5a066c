package engine

import (
	"encoding/json"
	"slices"
	"testing"
)

// Sharding contract: shard i of k runs global trials
// [Trials·i/k, Trials·(i+1)/k) with global-index seeds, so the k
// shards together execute exactly the unsharded batch — concatenated
// outcomes identical, merged reducers aggregating to byte-identical
// JSON (complete merges drop the span metadata).
func TestShardedOutcomesConcatenateToUnsharded(t *testing.T) {
	g, sa, sb := testGraph(t)
	base := Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "whiteboard", Delta: g.MinDegree(),
		Trials: 23, Seed: 77, MaxRounds: 1 << 22,
	}
	want, err := RunOutcomes(t.Context(), base)
	if err != nil {
		t.Fatal(err)
	}
	// 5 does not divide 23, so shard sizes differ — the rounding in
	// the range split must still partition [0, 23) exactly.
	for _, k := range []int{2, 5, 23} {
		var got []Outcome
		for i := 0; i < k; i++ {
			b := base
			b.ShardIndex, b.ShardCount = i, k
			out, err := RunOutcomes(t.Context(), b)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, k, err)
			}
			lo, hi := b.shardSpan()
			if len(out) != hi-lo {
				t.Fatalf("shard %d/%d: %d outcomes for range [%d,%d)", i, k, len(out), lo, hi)
			}
			agg, err := Run(t.Context(), b)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, k, err)
			}
			if !slices.Equal(agg.TrialSpans, []TrialSpan{{Lo: lo, Hi: hi}}) {
				t.Fatalf("shard %d/%d: aggregate spans %v", i, k, agg.TrialSpans)
			}
			if folded := aggregateOf(b, out); !folded.Equal(agg) {
				t.Fatalf("shard %d/%d: folded outcomes %+v differ from Run %+v", i, k, folded, agg)
			}
			got = append(got, out...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d: concatenated shard outcomes differ from the unsharded batch", k)
		}
	}
}

func TestShardedReducersMergeToUnshardedAggregate(t *testing.T) {
	g, sa, sb := testGraph(t)
	base := Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "sweep", Delta: g.MinDegree(),
		Trials: 30, Seed: 5, MaxRounds: 1 << 22,
	}
	want, err := Run(t.Context(), base)
	if err != nil {
		t.Fatal(err)
	}
	if want.TrialSpans != nil {
		t.Fatalf("unsharded aggregate carries spans %v", want.TrialSpans)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	parts := make([]*Reducer, k)
	for i := range parts {
		b := base
		b.ShardIndex, b.ShardCount = i, k
		if parts[i], err = RunReduced(t.Context(), b); err != nil {
			t.Fatalf("shard %d/%d: %v", i, k, err)
		}
	}
	// A partial merge must report its (coalesced) coverage: shards 0
	// and 1 are adjacent and fuse; shard 3 stays a separate span.
	partial := Merge(parts[0], parts[3], parts[1])
	wantSpans := []TrialSpan{{Lo: 0, Hi: 15}, {Lo: 22, Hi: 30}}
	if !slices.Equal(partial.Spans(), wantSpans) {
		t.Fatalf("partial merge spans %v, want %v", partial.Spans(), wantSpans)
	}
	if agg := partial.Aggregate(base); !slices.Equal(agg.TrialSpans, wantSpans) {
		t.Fatalf("partial aggregate spans %v, want %v", agg.TrialSpans, wantSpans)
	}
	// The complete merge is byte-identical to the unsharded run —
	// spans dropped, multiset mean partition-independent.
	got := Merge(parts...).Aggregate(base)
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("merged shards differ from unsharded run:\n%s\n%s", gotJSON, wantJSON)
	}
	if !got.Equal(want) {
		t.Fatal("Aggregate.Equal disagrees with the JSON comparison")
	}
}

func TestShardValidation(t *testing.T) {
	g, sa, sb := testGraph(t)
	base := Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "sweep", Trials: 10, Seed: 1,
	}
	for _, bad := range []struct{ index, count int }{
		{0, -1}, {-1, 2}, {2, 2}, {1, 0}, {1, 1},
	} {
		b := base
		b.ShardIndex, b.ShardCount = bad.index, bad.count
		if _, err := RunOutcomes(t.Context(), b); err == nil {
			t.Errorf("shard %d/%d accepted", bad.index, bad.count)
		}
	}
	// Count 1 with index 0 is the explicit unsharded spelling.
	b := base
	b.ShardCount = 1
	if _, err := RunOutcomes(t.Context(), b); err != nil {
		t.Errorf("shard 0/1 rejected: %v", err)
	}
}
