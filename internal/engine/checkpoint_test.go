package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"fnr/internal/graph"
)

// checkpointBatch is the standard batch of the checkpoint tests:
// small enough to run in milliseconds, faulted so the error log and
// error counters are non-trivially populated.
func checkpointBatch(t *testing.T) Batch {
	t.Helper()
	g, sa, sb := testGraph(t)
	return Batch{
		Graph: g, StartA: sa, StartB: sb,
		Algorithm: "sweep", Delta: g.MinDegree(),
		Trials: 240, Seed: 17, MaxRounds: 1 << 22,
		Faults: &FaultPlan{Seed: 9, PPanic: 0.02, PBuildErr: 0.02},
	}
}

// A reducer must survive the wire unchanged: counters, distribution
// tables, error log and coverage spans all round-trip, and the
// aggregate of the reloaded reducer is byte-identical.
func TestCheckpointRoundtrip(t *testing.T) {
	b := checkpointBatch(t)
	r, err := RunReduced(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), b)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, _ := json.Marshal(r.Aggregate(b))
	gotAgg, _ := json.Marshal(got.Aggregate(b))
	if string(gotAgg) != string(wantAgg) {
		t.Errorf("aggregate changed across the wire:\ngot:  %s\nwant: %s", gotAgg, wantAgg)
	}
}

// A partial reducer — sparse coverage, scattered spans, a populated
// error log — round-trips too; this is the state a crash leaves.
func TestCheckpointRoundtripPartialCoverage(t *testing.T) {
	b := checkpointBatch(t)
	out, err := RunOutcomes(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReducer()
	for _, span := range []TrialSpan{{Lo: 0, Hi: 40}, {Lo: 64, Hi: 100}, {Lo: 180, Hi: 240}} {
		for i := span.Lo; i < span.Hi; i++ {
			r.Add(i, out[i])
		}
		r.AddSpan(span.Lo, span.Hi)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), b)
	if err != nil {
		t.Fatal(err)
	}
	wantSpans, gotSpans := r.Spans(), got.Spans()
	if len(gotSpans) != len(wantSpans) {
		t.Fatalf("spans %v, want %v", gotSpans, wantSpans)
	}
	for i := range wantSpans {
		if gotSpans[i] != wantSpans[i] {
			t.Fatalf("spans %v, want %v", gotSpans, wantSpans)
		}
	}
	wantAgg, _ := json.Marshal(r.Aggregate(b))
	gotAgg, _ := json.Marshal(got.Aggregate(b))
	if string(gotAgg) != string(wantAgg) {
		t.Errorf("partial aggregate changed across the wire:\ngot:  %s\nwant: %s", gotAgg, wantAgg)
	}
}

// Truncating the journal anywhere, or flipping any byte, must fail
// the read — never load silently wrong state.
func TestCheckpointDetectsTruncationAndCorruption(t *testing.T) {
	b := checkpointBatch(t)
	r, err := RunReduced(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	for _, cut := range []int{0, 3, 8, 9, len(wire) / 2, len(wire) - 5, len(wire) - 1} {
		if _, err := ReadCheckpoint(bytes.NewReader(wire[:cut]), b); err == nil {
			t.Errorf("truncation at %d/%d bytes read cleanly", cut, len(wire))
		}
	}
	for _, flip := range []int{0, 8, len(wire) / 2, len(wire) - 2} {
		mut := bytes.Clone(wire)
		mut[flip] ^= 0x40
		if _, err := ReadCheckpoint(bytes.NewReader(mut), b); err == nil {
			t.Errorf("bit flip at byte %d read cleanly", flip)
		}
	}
}

// A journal written for one batch must refuse to resume a different
// one, naming the mismatched identity field.
func TestCheckpointIdentityMismatch(t *testing.T) {
	b := checkpointBatch(t)
	r, err := RunReduced(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		field string
		mut   func(*Batch)
	}{
		{"algorithm", func(b *Batch) { b.Algorithm = "whiteboard" }},
		{"seed", func(b *Batch) { b.Seed++ }},
		{"trials", func(b *Batch) { b.Trials++ }},
		{"delta", func(b *Batch) { b.Delta-- }},
		{"max_rounds", func(b *Batch) { b.MaxRounds++ }},
		{"start_a", func(b *Batch) { b.StartA++ }},
		{"start_b", func(b *Batch) { b.StartB++ }},
		{"fault_plan", func(b *Batch) { f := *b.Faults; f.Seed++; b.Faults = &f }},
		{"fault_plan", func(b *Batch) { b.Faults = nil }},
	}
	for _, m := range mutations {
		mb := b
		m.mut(&mb)
		_, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), mb)
		if err == nil || !strings.Contains(err.Error(), m.field) {
			t.Errorf("mutated %s: err %v, want mismatch naming the field", m.field, err)
		}
	}
	if _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), b); err != nil {
		t.Fatalf("unmutated batch failed to read back: %v", err)
	}
}

func TestUncovered(t *testing.T) {
	span := func(lo, hi int) TrialSpan { return TrialSpan{Lo: lo, Hi: hi} }
	cases := []struct {
		lo, hi  int
		covered []TrialSpan
		want    []TrialSpan
	}{
		{0, 10, nil, []TrialSpan{span(0, 10)}},
		{0, 10, []TrialSpan{span(0, 10)}, nil},
		{0, 10, []TrialSpan{span(0, 4)}, []TrialSpan{span(4, 10)}},
		{0, 10, []TrialSpan{span(6, 10)}, []TrialSpan{span(0, 6)}},
		{0, 10, []TrialSpan{span(2, 4), span(6, 8)}, []TrialSpan{span(0, 2), span(4, 6), span(8, 10)}},
		// Coverage outside [lo, hi) — another shard's spans — is inert.
		{10, 20, []TrialSpan{span(0, 5), span(12, 14), span(25, 30)}, []TrialSpan{span(10, 12), span(14, 20)}},
		{10, 20, []TrialSpan{span(0, 30)}, nil},
		{5, 5, nil, nil},
	}
	for i, c := range cases {
		got := uncovered(c.lo, c.hi, c.covered)
		if len(got) != len(c.want) {
			t.Errorf("case %d: uncovered(%d, %d, %v) = %v, want %v", i, c.lo, c.hi, c.covered, got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d: uncovered(%d, %d, %v) = %v, want %v", i, c.lo, c.hi, c.covered, got, c.want)
				break
			}
		}
	}
}

// Resuming from a partial checkpoint runs only the uncovered ranges
// and produces an aggregate byte-identical to the uninterrupted run
// — the acceptance criterion of the checkpoint layer.
func TestRunCheckpointedResumeMatchesUninterrupted(t *testing.T) {
	b := checkpointBatch(t)
	want, err := RunReduced(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, _ := json.Marshal(want.Aggregate(b))

	// Build the crash survivor: exact prior state for a scattered
	// subset of trials, derived from the reference outcomes.
	out, err := RunOutcomes(t.Context(), b)
	if err != nil {
		t.Fatal(err)
	}
	prior := NewReducer()
	for _, span := range []TrialSpan{{Lo: 0, Hi: 50}, {Lo: 70, Hi: 170}, {Lo: 230, Hi: 240}} {
		for i := span.Lo; i < span.Hi; i++ {
			prior.Add(i, out[i])
		}
		prior.AddSpan(span.Lo, span.Hi)
	}
	path := filepath.Join(t.TempDir(), "resume.ckpt")
	if err := WriteCheckpointFile(path, b, prior); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadCheckpointFile(path, b)
	if err != nil {
		t.Fatal(err)
	}

	journal := filepath.Join(t.TempDir(), "journal.ckpt")
	r, err := RunCheckpointed(t.Context(), b, Checkpoint{Path: journal, Every: 32}, loaded)
	if err != nil {
		t.Fatal(err)
	}
	gotAgg, _ := json.Marshal(r.Aggregate(b))
	if string(gotAgg) != string(wantAgg) {
		t.Errorf("resumed aggregate differs from uninterrupted run:\ngot:  %s\nwant: %s", gotAgg, wantAgg)
	}
	// The final flush leaves a journal that resumes to a no-op: its
	// coverage is complete and its state aggregates identically.
	final, err := ReadCheckpointFile(journal, b)
	if err != nil {
		t.Fatal(err)
	}
	if spans := final.Spans(); len(spans) != 1 || spans[0] != (TrialSpan{Lo: 0, Hi: b.Trials}) {
		t.Errorf("final journal coverage %v, want [{0 %d}]", spans, b.Trials)
	}
	finalAgg, _ := json.Marshal(final.Aggregate(b))
	if string(finalAgg) != string(wantAgg) {
		t.Errorf("final journal aggregate differs:\ngot:  %s\nwant: %s", finalAgg, wantAgg)
	}
	if rerun, err := RunCheckpointed(t.Context(), b, Checkpoint{Path: journal}, final); err != nil {
		t.Fatal(err)
	} else if blob, _ := json.Marshal(rerun.Aggregate(b)); string(blob) != string(wantAgg) {
		t.Errorf("no-op resume changed the aggregate:\ngot:  %s\nwant: %s", blob, wantAgg)
	}
}

// FuzzCheckpoint feeds mutated journals to ReadCheckpoint for one
// fixed batch. The corpus starts from valid WriteCheckpoint journals.
// Each input is read twice: as given, which exercises the framing and
// CRC checks, and resealed — every frame CRC and the trailer CRC
// recomputed — so payload mutations reach the decoder behind them.
// The reader must never panic or hang, must never accept a stream
// whose frame or trailer CRC fails, and every reducer it accepts must
// re-encode and decode to the same Aggregate.
func FuzzCheckpoint(f *testing.F) {
	g, err := graph.Complete(12)
	if err != nil {
		f.Fatal(err)
	}
	b := Batch{
		Graph: g, StartA: 0, StartB: 1,
		Algorithm: "sweep", Trials: 40, Seed: 17,
		Faults: &FaultPlan{Seed: 9, PPanic: 0.1},
	}
	full := NewReducer()
	for i := range 30 {
		o := Outcome{Met: i%3 != 0, Rounds: int64(i % 7), Moves: int64(2 * i)}
		if i%11 == 4 {
			o = Outcome{Err: true, Msg: fmt.Sprintf("fault %d", i%2)}
		}
		full.Add(i, o)
	}
	full.AddSpan(0, 20)
	full.AddSpan(30, 40)
	for _, r := range []*Reducer{full, NewReducer()} {
		var buf bytes.Buffer
		if err := WriteCheckpoint(&buf, b, r); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A sealed journal whose rounds table claims 2⁶² entries: the
	// empty reducer's payload ends in seven zero lengths (trials, met,
	// errors, rounds, moves, error log, spans); swap in the huge one.
	var empty bytes.Buffer
	if err := WriteCheckpoint(&empty, b, NewReducer()); err != nil {
		f.Fatal(err)
	}
	wire := empty.Bytes()
	plen, k := binary.Uvarint(wire[len(ckptMagic):])
	payload := wire[len(ckptMagic)+k:][:plen]
	huge := binary.AppendUvarint(bytes.Clone(payload[:len(payload)-4]), 1<<62)
	var sealed bytes.Buffer
	cw := &ckptWriter{w: &sealed, crc: crc32.New(ckptCRC)}
	cw.wire([]byte(ckptMagic))
	cw.buf = append(append(cw.buf, huge...), payload[len(payload)-3:]...)
	if err := cw.end(); err != nil {
		f.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(sealed.Bytes()), b); err == nil ||
		!strings.Contains(err.Error(), "table length exceeds payload") {
		f.Fatalf("oversized table length: err = %v", err)
	}
	f.Add(sealed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		intact, resealed := resealJournal(data)
		checkJournal(t, b, data, intact)
		if resealed != nil {
			checkJournal(t, b, resealed, true)
		}
	})
}

// checkJournal reads data as a journal of b and checks the fuzz
// invariants: a stream with a failing CRC (intact false) is rejected,
// and an accepted reducer survives a second write/read unchanged.
func checkJournal(t *testing.T, b Batch, data []byte, intact bool) {
	t.Helper()
	r, err := ReadCheckpoint(bytes.NewReader(data), b)
	if err != nil {
		return
	}
	if !intact {
		t.Fatalf("accepted a journal whose frame or trailer CRC fails: %x", data)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, b, r); err != nil {
		t.Fatalf("re-encoding an accepted reducer: %v", err)
	}
	again, err := ReadCheckpoint(&buf, b)
	if err != nil {
		t.Fatalf("re-encoded journal rejected: %v", err)
	}
	if want, got := r.Aggregate(b), again.Aggregate(b); !got.Equal(want) {
		t.Fatalf("aggregate changed across a re-encode:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// resealJournal walks data's wire framing (see checkpoint.go)
// independently of the reader. intact reports whether every frame CRC
// and the trailer CRC check out. resealed is a copy with every CRC
// recomputed, or nil when the framing itself does not parse.
func resealJournal(data []byte) (intact bool, resealed []byte) {
	if len(data) < len(ckptMagic) {
		return false, nil
	}
	out := bytes.Clone(data)
	intact = true
	pos := len(ckptMagic)
	for {
		plen, k := binary.Uvarint(data[pos:])
		if k <= 0 {
			return false, nil
		}
		pos += k
		if plen == 0 {
			break
		}
		if len(data)-pos < 4 || plen > uint64(len(data)-pos-4) {
			return false, nil
		}
		end := pos + int(plen)
		sum := crc32.Checksum(data[pos:end], ckptCRC)
		intact = intact && binary.LittleEndian.Uint32(data[end:]) == sum
		binary.LittleEndian.PutUint32(out[end:], sum)
		pos = end + 4
	}
	if len(data)-pos < 4 {
		return false, nil
	}
	intact = intact && binary.LittleEndian.Uint32(data[pos:]) == crc32.Checksum(data[:pos], ckptCRC)
	binary.LittleEndian.PutUint32(out[pos:], crc32.Checksum(out[:pos], ckptCRC))
	return intact, out
}
