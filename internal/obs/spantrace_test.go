package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// driveRun plays one synthetic engine run through a SpanTracer the way
// the congest runner does: setup phase, rounds with stats, rounds +
// teardown phases, RunEnd.
func driveRun(st *SpanTracer, clk *testClock, rounds int) {
	st.RunStart(RunInfo{Engine: "sequential", Nodes: 16, Edges: 40, Bandwidth: 64})
	clk.Advance(time.Millisecond)
	st.Phase("setup", time.Millisecond)
	for r := 1; r <= rounds; r++ {
		st.RoundStart(r)
		clk.Advance(100 * time.Microsecond)
		st.RoundEnd(RoundStats{Round: r, Bits: 64, Messages: 2, Dropped: 1})
	}
	st.Phase("rounds", time.Duration(rounds)*100*time.Microsecond)
	clk.Advance(time.Millisecond)
	st.Phase("teardown", time.Millisecond)
	st.RunEnd(RunSummary{Outcome: "completed", Rounds: rounds, TotalBits: int64(rounds) * 64})
}

func TestSpanTracerBuildsEngineSpans(t *testing.T) {
	clk := newTestClock()
	tl := NewTimeline("st")
	tl.SetClock(clk.Now)
	job := tl.StartSpan("job")

	st := NewSpanTracer(job)
	driveRun(st, clk, 70) // crosses two full 32-round windows + a partial one
	job.Finish()

	v := tl.View()
	run := v.SpanByName("engine_run")
	if run == nil {
		t.Fatal("engine_run span missing")
	}
	if run.ParentID != v.Spans[0].SpanID {
		t.Fatalf("engine_run parent = %d, want job", run.ParentID)
	}
	for _, key := range []string{"engine", "nodes", "edges", "bandwidth_bits", "outcome", "rounds_total", "total_bits"} {
		if _, ok := run.Annotation(key); !ok {
			t.Errorf("engine_run missing annotation %q", key)
		}
	}
	if got, _ := run.Annotation("rounds_total"); got != "70" {
		t.Fatalf("rounds_total = %q", got)
	}

	for _, name := range []string{"setup", "rounds", "teardown"} {
		s := v.SpanByName(name)
		if s == nil {
			t.Fatalf("%s span missing", name)
		}
		if s.ParentID != run.SpanID {
			t.Fatalf("%s parent = %d, want engine_run %d", name, s.ParentID, run.SpanID)
		}
	}

	// The live rounds span covers the whole round loop.
	rounds := v.SpanByName("rounds")
	if got := rounds.DurationNs(); got != (7 * time.Millisecond).Nanoseconds() {
		t.Fatalf("rounds duration = %d, want 7ms", got)
	}
	// 70 rounds at window 32 → windows [1,32], [33,64], [65,70].
	wantWindows := []string{"rounds_1_32", "rounds_33_64", "rounds_65_70"}
	if len(rounds.Annotations) != len(wantWindows) {
		t.Fatalf("got %d window annotations, want %d: %+v", len(rounds.Annotations), len(wantWindows), rounds.Annotations)
	}
	for i, w := range wantWindows {
		a := rounds.Annotations[i]
		if a.Key != w {
			t.Fatalf("window %d key = %q, want %q", i, a.Key, w)
		}
		if !strings.Contains(a.Value, "bits=") || !strings.Contains(a.Value, "dropped=") {
			t.Fatalf("window %q value = %q", w, a.Value)
		}
	}
	if got := rounds.Annotations[0].Value; got != "bits=2048 msgs=64 dropped=32" {
		t.Fatalf("first window value = %q", got)
	}
	if got := rounds.Annotations[2].Value; got != "bits=384 msgs=12 dropped=6" {
		t.Fatalf("partial window value = %q", got)
	}
}

// Detectors can execute several simulator runs per job; each gets its
// own engine_run bracket.
func TestSpanTracerMultipleRuns(t *testing.T) {
	clk := newTestClock()
	tl := NewTimeline("st2")
	tl.SetClock(clk.Now)
	job := tl.StartSpan("job")
	st := NewSpanTracer(job)
	driveRun(st, clk, 3)
	driveRun(st, clk, 5)
	job.Finish()

	v := tl.View()
	var runs int
	for _, s := range v.Spans {
		if s.Name == "engine_run" {
			runs++
		}
	}
	if runs != 2 {
		t.Fatalf("got %d engine_run spans, want 2", runs)
	}
}

// Aborted runs skip Phase("rounds"); RunEnd must still close the live
// rounds span and record the error.
func TestSpanTracerAbortedRun(t *testing.T) {
	clk := newTestClock()
	tl := NewTimeline("st3")
	tl.SetClock(clk.Now)
	job := tl.StartSpan("job")
	st := NewSpanTracer(job)

	st.RunStart(RunInfo{Engine: "parallel", Nodes: 4, Edges: 3})
	st.Phase("setup", 0)
	st.RoundStart(1)
	clk.Advance(time.Millisecond)
	st.RoundEnd(RoundStats{Round: 1, Bits: 8, Messages: 1})
	st.RunEnd(RunSummary{Outcome: "aborted", Error: "deadline exceeded", Rounds: 1})
	job.Finish()

	v := tl.View()
	rounds := v.SpanByName("rounds")
	if rounds == nil {
		t.Fatal("rounds span missing")
	}
	if rounds.EndNs <= rounds.StartNs {
		t.Fatalf("rounds span not closed: %+v", rounds)
	}
	if len(rounds.Annotations) != 1 || rounds.Annotations[0].Key != "rounds_1_1" {
		t.Fatalf("partial window not flushed: %+v", rounds.Annotations)
	}
	run := v.SpanByName("engine_run")
	if got, _ := run.Annotation("error"); got != "deadline exceeded" {
		t.Fatalf("error annotation = %q", got)
	}
}

// A run whose round cap exceeds 128 windows of 32 rounds widens its
// window from MaxRounds: the rounds span then covers every round without
// a gap and drops no annotation.
func TestSpanTracerLongRunCoversEveryRound(t *testing.T) {
	const maxRounds = 100_000
	tl := NewTimeline("st4")
	job := tl.StartSpan("job")
	st := NewSpanTracer(job)
	st.RunStart(RunInfo{Engine: "sequential", Nodes: 4, Edges: 3, MaxRounds: maxRounds})
	for r := 1; r <= maxRounds; r++ {
		st.RoundStart(r)
		st.RoundEnd(RoundStats{Round: r, Bits: 2, Messages: 1})
	}
	st.Phase("rounds", 0)
	st.RunEnd(RunSummary{Outcome: "completed", Rounds: maxRounds, TotalBits: 2 * maxRounds})
	job.Finish()

	next := 1
	for _, a := range tl.View().SpanByName("rounds").Annotations {
		var lo, hi int
		var bits, msgs int64
		if _, err := fmt.Sscanf(a.Key, "rounds_%d_%d", &lo, &hi); err != nil {
			t.Fatalf("annotation %q=%q is not a round window", a.Key, a.Value)
		}
		if lo != next || hi < lo {
			t.Fatalf("window %q follows round %d", a.Key, next-1)
		}
		if _, err := fmt.Sscanf(a.Value, "bits=%d msgs=%d", &bits, &msgs); err != nil || msgs != int64(hi-lo+1) || bits != 2*msgs {
			t.Fatalf("window %q value = %q", a.Key, a.Value)
		}
		next = hi + 1
	}
	if next != maxRounds+1 {
		t.Fatalf("windows end at round %d, want %d", next-1, maxRounds)
	}
}

// The engine_run span keeps the run summary that an untraced job's answer
// no longer carries as a report: seed and round cap from RunStart, the
// totals and rejects from RunEnd, and the fault counts only when the
// adversary acted.
func TestSpanTracerRunSummaryAnnotations(t *testing.T) {
	run := func(sum RunSummary) *SpanView {
		tl := NewTimeline("sum")
		job := tl.StartSpan("job")
		st := NewSpanTracer(job)
		st.RunStart(RunInfo{Engine: "sequential", Nodes: 4, Edges: 3, MaxRounds: 9, Seed: -7})
		st.RoundStart(1)
		st.RoundEnd(RoundStats{Round: 1, Bits: 8, Messages: 1})
		st.Phase("rounds", 0)
		st.RunEnd(sum)
		job.Finish()
		v := tl.View()
		return v.SpanByName("engine_run")
	}
	want := map[string]string{
		"seed": "-7", "max_rounds": "9", "rounds_total": "1", "total_bits": "8",
		"total_messages": "1", "max_edge_bits_round": "8", "rejects": "2",
	}
	clean := run(RunSummary{Outcome: "completed", Rounds: 1, TotalBits: 8, TotalMessages: 1,
		MaxEdgeBitsRound: 8, Rejects: 2, Accepts: 2})
	for k, v := range want {
		if got, ok := clean.Annotation(k); !ok || got != v {
			t.Errorf("clean run: %s = %q (present %v), want %q", k, got, ok, v)
		}
	}
	for _, k := range []string{"dropped", "corrupted", "crashed"} {
		if got, ok := clean.Annotation(k); ok {
			t.Errorf("clean run carries %s = %q; fault counts appear only when non-zero", k, got)
		}
	}
	faulty := run(RunSummary{Outcome: "completed", Rounds: 1, TotalBits: 8, TotalMessages: 1,
		MaxEdgeBitsRound: 8, Dropped: 3, Corrupted: 4, CrashedNodes: 5})
	for k, v := range map[string]string{"dropped": "3", "corrupted": "4", "crashed": "5"} {
		if got, ok := faulty.Annotation(k); !ok || got != v {
			t.Errorf("faulty run: %s = %q (present %v), want %q", k, got, ok, v)
		}
	}
}
