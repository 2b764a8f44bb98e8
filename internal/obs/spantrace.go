package obs

import (
	"strconv"
	"time"
)

// SpanTracer bridges the engine's Tracer event stream onto a job
// timeline: each RunStart/RunEnd bracket becomes an "engine_run" child
// span under the job's parent span, the engine's setup/rounds/teardown
// Phase timings become grandchildren, and round-window bandwidth
// aggregates (bits/messages/dropped per window of rounds, fed from
// RoundStats) land as annotations on the live "rounds" span — the
// per-job view of the paper's round/bandwidth cost accounting.
//
// Like all Tracer implementations it is single-goroutine; the Timeline
// underneath is what makes the result safely readable from the debug
// handlers.
type SpanTracer struct {
	parent *Span
	window int // rounds per bandwidth annotation, set at RunStart

	run    *Span // current engine_run span
	rounds *Span // live child covering the round loop

	// Window accumulators, flushed every `window` rounds and at RunEnd.
	winStart, winEnd          int
	winBits, winMsgs, winDrop int64
}

// spanRoundWindow is the fewest rounds one bandwidth annotation covers.
// RunStart widens the window to ⌈MaxRounds/maxSpanAnnotations⌉ when the
// run's round cap needs it, so the windows fit the span's 128
// annotations and describe every round of the run.
const spanRoundWindow = 32

// NewSpanTracer returns a tracer attaching engine spans under parent.
// A nil parent yields a fully functional no-op (nil-span methods).
func NewSpanTracer(parent *Span) *SpanTracer {
	return &SpanTracer{parent: parent}
}

// disabled reports whether the tracer has nowhere to put spans; the
// guards keep the nil-parent path free of string building (and thus
// zero-alloc, pinned by TestNilParentSpanTracerZeroAlloc).
func (t *SpanTracer) disabled() bool { return t.parent == nil }

// RunStart opens an engine_run span annotated with the topology, the
// seed and the round cap.
func (t *SpanTracer) RunStart(info RunInfo) {
	if t.disabled() {
		return
	}
	t.run = t.parent.StartChild("engine_run")
	t.rounds = nil
	t.window = max(spanRoundWindow, (info.MaxRounds+maxSpanAnnotations-1)/maxSpanAnnotations)
	t.winStart, t.winEnd, t.winBits, t.winMsgs, t.winDrop = 0, 0, 0, 0, 0
	t.run.Annotate("engine", info.Engine)
	t.run.Annotate("nodes", strconv.Itoa(info.Nodes))
	t.run.Annotate("edges", strconv.Itoa(info.Edges))
	if info.Bandwidth > 0 {
		t.run.Annotate("bandwidth_bits", strconv.Itoa(info.Bandwidth))
	}
	t.run.Annotate("seed", strconv.FormatInt(info.Seed, 10))
	t.run.Annotate("max_rounds", strconv.Itoa(info.MaxRounds))
}

// RoundStart opens the live rounds span on the first round of a run.
func (t *SpanTracer) RoundStart(round int) {
	if t.disabled() {
		return
	}
	if t.rounds == nil {
		t.rounds = t.run.StartChild("rounds")
		t.winStart = round
	}
}

func (t *SpanTracer) Message(MessageEvent) {}
func (t *SpanTracer) Fault(FaultEvent)     {}
func (t *SpanTracer) Node(NodeEvent)       {}

// IgnoresMessages implements MessageIgnorer: spans carry per-window and
// per-run totals, never single messages.
func (t *SpanTracer) IgnoresMessages() bool { return true }

// RoundEnd folds the round into the current bandwidth window, flushing
// an annotation each time the window fills.
func (t *SpanTracer) RoundEnd(rs RoundStats) {
	if t.disabled() {
		return
	}
	t.winEnd = rs.Round
	t.winBits += rs.Bits
	t.winMsgs += rs.Messages
	t.winDrop += rs.Dropped
	if rs.Round-t.winStart+1 >= t.window {
		t.flushWindow()
		t.winStart = rs.Round + 1
	}
}

func (t *SpanTracer) flushWindow() {
	if t.winEnd < t.winStart {
		return // empty window
	}
	v := "bits=" + strconv.FormatInt(t.winBits, 10) +
		" msgs=" + strconv.FormatInt(t.winMsgs, 10)
	if t.winDrop > 0 {
		v += " dropped=" + strconv.FormatInt(t.winDrop, 10)
	}
	t.rounds.Annotate(
		"rounds_"+strconv.Itoa(t.winStart)+"_"+strconv.Itoa(t.winEnd), v)
	t.winBits, t.winMsgs, t.winDrop = 0, 0, 0
}

// Phase records an engine phase. The "rounds" phase closes the live
// rounds span (its duration was measured live); other phases arrive
// after the fact and are recorded as already-finished children.
func (t *SpanTracer) Phase(name string, elapsed time.Duration) {
	if t.disabled() {
		return
	}
	if name == "rounds" {
		if t.rounds != nil {
			t.rounds.Finish()
		}
		return
	}
	t.run.FinishedChild(name, elapsed)
}

// RunEnd flushes the last partial window and closes the engine_run span
// with its outcome and totals; the fault counts appear only when the
// adversary acted.
func (t *SpanTracer) RunEnd(sum RunSummary) {
	if t.disabled() {
		return
	}
	t.flushWindow()
	t.winStart = t.winEnd + 1
	if t.rounds != nil {
		t.rounds.Finish() // defensive: aborted runs may skip Phase("rounds")
	}
	t.run.Annotate("outcome", sum.Outcome)
	t.run.Annotate("rounds_total", strconv.Itoa(sum.Rounds))
	t.run.Annotate("total_bits", strconv.FormatInt(sum.TotalBits, 10))
	t.run.Annotate("total_messages", strconv.FormatInt(sum.TotalMessages, 10))
	t.run.Annotate("max_edge_bits_round", strconv.Itoa(sum.MaxEdgeBitsRound))
	t.run.Annotate("rejects", strconv.Itoa(sum.Rejects))
	if sum.Dropped > 0 {
		t.run.Annotate("dropped", strconv.FormatInt(sum.Dropped, 10))
	}
	if sum.Corrupted > 0 {
		t.run.Annotate("corrupted", strconv.FormatInt(sum.Corrupted, 10))
	}
	if sum.CrashedNodes > 0 {
		t.run.Annotate("crashed", strconv.Itoa(sum.CrashedNodes))
	}
	if sum.Error != "" {
		t.run.Annotate("error", sum.Error)
	}
	t.run.Finish()
	t.run, t.rounds = nil, nil
}
