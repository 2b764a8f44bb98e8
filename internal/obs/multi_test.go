package obs

import (
	"io"
	"testing"
	"time"
)

// panickyTracer panics on every hook — the worst-behaved sink possible.
type panickyTracer struct{ calls int }

func (p *panickyTracer) boom()                       { p.calls++; panic("sink exploded") }
func (p *panickyTracer) RunStart(RunInfo)            { p.boom() }
func (p *panickyTracer) RoundStart(int)              { p.boom() }
func (p *panickyTracer) Message(MessageEvent)        { p.boom() }
func (p *panickyTracer) Fault(FaultEvent)            { p.boom() }
func (p *panickyTracer) Node(NodeEvent)              { p.boom() }
func (p *panickyTracer) RoundEnd(RoundStats)         { p.boom() }
func (p *panickyTracer) Phase(string, time.Duration) { p.boom() }
func (p *panickyTracer) RunEnd(RunSummary)           { p.boom() }

func driveAllEvents(m Tracer) {
	m.RunStart(RunInfo{})
	m.RoundStart(1)
	m.Message(MessageEvent{})
	m.Fault(FaultEvent{})
	m.Node(NodeEvent{})
	m.RoundEnd(RoundStats{})
	m.Phase("setup", time.Second)
	m.RunEnd(RunSummary{})
}

// TestMultiPanickingSink pins that one broken sink neither kills the run
// nor starves the sinks after it in the fan-out order.
func TestMultiPanickingSink(t *testing.T) {
	before := &recordingTracer{}
	bad := &panickyTracer{}
	after := &recordingTracer{}
	m := Multi(before, bad, after)

	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Multi let a sink panic escape: %v", r)
		}
	}()
	driveAllEvents(m)

	if bad.calls != 8 {
		t.Fatalf("panicking sink saw %d calls, want 8", bad.calls)
	}
	for name, r := range map[string]*recordingTracer{"before": before, "after": after} {
		if len(r.events) != 8 {
			t.Fatalf("%s sink saw %v, want all 8 events", name, r.events)
		}
	}
}

// A failing (error-latching) sink must also keep receiving events and
// never disturb its siblings — the JSONLTracer contract under Multi.
func TestMultiFailingSink(t *testing.T) {
	failing := NewJSONLTracerOptions(&errWriter{n: 5}, JSONLOptions{})
	healthy := &recordingTracer{}
	m := Multi(failing, healthy)
	driveAllEvents(m)
	if failing.Close() == nil || failing.Err() == nil {
		t.Fatal("failing sink should have latched its write error")
	}
	if len(healthy.events) != 8 {
		t.Fatalf("healthy sink saw %v, want all 8 events", healthy.events)
	}
}

// nopTracer does nothing with any event.
type nopTracer struct{}

func (nopTracer) RunStart(RunInfo)            {}
func (nopTracer) RoundStart(int)              {}
func (nopTracer) Message(MessageEvent)        {}
func (nopTracer) Fault(FaultEvent)            {}
func (nopTracer) Node(NodeEvent)              {}
func (nopTracer) RoundEnd(RoundStats)         {}
func (nopTracer) Phase(string, time.Duration) {}
func (nopTracer) RunEnd(RunSummary)           {}

// quietSink ignores messages; loudSink reads them (it has no
// IgnoresMessages method).
type quietSink struct{ nopTracer }

func (quietSink) IgnoresMessages() bool { return true }

type loudSink struct{ nopTracer }

// The runner asks ReadsMessages before building a message event: the
// collector and the span tracer ignore messages, and a Multi reads them
// as soon as one of its sinks does.
func TestReadsMessages(t *testing.T) {
	col, spans := NewCollector(), NewSpanTracer(nil)
	jsonl := NewJSONLTracer(io.Discard)
	cases := []struct {
		name string
		t    Tracer
		want bool
	}{
		{"collector", col, false},
		{"span tracer", spans, false},
		{"jsonl", jsonl, true},
		{"plain tracer", loudSink{}, true},
		{"multi of ignorers", Multi(col, spans, quietSink{}), false},
		{"multi with one reader", Multi(col, jsonl, spans), true},
		{"multi with a plain tracer", Multi(spans, loudSink{}), true},
	}
	for _, tc := range cases {
		if got := ReadsMessages(tc.t); got != tc.want {
			t.Errorf("%s: ReadsMessages = %v, want %v", tc.name, got, tc.want)
		}
	}
}
