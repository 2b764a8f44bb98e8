package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryMetrics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := r.Counter("x").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.Gauge("g").Set(2.5)
	if got := r.Gauge("g").Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	h := r.Histogram("h", []float64{10, 100})
	for _, x := range []float64{1, 5, 10, 50, 1000} {
		h.Observe(x)
	}
	s := h.Snapshot()
	if want := []int64{3, 1}; s.Counts[0] != want[0] || s.Counts[1] != want[1] {
		t.Fatalf("bucket counts = %v, want %v", s.Counts, want)
	}
	if s.Overflow != 1 || s.Count != 5 || s.Sum != 1066 {
		t.Fatalf("overflow/count/sum = %d/%d/%v, want 1/5/1066", s.Overflow, s.Count, s.Sum)
	}

	snap := r.Snapshot()
	if snap.Counters["x"] != 5 || snap.Gauges["g"] != 2.5 || snap.Histograms["h"].Count != 5 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
	// Snapshots must be JSON-marshalable (they embed into RunReport).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryConcurrentUse exercises handle creation and updates from
// many goroutines; run under -race this pins the advertised thread-safety.
func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", []float64{50}).Observe(float64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 800 {
		t.Fatalf("counter = %d, want 800", got)
	}
	if got := r.Histogram("h", nil).Snapshot().Count; got != 800 {
		t.Fatalf("histogram count = %d, want 800", got)
	}
}

// recordingTracer records event kinds for fan-out tests.
type recordingTracer struct{ events []string }

func (r *recordingTracer) RunStart(RunInfo)            { r.events = append(r.events, "run_start") }
func (r *recordingTracer) RoundStart(int)              { r.events = append(r.events, "round_start") }
func (r *recordingTracer) Message(MessageEvent)        { r.events = append(r.events, "message") }
func (r *recordingTracer) Fault(FaultEvent)            { r.events = append(r.events, "fault") }
func (r *recordingTracer) Node(NodeEvent)              { r.events = append(r.events, "node") }
func (r *recordingTracer) RoundEnd(RoundStats)         { r.events = append(r.events, "round_end") }
func (r *recordingTracer) Phase(string, time.Duration) { r.events = append(r.events, "phase") }
func (r *recordingTracer) RunEnd(RunSummary)           { r.events = append(r.events, "run_end") }

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi with no live tracers must return nil")
	}
	a := &recordingTracer{}
	if got := Multi(nil, a); got != Tracer(a) {
		t.Fatal("Multi with one live tracer must return it unwrapped")
	}
	b := &recordingTracer{}
	m := Multi(a, nil, b)
	m.RunStart(RunInfo{})
	m.RoundStart(1)
	m.Message(MessageEvent{})
	m.Fault(FaultEvent{})
	m.Node(NodeEvent{})
	m.RoundEnd(RoundStats{})
	m.Phase("setup", time.Second)
	m.RunEnd(RunSummary{})
	want := []string{"run_start", "round_start", "message", "fault", "node", "round_end", "phase", "run_end"}
	for _, r := range []*recordingTracer{a, b} {
		if len(r.events) != len(want) {
			t.Fatalf("tracer saw %v, want %v", r.events, want)
		}
		for i := range want {
			if r.events[i] != want[i] {
				t.Fatalf("tracer saw %v, want %v", r.events, want)
			}
		}
	}
}

func TestJSONLEmit(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	tr.RunStart(RunInfo{Engine: "sequential", Nodes: 3, Edges: 3, Bandwidth: 8, MaxRounds: 5, Seed: 42})
	tr.RoundStart(1)
	tr.Message(MessageEvent{Round: 1, FromVertex: 0, ToVertex: 1, FromID: 1, ToID: 2, Bits: 4, Payload: "1010"})
	tr.Fault(FaultEvent{Round: 1, Kind: "crash", Vertex: 2, ID: 3})
	tr.Node(NodeEvent{Round: 1, Kind: "halt", Vertex: 0, ID: 1})
	tr.RoundEnd(RoundStats{Round: 1, Bits: 4, Messages: 1, ActiveNodes: 3})
	tr.Phase("setup", 1500*time.Nanosecond)
	tr.RunEnd(RunSummary{Outcome: "completed", Rounds: 1, TotalBits: 4, TotalMessages: 1, Accepts: 3})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8:\n%s", len(lines), buf.String())
	}
	wantPrefix := []string{
		`{"ev":"run_start",`, `{"ev":"round_start",`, `{"ev":"message",`, `{"ev":"fault",`,
		`{"ev":"node",`, `{"ev":"round_end",`, `{"ev":"phase",`, `{"ev":"run_end",`,
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, wantPrefix[i]) {
			t.Errorf("line %d = %s, want prefix %s", i, line, wantPrefix[i])
		}
		if !json.Valid([]byte(line)) {
			t.Errorf("line %d is not valid JSON: %s", i, line)
		}
	}
	if want := `{"ev":"message","round":1,"from":0,"to":1,"from_id":1,"to_id":2,"bits":4,"payload":"1010"}`; lines[2] != want {
		t.Errorf("message line = %s\nwant           %s", lines[2], want)
	}
}

func TestJSONLOptions(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracerOptions(&buf, JSONLOptions{OmitTimings: true, OmitPayloads: true})
	tr.Message(MessageEvent{Round: 1, Bits: 4, Payload: "1010"})
	tr.RoundEnd(RoundStats{Round: 1, Bits: 4, Messages: 1, ActiveNodes: 2, ComputeNs: 99, DeliverNs: 99, WorkerUtilization: 0.5})
	tr.Phase("setup", time.Second)
	tr.RunEnd(RunSummary{Outcome: "completed", WallNs: 123})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, banned := range []string{"payload", "compute_ns", "deliver_ns", "worker_utilization", "elapsed_ns", "wall_ns"} {
		if strings.Contains(out, banned) {
			t.Errorf("omitted field %q leaked into trace:\n%s", banned, out)
		}
	}
}

// errWriter fails after n bytes, for the latched-error test.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errSink
	}
	if len(p) > w.n {
		p = p[:w.n]
	}
	w.n -= len(p)
	return len(p), nil
}

var errSink = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "sink full" }

func TestJSONLWriteErrorLatches(t *testing.T) {
	tr := NewJSONLTracerOptions(&errWriter{n: 10}, JSONLOptions{})
	for i := 0; i < 10000; i++ {
		tr.RoundStart(i)
	}
	if err := tr.Close(); err == nil {
		t.Fatal("expected latched write error")
	}
	if tr.Err() == nil {
		t.Fatal("Err must report the latched error")
	}
}

func TestCollectorMultiRunAccumulation(t *testing.T) {
	c := NewCollector()
	for run := 0; run < 3; run++ {
		c.RunStart(RunInfo{Engine: "sequential", Nodes: 2})
		c.RoundStart(1)
		c.RoundEnd(RoundStats{Round: 1, Bits: 10, Messages: 2, ActiveNodes: 2})
		c.RunEnd(RunSummary{Outcome: "completed", Rounds: 1, TotalBits: 10, TotalMessages: 2, CorruptedBits: 1})
	}
	rep := c.Report()
	if got := rep.Metrics.Counters[MetricRuns]; got != 3 {
		t.Fatalf("runs_total = %d, want 3", got)
	}
	if got := rep.Metrics.Counters[MetricBits]; got != 30 {
		t.Fatalf("bits_total = %d, want 30", got)
	}
	if got := rep.Metrics.Counters[MetricCorruptedBits]; got != 3 {
		t.Fatalf("corrupted_bits_total = %d, want 3", got)
	}
	if len(rep.Rounds) != 3 {
		t.Fatalf("round series has %d entries, want 3", len(rep.Rounds))
	}
	var out bytes.Buffer
	if err := rep.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Metrics.Counters[MetricBits] != 30 {
		t.Fatalf("round-tripped bits_total = %d, want 30", back.Metrics.Counters[MetricBits])
	}
}

// TestDiscardLoggerBuildsNoRecord checks DiscardLogger at every level:
// disabled, and never resolving a value, directly or through a derived
// logger.
func TestDiscardLoggerBuildsNoRecord(t *testing.T) {
	resolved := 0
	probe := slog.AnyValue(logValuer(func() slog.Value { resolved++; return slog.IntValue(1) }))
	ctx := context.Background()
	for _, l := range []*slog.Logger{DiscardLogger, DiscardLogger.With("k", "v").WithGroup("g")} {
		for _, level := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
			if l.Enabled(ctx, level) {
				t.Errorf("DiscardLogger is enabled at %v", level)
			}
			l.Log(ctx, level, "probe", "value", probe)
		}
	}
	if resolved != 0 {
		t.Fatalf("DiscardLogger resolved %d values", resolved)
	}
}

type logValuer func() slog.Value

func (f logValuer) LogValue() slog.Value { return f() }
