package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Dapper-style job spans. A Timeline is the per-job trace: a bag of spans
// sharing one trace ID, each span a named [start, end) interval with
// optional parent and key/value annotations. The serve layer opens a
// Timeline per submission (propagating the trace ID from the client's
// X-Trace-Id header), threads spans through admission → queue wait →
// cache lookup → engine run → canary tap → response, and publishes the
// finished view into the flight recorder (flight.go) where /debug/jobs
// serves it.
//
// The API is built for instrumentation call sites that must cost nothing
// when disabled: every method on a nil *Span or nil *Timeline is a
// zero-allocation no-op (pinned by the alloc-guard test in span_test.go),
// so callers never guard span plumbing with nil checks. Span timestamps
// are monotonic nanosecond offsets from the timeline's start — compact,
// trivially ordered, and immune to wall-clock steps.

// NewTraceID returns a fresh 16-hex-character trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a constant
		// fallback keeps tracing non-fatal here.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether s is acceptable as a propagated trace ID:
// 1–64 characters of [0-9a-zA-Z_-]. Anything else is replaced by a fresh
// ID at the propagation boundary rather than stored verbatim.
func ValidTraceID(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

// SpanContext identifies a span within its trace: the job-scoped trace
// ID plus the span's own ID and its parent's (0 for a root span).
type SpanContext struct {
	TraceID  string `json:"trace_id"`
	SpanID   uint64 `json:"span_id"`
	ParentID uint64 `json:"parent_id,omitempty"`
}

// Annotation is one timestamped key/value note on a span.
type Annotation struct {
	AtNs  int64  `json:"at_ns"`
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanView is the JSON form of one finished (or force-closed) span.
// Start/End are nanosecond offsets from the timeline's Start.
type SpanView struct {
	SpanID      uint64       `json:"span_id"`
	ParentID    uint64       `json:"parent_id,omitempty"`
	Name        string       `json:"name"`
	StartNs     int64        `json:"start_ns"`
	EndNs       int64        `json:"end_ns"`
	Annotations []Annotation `json:"annotations,omitempty"`
}

// TimelineView is the JSON form of a job's whole trace, as served by
// /debug/jobs. Spans appear in start order; TotalNs is the root span's
// duration (the end-to-end job latency).
type TimelineView struct {
	TraceID string    `json:"trace_id"`
	JobID   string    `json:"job_id,omitempty"`
	Outcome string    `json:"outcome,omitempty"`
	Start   time.Time `json:"start"`
	TotalNs int64     `json:"total_ns"`
	// Dropped counts spans discarded past the timeline's span cap (a job
	// whose detector executes hundreds of simulator runs stays bounded).
	Dropped int64      `json:"dropped_spans,omitempty"`
	Spans   []SpanView `json:"spans"`
}

// SpanByName returns the first span with the given name, or nil.
func (v *TimelineView) SpanByName(name string) *SpanView {
	if v == nil {
		return nil
	}
	for i := range v.Spans {
		if v.Spans[i].Name == name {
			return &v.Spans[i]
		}
	}
	return nil
}

// SpansByName returns every span with the given name, in start order —
// batch passes hang one kernel_run span per job under distinct roots,
// and the bench/ per-layer breakdown aggregates them all.
func (v *TimelineView) SpansByName(name string) []*SpanView {
	if v == nil {
		return nil
	}
	var out []*SpanView
	for i := range v.Spans {
		if v.Spans[i].Name == name {
			out = append(out, &v.Spans[i])
		}
	}
	return out
}

// DurationNs is the span's length.
func (s *SpanView) DurationNs() int64 {
	if s == nil {
		return 0
	}
	return s.EndNs - s.StartNs
}

// Annotation returns the value of the first annotation with the given
// key, and whether it exists.
func (s *SpanView) Annotation(key string) (string, bool) {
	if s == nil {
		return "", false
	}
	for _, a := range s.Annotations {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// Timeline bounds, fixed rather than configurable: they exist to keep a
// single pathological job from bloating the flight recorder, not to tune.
const (
	maxTimelineSpans   = 1024
	maxSpanAnnotations = 128
	annotationsDropped = "annotations_dropped"
)

// Timeline collects the spans of one trace. Safe for concurrent use: a
// job's spans are touched from both the HTTP handler and the worker
// goroutine. The zero value is unusable; create with NewTimeline. A nil
// *Timeline is a valid disabled timeline (every method no-ops).
type Timeline struct {
	mu      sync.Mutex
	traceID string
	start   time.Time
	now     func() time.Time
	nextID  uint64
	spans   []*Span
	dropped int64
}

// NewTimeline opens a timeline under the given trace ID (empty generates
// a fresh one). The timeline's clock starts now.
func NewTimeline(traceID string) *Timeline {
	if traceID == "" {
		traceID = NewTraceID()
	}
	return &Timeline{traceID: traceID, start: time.Now(), now: time.Now}
}

// SetClock replaces the timeline's time source and re-bases its start —
// the deterministic-test hook. Call before the first span.
func (tl *Timeline) SetClock(now func() time.Time) {
	if tl == nil {
		return
	}
	tl.mu.Lock()
	tl.now = now
	tl.start = now()
	tl.mu.Unlock()
}

// TraceID returns the timeline's trace ID ("" on a nil timeline).
func (tl *Timeline) TraceID() string {
	if tl == nil {
		return ""
	}
	return tl.traceID
}

// nowNs returns the current offset. Caller holds tl.mu.
func (tl *Timeline) nowNs() int64 { return tl.now().Sub(tl.start).Nanoseconds() }

// StartSpan opens a root-level span.
func (tl *Timeline) StartSpan(name string) *Span { return tl.startSpan(name, 0) }

func (tl *Timeline) startSpan(name string, parent uint64) *Span {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if len(tl.spans) >= maxTimelineSpans {
		tl.dropped++
		return nil
	}
	tl.nextID++
	s := &Span{
		tl:      tl,
		id:      tl.nextID,
		parent:  parent,
		name:    name,
		startNs: tl.nowNs(),
		endNs:   -1,
	}
	tl.spans = append(tl.spans, s)
	return s
}

// View snapshots the timeline. Open spans are closed at the current
// clock reading; TotalNs is the first (root) span's duration, or the
// maximum span end when no span was ever opened at offset 0.
func (tl *Timeline) View() *TimelineView {
	if tl == nil {
		return nil
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	nowNs := tl.nowNs()
	v := &TimelineView{
		TraceID: tl.traceID,
		Start:   tl.start,
		Dropped: tl.dropped,
		Spans:   make([]SpanView, len(tl.spans)),
	}
	for i, s := range tl.spans {
		end := s.endNs
		if end < 0 {
			end = nowNs
		}
		v.Spans[i] = SpanView{
			SpanID:      s.id,
			ParentID:    s.parent,
			Name:        s.name,
			StartNs:     s.startNs,
			EndNs:       end,
			Annotations: append([]Annotation(nil), s.annotations...),
		}
		if v.Spans[i].EndNs > v.TotalNs {
			v.TotalNs = v.Spans[i].EndNs
		}
	}
	if len(v.Spans) > 0 {
		v.TotalNs = v.Spans[0].EndNs - v.Spans[0].StartNs
	}
	return v
}

// Span is one named interval inside a Timeline. All methods are nil-safe
// zero-allocation no-ops on a nil receiver, so disabled instrumentation
// costs nothing (pinned by TestNilSpanZeroAlloc).
type Span struct {
	tl          *Timeline
	id, parent  uint64
	name        string
	startNs     int64
	endNs       int64 // -1 while open
	annotations []Annotation
}

// Context returns the span's identity within its trace.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.tl.traceID, SpanID: s.id, ParentID: s.parent}
}

// StartChild opens a child span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tl.startSpan(name, s.id)
}

// FinishedChild records an already-measured child span ending now and
// starting elapsed ago — the shape engine phase timings arrive in.
func (s *Span) FinishedChild(name string, elapsed time.Duration) {
	if s == nil {
		return
	}
	tl := s.tl
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if len(tl.spans) >= maxTimelineSpans {
		tl.dropped++
		return
	}
	end := tl.nowNs()
	start := end - elapsed.Nanoseconds()
	if start < 0 {
		start = 0
	}
	tl.nextID++
	tl.spans = append(tl.spans, &Span{
		tl: tl, id: tl.nextID, parent: s.id, name: name, startNs: start, endNs: end,
	})
}

// Annotate attaches a timestamped key/value note.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tl.mu.Lock()
	defer s.tl.mu.Unlock()
	if len(s.annotations) >= maxSpanAnnotations {
		if s.annotations[len(s.annotations)-1].Key != annotationsDropped {
			s.annotations = append(s.annotations, Annotation{
				AtNs: s.tl.nowNs(), Key: annotationsDropped, Value: "1",
			})
		}
		return
	}
	s.annotations = append(s.annotations, Annotation{AtNs: s.tl.nowNs(), Key: key, Value: value})
}

// Finish closes the span (idempotent; later calls keep the first end).
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.tl.mu.Lock()
	if s.endNs < 0 {
		s.endNs = s.tl.nowNs()
	}
	s.tl.mu.Unlock()
}

// DurationNs returns the span's length so far (to now while open).
func (s *Span) DurationNs() int64 {
	if s == nil {
		return 0
	}
	s.tl.mu.Lock()
	defer s.tl.mu.Unlock()
	end := s.endNs
	if end < 0 {
		end = s.tl.nowNs()
	}
	return end - s.startNs
}
