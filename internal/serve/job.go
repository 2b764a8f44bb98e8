package serve

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"subgraph"
	"subgraph/internal/obs"
)

// Execution modes (JobSpec.Mode).
const (
	ModeDetect = "detect"
	ModeCount  = "count"
)

// JobSpec is the wire form of a job submission (POST /v1/jobs).
type JobSpec struct {
	// Graph references a stored graph by digest. Exactly one of Graph and
	// GraphInline must be set.
	Graph string `json:"graph,omitempty"`
	// GraphInline carries an edge-list document inline; it is stored
	// (content-addressed, deduped) as if uploaded first.
	GraphInline string `json:"graph_inline,omitempty"`
	// Pattern is a subgraph.ParsePattern spec: triangle | cycle:L |
	// clique:S | path:L | star:L.
	Pattern string `json:"pattern"`
	// Mode selects the execution backend. "" or "detect" runs the CONGEST
	// simulation (the default, byte-identical to library Detect calls).
	// "count" answers clique-family patterns (triangle, cycle:3,
	// clique:2..8) with the word-parallel local kernel instead: the result
	// carries the exact copy count, Rounds/BandwidthBits are zero (no
	// simulation ran), and jobs for the same graph batch into one shared
	// kernel pass. Count jobs cannot request traces or fault injection.
	Mode string `json:"mode,omitempty"`
	// Options tunes the run (seed, reps, faults, deadline_ms, ...).
	Options subgraph.OptionsSpec `json:"options"`
	// Trace requests a JSONL event trace, downloadable from
	// /v1/jobs/{id}/trace once the job is done. Traced jobs are never
	// answered from cache (the trace documents a real execution).
	Trace bool `json:"trace,omitempty"`
	// Priority is "low", "normal" (or empty), or "high". Under SLO
	// degradation the server sheds low-priority jobs first (see slo.go).
	// Priority is deliberately not part of the result cache key: it
	// affects admission, never the answer.
	Priority string `json:"priority,omitempty"`
}

// JobResult is the wire form of a finished job's payload.
type JobResult struct {
	// Detected / Algorithm / Rounds / BandwidthBits mirror
	// subgraph.Report.
	Detected      bool   `json:"detected"`
	Algorithm     string `json:"algorithm"`
	Rounds        int    `json:"rounds"`
	BandwidthBits int    `json:"bandwidth_bits"`
	// Stats is the verbatim JSON encoding of the run's congest.Stats —
	// byte-identical to json.Marshal of the Stats an equivalent library
	// call returns (EXPERIMENTS.md pins this equivalence).
	Stats json.RawMessage `json:"stats"`
	// Report is the obs.Collector run report of a traced job's own run.
	// Untraced jobs and cache hits carry none: their run summary is on the
	// engine_run span of the job's timeline (/debug/jobs/{id}).
	Report *obs.RunReport `json:"report,omitempty"`
	// Partial marks a deadline-expired run returning partial Stats;
	// AbortReason carries the abort error. Partial results are not cached.
	Partial     bool   `json:"partial,omitempty"`
	AbortReason string `json:"abort_reason,omitempty"`
	// Count is the exact number of pattern copies, set by count-mode jobs
	// (the kernel backend counts as it detects). A pointer so detect-mode
	// results omit it while a legitimate zero count survives encoding.
	Count *int64 `json:"count,omitempty"`
}

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobView is the wire form of a job's status (GET /v1/jobs/{id}).
type JobView struct {
	ID      string               `json:"id"`
	State   string               `json:"state"`
	Graph   string               `json:"graph"`
	Pattern string               `json:"pattern"`
	Options subgraph.OptionsSpec `json:"options"`
	// Cached marks a job answered from the result cache without an
	// engine execution.
	Cached bool `json:"cached,omitempty"`
	// Result is set once State == done.
	Result *JobResult `json:"result,omitempty"`
	// Error is set once State == failed.
	Error string `json:"error,omitempty"`
	// Trace reports whether a JSONL trace is downloadable;
	// TraceTruncated that it overflowed the server's buffer bound.
	Trace          bool `json:"trace,omitempty"`
	TraceTruncated bool `json:"trace_truncated,omitempty"`
	// DurationMs is the execution wall time (done/failed jobs).
	DurationMs int64 `json:"duration_ms,omitempty"`
	// Priority echoes the submitted priority (empty = normal).
	Priority string `json:"priority,omitempty"`
	// Mode echoes the submitted execution mode ("count"; empty = detect).
	Mode string `json:"mode,omitempty"`
	// TraceID is the job's trace identity: propagated from the client's
	// X-Trace-Id header or generated at admission. The job's full span
	// timeline is retrievable at /debug/jobs/{id} under it.
	TraceID string `json:"trace_id,omitempty"`
	// LatencyNs is the end-to-end admission→response latency (terminal
	// jobs): the duration of the root span of the job's timeline, so it
	// equals the total_ns the debug timeline reports.
	LatencyNs int64 `json:"latency_ns,omitempty"`
	// Node names the node that answered the job. A single serve.Server
	// never sets it; the cluster router fills it in when relaying a
	// worker's answer (the worker's name) or answering from the shared
	// cache (the router's own name).
	Node string `json:"node,omitempty"`
}

// job is the server-side job record.
type job struct {
	id       string
	digest   string            // graph digest
	pattern  string            // normalized pattern spec as submitted
	g        *subgraph.Network // detect mode only; nil for count jobs
	h        *subgraph.Graph
	opts     subgraph.Options     // effective options (deadline capped)
	optSpec  subgraph.OptionsSpec // wire form of opts, for views
	key      string               // cache key
	trace    bool
	priority string
	count    bool // count mode: answered by the kernel backend
	cliqueS  int  // clique size for count jobs (kernel.CliqueSize)

	// batchClaimed marks a count job owned by a kernel batch pass. It is
	// guarded by Server.mu, not j.mu (see batch.go).
	batchClaimed bool

	// pinned marks that prepare() holds a Store pin on the job's graph,
	// released exactly once (pinOnce) when the job reaches any terminal
	// or bounced outcome — eviction can then never invalidate an
	// admitted job.
	pinned  bool
	pinOnce sync.Once

	// Span plumbing. tl/rootSpan are set at admission (handleJobSubmit)
	// before the job is visible to any worker; queueSpan is set under
	// Server.mu before enqueue and finished by the worker that dequeues.
	// All span methods are nil-safe, so nothing here is ever guarded.
	tl        *obs.Timeline
	rootSpan  *obs.Span
	queueSpan *obs.Span

	enqueuedAt time.Time // set under Server.mu when admitted to the queue

	mu         sync.Mutex
	state      string
	cached     bool
	result     *JobResult
	errMsg     string
	traceBytes []byte
	traceTrunc bool
	durationMs int64
	latencyNs  int64

	finished chan struct{} // closed on terminal state
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	mode := ""
	if j.count {
		mode = ModeCount
	}
	return JobView{
		ID:             j.id,
		State:          j.state,
		Graph:          j.digest,
		Pattern:        j.pattern,
		Options:        j.optSpec,
		Mode:           mode,
		Cached:         j.cached,
		Result:         j.result,
		Error:          j.errMsg,
		Trace:          len(j.traceBytes) > 0,
		TraceTruncated: j.traceTrunc,
		DurationMs:     j.durationMs,
		Priority:       j.priority,
		TraceID:        j.tl.TraceID(),
		LatencyNs:      j.latencyNs,
	}
}

// prepare checks a spec against the front end's shared rules (which
// store an inline graph) and resolves it on this worker: the deadline
// cap, a pin on the graph, and the simulation network for detect jobs.
// It returns an *apiError for client mistakes.
func (s *Server) prepare(spec JobSpec) (*job, *apiError) {
	a, aerr := s.front.accept(&spec)
	if aerr != nil {
		return nil, aerr
	}
	if a.deduped {
		s.reg.Counter(MetricGraphDedups).Inc()
	}
	// Server-side deadline cap: every job runs under the engine's
	// wall-clock deadline machinery.
	opts := a.opts
	if opts.Deadline <= 0 || opts.Deadline > s.cfg.MaxJobDeadline {
		opts.Deadline = s.cfg.MaxJobDeadline
	}
	// Pin before resolving: the pin guarantees the entry outlives the job
	// (LRU eviction skips pinned graphs), so an admitted job can never
	// 404 at dequeue time. Released via releaseJobPin on every outcome.
	if !s.store.Pin(spec.Graph) {
		return nil, &apiError{status: 404, msg: fmt.Sprintf("unknown graph digest %q (upload it first)", spec.Graph)}
	}
	// Only the simulation needs the network: count jobs run the kernel on
	// the store's bitset adjacency, so they neither build nor retain one.
	var nw *subgraph.Network
	if !a.count {
		nw, _ = s.store.Network(spec.Graph)
	}
	return &job{
		pinned:   true,
		digest:   spec.Graph,
		pattern:  spec.Pattern,
		g:        nw,
		h:        a.h,
		opts:     opts,
		optSpec:  subgraph.OptionsSpecOf(opts),
		key:      a.key,
		trace:    spec.Trace,
		priority: spec.Priority,
		count:    a.count,
		cliqueS:  a.cliqueS,
		state:    StateQueued,
		finished: make(chan struct{}),
	}, nil
}

// releaseJobPin drops the graph pin a job's prepare() took. Safe to call
// from every outcome path; only the first call releases.
func (s *Server) releaseJobPin(j *job) {
	if !j.pinned {
		return
	}
	j.pinOnce.Do(func() { s.store.Unpin(j.digest) })
}

// runJob executes one admitted job on a worker.
func (s *Server) runJob(j *job) {
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()

	started := time.Now()
	// The span tracer hangs engine_run/setup/rounds/teardown spans (with
	// round-window bandwidth annotations and the run summary) under the
	// job's root span; only a traced job pays for a report and JSONL.
	opts := j.opts
	opts.Trace = obs.NewSpanTracer(j.rootSpan)
	var collector *obs.Collector
	var traceBuf *cappedWriter
	var jsonl *obs.JSONLTracer
	if j.trace {
		collector, traceBuf = obs.NewCollector(), &cappedWriter{max: s.cfg.MaxTraceBytes}
		// OmitTimings keeps the trace deterministic in (graph, pattern,
		// options, seed) — the same property the result cache relies on.
		jsonl = obs.NewJSONLTracerOptions(traceBuf, obs.JSONLOptions{OmitTimings: true})
		opts.Trace = obs.Multi(collector, opts.Trace, jsonl)
	}

	s.reg.Counter(MetricDetectRuns).Inc()
	rep, err := subgraph.Detect(j.g, j.h, opts)
	engineWall := time.Since(started)
	s.reg.Histogram(HistEngineRunNs, JobWallBuckets).
		Observe(float64(engineWall.Nanoseconds()))
	if jsonl != nil {
		_ = jsonl.Close()
		j.mu.Lock()
		j.traceBytes, j.traceTrunc = traceBuf.buf, traceBuf.truncated
		j.mu.Unlock()
	}

	// The response span covers turning the engine's answer into the
	// published job record: stats encoding and cache insertion.
	respSpan := j.rootSpan.StartChild("response")
	durationMs := time.Since(started).Milliseconds()
	var res *JobResult
	state, errMsg := StateFailed, ""
	if rep == nil {
		errMsg = err.Error()
	} else if statsJSON, merr := json.Marshal(rep.Stats); merr != nil {
		errMsg = "encoding stats: " + merr.Error()
	} else {
		res = &JobResult{
			Detected:      rep.Detected,
			Algorithm:     rep.Algorithm,
			Rounds:        rep.Rounds,
			BandwidthBits: rep.BandwidthBits,
			Stats:         statsJSON,
		}
		if err != nil {
			res.Partial = true
			res.AbortReason = err.Error()
		}
		state = StateDone
		wall := time.Since(started)
		s.reg.Histogram(HistJobWallNs, JobWallBuckets).
			Observe(float64(wall.Nanoseconds()))
		s.slo.observeLatency(wall)
		// Complete, fault-of-nothing runs are reusable; partial
		// (deadline-shaped) results are not. No report is cached.
		if !res.Partial {
			s.cache.Put(j.key, res)
		}
		if collector != nil {
			traced := *res
			traced.Report = collector.Report()
			res = &traced
		}
	}
	if state == StateDone {
		s.reg.Counter(MetricJobsCompleted).Inc()
	} else {
		s.reg.Counter(MetricJobsFailed).Inc()
	}
	respSpan.Finish()
	j.rootSpan.Finish()
	if s.cfg.OnJobDone != nil && res != nil && !res.Partial {
		// The tap span lands after the root span's end — deliberately: the
		// canary must never show up in the client-visible latency, but its
		// cost should still be attributable in the timeline.
		tap := j.rootSpan.StartChild("canary_tap")
		s.cfg.OnJobDone(JobDone{
			ID:      j.id,
			TraceID: j.tl.TraceID(),
			Digest:  j.digest,
			Pattern: j.pattern,
			Network: j.g,
			Options: j.optSpec,
			Result:  res,
		})
		tap.Finish()
	}
	s.finish(j, state, res, errMsg, durationMs)
	if state == StateDone {
		s.logger.Info("job done",
			"job_id", j.id, "trace_id", j.tl.TraceID(), "digest", j.digest,
			"pattern", j.pattern, "partial", res.Partial,
			"engine_ms", engineWall.Milliseconds(), "latency_ms", j.latencyNs/1e6)
	} else {
		s.logger.Warn("job failed",
			"job_id", j.id, "trace_id", j.tl.TraceID(), "digest", j.digest,
			"pattern", j.pattern, "err", errMsg)
	}
}

// finish makes a job terminal once its root span has closed. The
// timeline is recorded before the state flips, so a client that sees the
// job terminal can fetch /debug/jobs/{id} at once; then waiters wake, the
// table stops treating the job as live, and the graph pin is released.
func (s *Server) finish(j *job, state string, res *JobResult, errMsg string, durationMs int64) {
	s.front.Publish(j.tl, j.id, state)
	j.mu.Lock()
	j.state, j.result, j.errMsg = state, res, errMsg
	j.durationMs = durationMs
	j.latencyNs = j.rootSpan.DurationNs()
	j.mu.Unlock()
	close(j.finished)
	s.jobs.Finish(j.id)
	s.releaseJobPin(j)
}

// cappedWriter buffers writes up to max bytes and silently discards the
// rest, recording that truncation happened.
type cappedWriter struct {
	buf       []byte
	max       int
	truncated bool
}

func (w *cappedWriter) Write(p []byte) (int, error) {
	room := w.max - len(w.buf)
	if room <= 0 {
		w.truncated = true
		return len(p), nil
	}
	if len(p) > room {
		w.buf = append(w.buf, p[:room]...)
		w.truncated = true
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}
