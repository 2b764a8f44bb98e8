package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/obs"
)

// FrontEnd is the job front end a worker (Server) and a cluster router
// share: submit intake and the spec rules, the SLO shedding rule and the
// admission replies, the drain flag, the flight recorder, graph uploads,
// and the routes both daemons serve verbatim. Each daemon keeps its own
// job table and execution step and calls these pieces directly.
type FrontEnd struct {
	role       string // HealthView.Role
	node       string
	rootSpan   string // name of every job timeline's root span
	names      FrontMetrics
	reg        *obs.Registry
	store      *Store
	cache      *Cache
	slo        *sloGuard
	flight     *obs.FlightRecorder // nil when disabled
	flightSize int
	limits     graph.Limits
	maxBody    int64
	draining   atomic.Bool
}

// FrontMetrics names the counters a front end bumps, so each daemon keeps
// its own metric namespace.
type FrontMetrics struct {
	Submitted, Draining, Shed, CacheHits, CacheMisses, Uploads string
}

// NewFrontEnd builds a front end over a daemon's graph store and result
// cache from the front-end fields of cfg (NodeName, Registry, SLO,
// FlightRecorderSize, Logger, MaxUploadBytes, GraphLimits), defaults
// applied. role is what /healthz reports and rootSpan names each job
// timeline's root span.
func NewFrontEnd(role, rootSpan string, cfg Config, store *Store, cache *Cache, names FrontMetrics) *FrontEnd {
	cfg = cfg.withDefaults()
	f := &FrontEnd{
		role:       role,
		node:       cfg.NodeName,
		rootSpan:   rootSpan,
		names:      names,
		reg:        cfg.Registry,
		store:      store,
		cache:      cache,
		slo:        newSLOGuard(cfg.SLO, cfg.Registry, 10),
		flightSize: cfg.FlightRecorderSize,
		limits:     cfg.GraphLimits,
		maxBody:    cfg.MaxUploadBytes,
	}
	f.slo.logger = cfg.Logger
	if cfg.FlightRecorderSize > 0 {
		f.flight = obs.NewFlightRecorder(cfg.FlightRecorderSize)
	}
	return f
}

// Route registers the routes both daemons serve verbatim.
func (f *FrontEnd) Route(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", f.handleHealth)
	mux.HandleFunc("GET /v1/graphs", f.handleGraphList)
	mux.HandleFunc("GET /v1/graphs/{digest}", f.handleGraphInfo)
	mux.HandleFunc("GET /v1/graphs/{digest}/edgelist", f.handleGraphDownload)
	mux.HandleFunc("GET /debug/jobs", f.handleDebugJobs)
	mux.HandleFunc("GET /debug/jobs/{id}", f.handleDebugJob)
	mux.HandleFunc("GET /debug/slo", f.handleDebugSLO)
}

// BeginDrain sets the drain flag, reporting whether this call set it.
func (f *FrontEnd) BeginDrain() bool { return f.draining.CompareAndSwap(false, true) }

// Draining reports whether BeginDrain has been called.
func (f *FrontEnd) Draining() bool { return f.draining.Load() }

// ObserveLatency feeds one finished job's latency to the SLO guard.
func (f *FrontEnd) ObserveLatency(d time.Duration) { f.slo.observeLatency(d) }

// apiError is a client-visible error with its HTTP status.
type apiError struct {
	status int
	msg    string
}

func badRequest(msg string) *apiError { return &apiError{status: http.StatusBadRequest, msg: msg} }

// writeJSON emits compact JSON: an indenting encoder would reformat the
// json.RawMessage Stats inside job results and break the documented
// byte-identity with library-side json.Marshal(Stats).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// WriteJSON is the JSON writer of every front-end reply, for the cluster
// router's own routes.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

// WriteErr replies {"error": <message>} with status through WriteJSON.
func WriteErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeErr(w, status, format, args...)
}

const drainingMsg = "server is draining; submit elsewhere"

// maxJobWait caps how long one GET /v1/jobs/{id}?wait= parks. It stays
// below the client's default per-attempt timeout (10 s) and the router's
// forward timeout (15 s), so a parked request answers before the caller
// gives up on it.
const maxJobWait = 5 * time.Second

// ParseWait reads the wait parameter of GET /v1/jobs/{id}, a Go duration
// ("250ms", "5s") clamped to maxJobWait; absent, it is zero. A malformed
// or negative wait is answered 400 and ok is false.
func ParseWait(w http.ResponseWriter, r *http.Request) (wait time.Duration, ok bool) {
	q := r.URL.Query().Get("wait")
	if q == "" {
		return 0, true
	}
	wait, err := time.ParseDuration(q)
	if err != nil || wait < 0 {
		writeErr(w, http.StatusBadRequest, "wait must be a non-negative duration such as 5s, got %q", q)
		return 0, false
	}
	return min(wait, maxJobWait), true
}

// Await parks a job read until done closes, wait elapses or ctx ends.
func Await(ctx context.Context, done <-chan struct{}, wait time.Duration) {
	if wait <= 0 {
		return
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-done:
	case <-t.C:
	case <-ctx.Done():
	}
}

// Decode reads a bounded JSON body into v, refusing unknown fields and
// anything after the one JSON value but white space: a second value would
// otherwise be dropped without a word. An over-bound body answers 413 and
// any other decode failure 400.
func (f *FrontEnd) Decode(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, f.maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		err = endOfInput(dec)
	}
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, "decoding %s: %v", what, err)
		return false
	}
	return true
}

// endOfInput reports an error unless dec holds nothing more than white
// space.
func endOfInput(dec *json.Decoder) error {
	tok, err := dec.Token()
	switch {
	case err == io.EOF:
		return nil
	case err != nil:
		return err
	default:
		return fmt.Errorf("unexpected %v after the JSON value", tok)
	}
}

// TraceIDHeader carries a job's trace ID end to end: clients may set it
// on POST /v1/jobs (invalid values are replaced, never stored), and the
// server echoes the effective ID on every submit response.
const TraceIDHeader = "X-Trace-Id"

// ForwardedByHeader names the cluster router that forwarded a job to
// this worker. The worker annotates its root job span with the value, so
// a forwarded job's /debug/jobs timeline says which hop dispatched it —
// the router's own spans chain onto the same X-Trace-Id.
const ForwardedByHeader = "X-Forwarded-By"

// Submission is a decoded POST /v1/jobs body and the job's timeline,
// whose root span is open.
type Submission struct {
	Spec JobSpec
	TL   *obs.Timeline
	Root *obs.Span

	admission *obs.Span // closed by Lookup
}

// Intake runs the transport half of POST /v1/jobs: it adopts the
// client's trace ID (or mints one) and echoes it, opens the job's root
// span, refuses with 503 while draining, and decodes the spec. It
// answers the client itself unless it returns ok.
func (f *FrontEnd) Intake(w http.ResponseWriter, r *http.Request) (sub *Submission, ok bool) {
	traceID := r.Header.Get(TraceIDHeader)
	if !obs.ValidTraceID(traceID) {
		traceID = obs.NewTraceID()
	}
	sub = &Submission{TL: obs.NewTimeline(traceID)}
	w.Header().Set(TraceIDHeader, sub.TL.TraceID())
	sub.Root = sub.TL.StartSpan(f.rootSpan)
	if fwd := r.Header.Get(ForwardedByHeader); fwd != "" {
		sub.Root.Annotate("forwarded_by", fwd)
	}
	if f.Draining() {
		f.refuseDraining(w)
		return nil, false
	}
	// Admission covers decode + validation + store lookups — everything
	// between arrival and the cache decision.
	sub.admission = sub.Root.StartChild("admission")
	if !f.Decode(w, r, &sub.Spec, "job spec") {
		return nil, false
	}
	f.reg.Counter(f.names.Submitted).Inc()
	return sub, true
}

// accepted is a spec that passed the front end's rules.
type accepted struct {
	h       *subgraph.Graph
	opts    subgraph.Options
	key     string
	count   bool
	cliqueS int  // clique size for count jobs (kernel.CliqueSize)
	deduped bool // the inline graph was already stored
}

// accept applies the spec rules every front door shares: exactly one of
// graph and graph_inline, a parseable pattern and options, a known
// priority and mode, a pattern that may run resilient when detect mode
// asks for it, and the count-mode restrictions. Only then is an
// inline graph parsed under the upload limits and stored, and the spec
// rewritten to reference it by digest.
func (f *FrontEnd) accept(spec *JobSpec) (accepted, *apiError) {
	var a accepted
	if (spec.Graph == "") == (spec.GraphInline == "") {
		return a, badRequest("exactly one of \"graph\" (digest) and \"graph_inline\" (edge list) must be set")
	}
	p, err := parsePattern(spec.Pattern)
	if err != nil {
		return a, badRequest(err.Error())
	}
	a.h = p.h
	if a.opts, err = spec.Options.Options(); err != nil {
		return a, badRequest(err.Error())
	}
	if !validPriority(spec.Priority) {
		return a, badRequest(fmt.Sprintf("unknown priority %q (want low, normal, or high)", spec.Priority))
	}
	switch spec.Mode {
	case "", ModeDetect:
		if err := subgraph.CheckResilient(a.h, a.opts); err != nil {
			return a, badRequest(err.Error())
		}
	case ModeCount:
		var ok bool
		if a.cliqueS, ok = kernel.CliqueSize(a.h); !ok {
			return a, badRequest(fmt.Sprintf(
				"pattern %q is not kernel-countable: count mode serves clique-family patterns only (triangle, cycle:3, clique:2..%d)",
				spec.Pattern, kernel.MaxCliqueSize))
		}
		if spec.Trace {
			return a, badRequest("count jobs run the local kernel and produce no engine trace; submit in detect mode to trace")
		}
		if spec.Options.Faults != nil || spec.Options.Resilient {
			return a, badRequest("count jobs run the local kernel; fault injection and resilience apply to simulations only")
		}
		a.count = true
	default:
		return a, badRequest(fmt.Sprintf("unknown mode %q (want \"detect\" or \"count\")", spec.Mode))
	}
	if spec.GraphInline != "" {
		g, aerr := f.parseUpload(strings.NewReader(spec.GraphInline))
		if aerr != nil {
			return a, aerr
		}
		spec.Graph, a.deduped = f.store.Put(g)
		spec.GraphInline = ""
		f.reg.Counter(f.names.Uploads).Inc()
	}
	a.key = cacheKey(spec.Graph, p.digest, subgraph.OptionsSpecOf(a.opts), a.count)
	return a, nil
}

// Accept applies accept to sub.Spec for a daemon that resolves no graph
// itself, answering 400/413 on failure. It returns the spec's cache key
// and whether it is a count-mode job.
func (f *FrontEnd) Accept(w http.ResponseWriter, sub *Submission) (key string, count, ok bool) {
	a, aerr := f.accept(&sub.Spec)
	if aerr != nil {
		writeErr(w, aerr.status, "%s", aerr.msg)
		return "", false, false
	}
	return a.key, a.count, true
}

// Lookup closes the admission span and answers a non-traced job from the
// result cache if it can. Traced jobs bypass the cache: their trace
// documents a real execution.
func (f *FrontEnd) Lookup(sub *Submission, key string) (*JobResult, bool) {
	sub.admission.Finish()
	if sub.Spec.Trace {
		return nil, false
	}
	lookup := sub.Root.StartChild("cache_lookup")
	defer lookup.Finish()
	res, ok := f.cache.Get(key)
	if !ok {
		lookup.Annotate("result", "miss")
		f.reg.Counter(f.names.CacheMisses).Inc()
		return nil, false
	}
	lookup.Annotate("result", "hit")
	f.reg.Counter(f.names.CacheHits).Inc()
	return res, true
}

// Admit applies the SLO shedding rule: at the higher of the guard's level
// and level (the worst level the caller observed elsewhere; a router
// passes the lowest level among the job's owners), a below-threshold
// priority is bounced with 429 + Retry-After before it can occupy queue
// or workers. Count jobs are the exception: they are admitted with
// pressured set, to batch-coalesce into shared kernel passes whose
// marginal cost under pressure is near zero. backlog and capacity feed
// the Retry-After estimate. Admit answers the client itself unless it
// returns admitted.
func (f *FrontEnd) Admit(w http.ResponseWriter, sub *Submission, count bool, level, backlog, capacity int) (admitted, pressured bool) {
	if !levelSheds(max(f.slo.level.Load(), int32(level)), sub.Spec.Priority) {
		return true, false
	}
	if count {
		sub.Root.Annotate("slo", "batch_coalesced")
		return true, true
	}
	f.reg.Counter(f.names.Shed).Inc()
	f.Refuse(w, sub, "", "shed", http.StatusTooManyRequests, f.RetryAfter(backlog, capacity),
		"shedding %s-priority load: p99 over budget; retry later", displayPriority(sub.Spec.Priority))
	return false, false
}

// RetryAfter estimates, in seconds, when a shed or bounced client should
// come back: backlog × mean job latency ÷ capacity, clamped to [1s, 30s]
// so the header is never a lie in either direction.
func (f *FrontEnd) RetryAfter(backlog, capacity int) int {
	est := time.Duration(backlog) * f.slo.meanLatency() / time.Duration(max(capacity, 1))
	return min(max(int((est+time.Second-1)/time.Second), 1), 30)
}

// Refuse answers a submission that will not run: the root span closes
// annotated with outcome, the timeline is recorded under id (empty for a
// job never registered), and the reply carries status, with a
// Retry-After header when retryAfter > 0.
func (f *FrontEnd) Refuse(w http.ResponseWriter, sub *Submission, id, outcome string, status, retryAfter int, format string, args ...any) {
	sub.Root.Annotate("outcome", outcome)
	sub.Root.Finish()
	f.Publish(sub.TL, id, outcome)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	writeErr(w, status, format, args...)
}

// refuseDraining answers a submission that arrives while draining.
func (f *FrontEnd) refuseDraining(w http.ResponseWriter) {
	f.reg.Counter(f.names.Draining).Inc()
	writeErr(w, http.StatusServiceUnavailable, drainingMsg)
}

// Publish snapshots a job's span timeline into the flight recorder under
// its ID and outcome. Nil-safe on both the recorder (disabled) and the
// timeline (jobs admitted without one).
func (f *FrontEnd) Publish(tl *obs.Timeline, id, outcome string) {
	if f.flight == nil || tl == nil {
		return
	}
	v := tl.View()
	v.JobID = id
	v.Outcome = outcome
	f.flight.Record(v)
}

// HealthView is the wire response of /healthz. Role/Node/Shards are the
// cluster-facing fields: a router's health prober keys routing decisions
// off them, and a draining node keeps reporting them under its 503 so
// the prober can tell "draining" from "dead".
type HealthView struct {
	Status string `json:"status"` // "ok" | "draining"
	// Role is "worker" (a serve.Server) or "router" (a cluster router).
	Role string `json:"role,omitempty"`
	// Node is the configured node name; empty on unnamed single nodes.
	Node string `json:"node,omitempty"`
	// Shards counts owned graph digests: stored graphs on a worker,
	// routable digests on a router.
	Shards   int  `json:"shards"`
	Draining bool `json:"draining,omitempty"`
}

func (f *FrontEnd) handleHealth(w http.ResponseWriter, r *http.Request) {
	v := HealthView{Status: "ok", Role: f.role, Node: f.node, Shards: f.store.Len()}
	if f.Draining() {
		// 503 tells orchestrators (and the cluster router's prober) to stop
		// routing while queued jobs finish.
		v.Status, v.Draining = "draining", true
		writeJSON(w, http.StatusServiceUnavailable, v)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// UploadView is the wire response of a graph upload.
type UploadView struct {
	GraphInfo
	// Deduped marks an upload whose content was already stored.
	Deduped bool `json:"deduped,omitempty"`
}

// parseUpload parses an untrusted edge list from r under the upload
// limits, mapping parse errors to 400, limit errors to 413, and an error
// reading r to 413.
func (f *FrontEnd) parseUpload(r io.Reader) (*graph.Graph, *apiError) {
	g, err := graph.ReadEdgeListLimits(r, f.limits)
	var le *graph.LimitError
	var pe *graph.ParseError
	switch {
	case err == nil:
		return g, nil
	case errors.As(err, &le):
		return nil, &apiError{status: http.StatusRequestEntityTooLarge, msg: le.Error()}
	case errors.As(err, &pe):
		return nil, badRequest(err.Error())
	}
	return nil, readUploadError(err)
}

// readUploadError is the 413 an error reading an upload body answers.
func readUploadError(err error) *apiError {
	return &apiError{status: http.StatusRequestEntityTooLarge, msg: "reading upload: " + err.Error()}
}

// Upload parses a POST /v1/graphs body as it streams in and stores it,
// answering 413/400 itself unless it returns ok.
func (f *FrontEnd) Upload(w http.ResponseWriter, r *http.Request) (digest string, deduped, ok bool) {
	body := http.MaxBytesReader(w, r.Body, f.maxBody)
	g, aerr := f.parseUpload(body)
	if aerr != nil {
		// An error reading the body, one over the size bound included,
		// outranks a parse error in an earlier line: read what the parse
		// left, and answer that error if there is one.
		if _, err := io.Copy(io.Discard, body); err != nil {
			aerr = readUploadError(err)
		}
		writeErr(w, aerr.status, "%s", aerr.msg)
		return "", false, false
	}
	digest, deduped = f.store.Put(g)
	f.reg.Counter(f.names.Uploads).Inc()
	return digest, deduped, true
}

// ReplyUpload answers a stored upload: 201 for new content, 200 for a
// dedup.
func (f *FrontEnd) ReplyUpload(w http.ResponseWriter, digest string, deduped bool) {
	info, _ := f.store.Info(digest)
	status := http.StatusCreated
	if deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, UploadView{GraphInfo: info, Deduped: deduped})
}

func (f *FrontEnd) handleGraphList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": f.store.List()})
}

func (f *FrontEnd) handleGraphInfo(w http.ResponseWriter, r *http.Request) {
	info, ok := f.store.Info(r.PathValue("digest"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph digest %q", r.PathValue("digest"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (f *FrontEnd) handleGraphDownload(w http.ResponseWriter, r *http.Request) {
	g, ok := f.store.Get(r.PathValue("digest"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown graph digest %q", r.PathValue("digest"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = graph.WriteEdgeList(w, g)
}

// DebugJobsView is the wire response of GET /debug/jobs: the flight
// recorder's held timelines, newest first.
type DebugJobsView struct {
	Count     int                 `json:"count"`
	Timelines []*obs.TimelineView `json:"timelines"`
}

// DebugSLOView is the wire response of GET /debug/slo.
type DebugSLOView struct {
	Level       string          `json:"level"`
	Transitions []SLOTransition `json:"transitions"`
}

func (f *FrontEnd) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	views := f.flight.Snapshot() // nil-safe: empty when recording disabled
	if views == nil {
		views = []*obs.TimelineView{}
	}
	writeJSON(w, http.StatusOK, DebugJobsView{Count: len(views), Timelines: views})
}

func (f *FrontEnd) handleDebugJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if f.flight == nil {
		writeErr(w, http.StatusNotFound, "flight recorder disabled")
		return
	}
	v := f.flight.Find(id)
	if v == nil {
		writeErr(w, http.StatusNotFound,
			"no recorded timeline for %q (job or trace ID; the recorder holds the last %d)",
			id, f.flightSize)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (f *FrontEnd) handleDebugSLO(w http.ResponseWriter, r *http.Request) {
	trs := f.slo.Transitions()
	if trs == nil {
		trs = []SLOTransition{}
	}
	writeJSON(w, http.StatusOK, DebugSLOView{
		Level:       levelName(f.slo.level.Load()),
		Transitions: trs,
	})
}

// displayPriority names a priority for error messages ("" → "normal").
func displayPriority(p string) string {
	if p == "" {
		return PriorityNormal
	}
	return p
}
