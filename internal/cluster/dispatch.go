package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"subgraph/internal/serve"
)

// cjob is the router-side job record. The router owns the job's public
// identity (c-%06d) and terminal view; which worker executes it — and
// whether it had to be re-dispatched — is an implementation detail the
// client never renegotiates.
type cjob struct {
	*serve.Submission // spec (graph by digest), timeline, root span
	id                string
	key               string // the cluster-shared cache identity
	created           time.Time

	// resMu single-flights resolution: concurrent polls of one job must
	// not race a redispatch or double-finalize. Held across worker I/O —
	// acceptable because only this job's pollers contend on it.
	resMu sync.Mutex

	mu           sync.Mutex
	node         string // base URL of the worker holding the job
	workerID     string // the worker's job ID for it
	redispatched bool
	admitted     bool // counted in Router.inflight (false for cache hits)
	lastState    string
	terminalV    *serve.JobView
}

func (c *cjob) terminalView() *serve.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.terminalV
}

func (c *cjob) assignment() (node, workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node, c.workerID
}

// skeletonView is the job's view before any worker state is known.
func (c *cjob) skeletonView() serve.JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	state := c.lastState
	if state == "" {
		state = serve.StateQueued
	}
	return serve.JobView{
		ID:       c.id,
		State:    state,
		Graph:    c.Spec.Graph,
		Pattern:  c.Spec.Pattern,
		Options:  c.Spec.Options,
		Mode:     c.Spec.Mode,
		Priority: c.Spec.Priority,
		TraceID:  c.TL.TraceID(),
	}
}

// translate rebrands a worker view as this cluster job: router ID, and
// the executing node named so operators can find the hop.
func (c *cjob) translate(v serve.JobView, node string) serve.JobView {
	v.ID = c.id
	v.Node = node
	v.TraceID = c.TL.TraceID()
	return v
}

// admit claims one cluster in-flight slot.
func (r *Router) admit(cj *cjob) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inflight >= r.cfg.MaxInflight {
		return false
	}
	r.inflight++
	cj.admitted = true
	r.reg.Gauge(GaugeInflight).Set(float64(r.inflight))
	return true
}

// settle releases the job's in-flight slot (idempotent per job). A
// terminal job (keep) stays pollable; one the cluster could not place is
// dropped, so its refusal leaves no residue.
func (r *Router) settle(cj *cjob, keep bool) {
	if keep {
		r.jobs.Finish(cj.id)
	} else {
		r.jobs.Remove(cj.id)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cj.admitted {
		cj.admitted = false
		r.inflight--
		r.reg.Gauge(GaugeInflight).Set(float64(r.inflight))
	}
}

// load is the Retry-After estimate's input: admitted, unresolved jobs
// plus the submission at hand, over the live fleet.
func (r *Router) load() (backlog, fleet int) {
	r.mu.Lock()
	backlog = r.inflight + 1
	r.mu.Unlock()
	return backlog, len(r.upMembers(""))
}

// Draining reports whether BeginDrain has been called.
func (r *Router) Draining() bool { return r.front.Draining() }

// BeginDrain flips the router into draining mode: new submissions are
// answered 503 while already-admitted jobs keep resolving. Idempotent.
func (r *Router) BeginDrain() {
	if r.front.BeginDrain() {
		r.logger.Info("router drain begun", "inflight", len(r.jobs.Pending()))
	}
}

// Drain begins draining and actively resolves every admitted job until
// all are terminal or ctx expires — polls keep flowing to workers, so a
// worker crash mid-drain is detected and the job re-dispatched even
// with no client polling it.
func (r *Router) Drain(ctx context.Context) error {
	r.BeginDrain()
	r.Stop()
	for {
		pending := r.jobs.Pending()
		if len(pending) == 0 {
			// Deltas have been refused since BeginDrain; the recount pool
			// can park permanently.
			r.krn.Close()
			r.logger.Info("router drain complete",
				"jobs_completed", r.reg.Counter(MetricJobsCompleted).Value())
			return nil
		}
		for _, cj := range pending {
			if ctx.Err() != nil {
				return fmt.Errorf("cluster: drain interrupted: %w", context.Cause(ctx))
			}
			r.resolve(cj)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: drain interrupted: %w", context.Cause(ctx))
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// ---- submit ------------------------------------------------------------

func (r *Router) handleJobSubmit(w http.ResponseWriter, req *http.Request) {
	sub, ok := r.front.Intake(w, req)
	if !ok {
		return
	}
	// An inline graph lands in the router mirror, then travels to workers
	// by digest — the push machinery dedupes, so a thousand jobs inlining
	// the same topology ship it to each owner once.
	key, count, ok := r.front.Accept(w, sub)
	if !ok {
		return
	}
	cj := &cjob{Submission: sub, key: key, created: time.Now()}

	// Cluster-shared cache: a result any worker computed — for any
	// client, through any previous router process — answers here without
	// touching the fleet.
	if res, ok := r.front.Lookup(sub, key); ok {
		r.jobs.Register(cj, "", true)
		v := cj.skeletonView()
		v.State, v.Cached, v.Result, v.Node = serve.StateDone, true, res, r.cfg.NodeName
		v, _ = r.conclude(cj, v)
		serve.WriteJSON(w, http.StatusOK, v)
		return
	}

	// Cluster-wide admission. The shedding rule runs at the worse of the
	// router's own level and the best level among the digest's live
	// owners: if every owner would shed the job, it bounces here instead
	// of burning a forward round-trip to be told the same. Then the
	// in-flight bound.
	backlog, fleet := r.load()
	if ok, _ := r.front.Admit(w, sub, count, r.minOwnerLevel(sub.Spec.Graph), backlog, fleet); !ok {
		return
	}
	if !r.admit(cj) {
		r.reg.Counter(MetricJobsRejected).Inc()
		r.front.Refuse(w, sub, "", "rejected", http.StatusTooManyRequests, r.front.RetryAfter(r.load()),
			"cluster in-flight bound reached (%d jobs); retry later", r.cfg.MaxInflight)
		return
	}
	r.jobs.Register(cj, "", false)

	res := r.forward(cj, "")
	switch {
	case res.terminal:
		serve.WriteJSON(w, http.StatusOK, res.view)
		return
	case res.assigned:
		w.Header().Set("Location", "/v1/jobs/"+cj.id)
		serve.WriteJSON(w, http.StatusAccepted, res.view)
		return
	}
	r.settle(cj, false)
	switch res.status {
	case http.StatusTooManyRequests:
		r.reg.Counter(MetricJobsBounced).Inc()
		ra := res.retryAfter
		if ra == 0 {
			ra = r.front.RetryAfter(r.load())
		}
		r.front.Refuse(w, sub, cj.id, "bounced", res.status, ra, "every replica is shedding load; retry later")
	case http.StatusServiceUnavailable:
		r.reg.Counter(MetricJobsUnroutable).Inc()
		r.front.Refuse(w, sub, cj.id, "unroutable", res.status, 0, "no live worker can take the job; retry later")
	default:
		// A worker judged the spec itself bad (e.g. unknown digest nowhere
		// repairable). Relay its verdict and leave no job behind.
		r.front.Refuse(w, sub, cj.id, "refused", res.status, 0, "%s", res.errMsg)
	}
}

// fwdResult is one forward round's outcome.
type fwdResult struct {
	terminal   bool // finalized from a terminal worker answer
	assigned   bool // accepted by a worker; cj.node/workerID set
	view       serve.JobView
	status     int // when neither: the HTTP status to surface
	retryAfter int // seconds, on 429: the most any worker asked for
	errMsg     string
}

// forward walks the digest's live replicas (rendezvous order, rotated so
// a hot digest's load spreads) and places the job on the first worker
// that takes it. 429s note the backpressure and move on; 503s mark the
// member draining; connection errors mark it down; a 404 for the graph
// digest re-pushes the graph from the router mirror and retries the same
// worker once — the repair path for workers that restarted empty.
func (r *Router) forward(cj *cjob, exclude string) fwdResult {
	order := r.routeOrder(cj.Spec.Graph, exclude)
	if len(order) == 0 {
		return fwdResult{status: http.StatusServiceUnavailable, errMsg: "no live members"}
	}
	start := int(r.rotor.Add(1)) % len(order)
	saw429 := false
	maxRetryAfter := 0
	lastErr := "no live members"
	for i := 0; i < len(order); i++ {
		m := order[(start+i)%len(order)]
		span := cj.Root.StartChild("forward")
		span.Annotate("node", m.displayName())
		ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
		view, status, ra, err := r.submitTo(ctx, m, cj.Spec, cj.TL.TraceID())
		if status == http.StatusNotFound {
			// Worker lost (or never had) the graph; heal it from the mirror.
			if perr := r.pushGraph(ctx, m, cj.Spec.Graph); perr == nil {
				span.Annotate("graph_pushed", "true")
				view, status, ra, err = r.submitTo(ctx, m, cj.Spec, cj.TL.TraceID())
			}
		}
		cancel()
		span.Annotate("status", fmt.Sprintf("%d", status))
		span.Finish()
		switch {
		case status == http.StatusOK || status == http.StatusAccepted:
			r.reg.Counter(MetricJobsForwarded).Inc()
			res := fwdResult{assigned: true, view: cj.translate(view, m.displayName())}
			if view.State == serve.StateDone || view.State == serve.StateFailed {
				// Finalized before the assignment is published: the resolver
				// polls only assigned jobs, so it cannot finalize this one too.
				res = fwdResult{terminal: true, view: r.finalize(cj, m, view)}
			}
			cj.mu.Lock()
			cj.node, cj.workerID = m.base, view.ID
			cj.lastState = view.State
			cj.mu.Unlock()
			return res
		case status == http.StatusTooManyRequests:
			saw429 = true
			// Workers may answer in either RFC 9110 form; normalize to
			// whole seconds (rounded up) for the re-emitted header.
			if d, ok := serve.ParseRetryAfter(ra, time.Now()); ok {
				if n := int((d + time.Second - 1) / time.Second); n > maxRetryAfter {
					maxRetryAfter = n
				}
			}
			lastErr = errString(err)
		case status == http.StatusServiceUnavailable:
			m.draining.Store(true)
			lastErr = errString(err)
		case status == 0:
			r.markDown(m)
			lastErr = errString(err)
		default:
			// 4xx: the spec is wrong in a way the router could not see
			// (e.g. digest unknown and not mirrored). No other worker will
			// disagree — surface it.
			return fwdResult{status: status, errMsg: errString(err)}
		}
	}
	if saw429 {
		// Clamp to the front end's own honesty bound (the RetryAfter cap)
		// so one confused worker cannot park every client behind a giant
		// date-form header.
		return fwdResult{status: http.StatusTooManyRequests, retryAfter: min(maxRetryAfter, 30), errMsg: lastErr}
	}
	return fwdResult{status: http.StatusServiceUnavailable, errMsg: lastErr}
}

// ---- poll / redispatch -------------------------------------------------

func (r *Router) handleJobGet(w http.ResponseWriter, req *http.Request) {
	cj, ok := r.jobs.Get(req.PathValue("id"))
	if !ok {
		serve.WriteErr(w, http.StatusNotFound, "unknown job %q", req.PathValue("id"))
		return
	}
	serve.WriteJSON(w, http.StatusOK, r.resolve(cj))
}

// resolve returns the job's current view, consulting the owning worker.
// A dead or amnesiac worker (connection error, or 404 after a restart)
// triggers the redispatch path: the job is re-placed on another replica
// at most once — the engine is deterministic in the spec, so the re-run
// returns the byte-identical result the lost run would have.
func (r *Router) resolve(cj *cjob) serve.JobView {
	cj.resMu.Lock()
	defer cj.resMu.Unlock()
	if v := cj.terminalView(); v != nil {
		return *v
	}
	node, workerID := cj.assignment()
	m := r.memberByBase(node)
	if m == nil || workerID == "" {
		return cj.skeletonView()
	}
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	var view serve.JobView
	status, _, err := r.getJSON(ctx, m.base, "/v1/jobs/"+workerID, &view)
	cancel()
	switch {
	case status == http.StatusOK && (view.State == serve.StateDone || view.State == serve.StateFailed):
		return r.finalize(cj, m, view)
	case status == http.StatusOK:
		cj.mu.Lock()
		cj.lastState = view.State
		cj.mu.Unlock()
		return cj.translate(view, m.displayName())
	case status == 0 || status == http.StatusNotFound:
		if status == 0 {
			r.markDown(m)
		}
		r.logger.Warn("job lost with worker; redispatching",
			"job_id", cj.id, "member", m.displayName(), "status", status, "err", err)
		return r.redispatch(cj, m.base)
	default:
		// Transient worker hiccup: report what we know; the next poll
		// retries.
		return cj.skeletonView()
	}
}

// redispatch re-places a job whose worker died or forgot it — once. The
// resubmission routes around the failed node (and any node the prober
// has marked down), pushing the graph from the router mirror when the
// replacement lacks it. A second loss fails the job: losing two replicas
// inside one job's lifetime is an outage to report, not to paper over.
func (r *Router) redispatch(cj *cjob, failedNode string) serve.JobView {
	cj.mu.Lock()
	already := cj.redispatched
	cj.redispatched = true
	cj.mu.Unlock()
	if already {
		return r.finalizeFailed(cj, "job lost twice: worker crashed after redispatch")
	}
	r.reg.Counter(MetricJobsRedispatched).Inc()
	cj.Root.Annotate("redispatched_from", failedNode)
	res := r.forward(cj, failedNode)
	switch {
	case res.terminal:
		return *cj.terminalView()
	case res.assigned:
		return res.view
	default:
		return r.finalizeFailed(cj, fmt.Sprintf("redispatch found no worker: %s", res.errMsg))
	}
}

// finalize installs a worker's terminal view as the job's answer,
// feeding the shared cache, the router SLO guard, and the counters.
func (r *Router) finalize(cj *cjob, m *member, view serve.JobView) serve.JobView {
	cj.Root.Annotate("node", m.displayName())
	v, first := r.conclude(cj, cj.translate(view, m.displayName()))
	if !first {
		return v
	}
	latency := time.Since(cj.created)
	if v.State == serve.StateDone {
		r.reg.Counter(MetricJobsCompleted).Inc()
		// Complete results are reusable cluster-wide; partial
		// (deadline-shaped) ones and traced runs are not.
		if v.Result != nil && !v.Result.Partial && !cj.Spec.Trace {
			r.cache.Put(cj.key, v.Result)
		}
	} else {
		r.reg.Counter(MetricJobsFailed).Inc()
	}
	r.reg.Histogram(HistJobWallNs, serve.JobWallBuckets).
		Observe(float64(latency.Nanoseconds()))
	r.front.ObserveLatency(latency)
	r.logger.Info("cluster job terminal",
		"job_id", cj.id, "trace_id", cj.TL.TraceID(), "state", v.State,
		"node", m.displayName(), "latency_ms", latency.Milliseconds())
	return v
}

// finalizeFailed closes a job the cluster could not finish.
func (r *Router) finalizeFailed(cj *cjob, msg string) serve.JobView {
	v := cj.skeletonView()
	v.State = serve.StateFailed
	v.Error = msg
	cj.Root.Annotate("outcome", "lost")
	v, first := r.conclude(cj, v)
	if first {
		r.reg.Counter(MetricJobsFailed).Inc()
		r.logger.Warn("cluster job failed", "job_id", cj.id, "err", msg)
	}
	return v
}

// conclude makes v the job's terminal view unless another caller already
// did (first = false; that view is returned). The root span closes and
// the timeline is recorded before the view becomes visible to pollers,
// so a client that sees the job terminal can fetch /debug/jobs/{id} at
// once; then the in-flight slot is freed.
func (r *Router) conclude(cj *cjob, v serve.JobView) (_ serve.JobView, first bool) {
	if tv := cj.terminalView(); tv != nil {
		return *tv, false
	}
	cj.Root.Finish()
	v.LatencyNs = cj.Root.DurationNs()
	r.front.Publish(cj.TL, cj.id, v.State)
	cj.mu.Lock()
	cj.terminalV = &v
	cj.mu.Unlock()
	r.settle(cj, true)
	return v, true
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
