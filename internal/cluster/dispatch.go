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
	// done closes when the job settles. A job answered from the shared
	// cache is terminal when registered and keeps the shared settled
	// channel; admit gives every other job its own.
	done chan struct{}
	// redispatched is owned by the job's waiter (follow).
	redispatched bool

	mu       sync.Mutex
	node     string         // base URL of the worker holding the job
	workerID string         // the worker's job ID for it
	admitted bool           // counted in Router.inflight (false for cache hits)
	last     *serve.JobView // the latest view a worker gave, translated, or the answer
}

// settled is the done channel of every job registered terminal: one
// closed channel, because the router retains thousands of jobs.
var settled = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// view is the job's record: its answer once terminal, else the latest
// view its worker gave, else a skeleton built from the spec.
func (c *cjob) view() serve.JobView {
	c.mu.Lock()
	last := c.last
	c.mu.Unlock()
	if last != nil {
		return *last
	}
	return c.skeletonView()
}

// record makes v the job's latest view.
func (c *cjob) record(v serve.JobView) {
	c.mu.Lock()
	c.last = &v
	c.mu.Unlock()
}

func (c *cjob) assignment() (node, workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node, c.workerID
}

// skeletonView is the job's view before any worker state is known.
func (c *cjob) skeletonView() serve.JobView {
	return serve.JobView{
		ID:       c.id,
		State:    serve.StateQueued,
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
	cj.done = make(chan struct{})
	r.reg.Gauge(GaugeInflight).Set(float64(r.inflight))
	return true
}

// settle releases the job's in-flight slot and closes its done channel
// (idempotent per job). A terminal job (keep) stays readable; one the
// cluster could not place is dropped, so its refusal leaves no residue.
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
		close(cj.done)
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

// Drain begins draining and waits until every admitted job has settled
// or ctx expires. Each job's waiter keeps following its worker, so a
// worker crash mid-drain is still detected and the job re-dispatched with
// no client reading it.
func (r *Router) Drain(ctx context.Context) error {
	r.BeginDrain()
	r.Stop()
	for pending := r.jobs.Pending(); len(pending) > 0; pending = r.jobs.Pending() {
		for _, cj := range pending {
			select {
			case <-cj.done:
			case <-ctx.Done():
				return fmt.Errorf("cluster: drain interrupted: %w", context.Cause(ctx))
			}
		}
	}
	r.logger.Info("router drain complete",
		"jobs_completed", r.reg.Counter(MetricJobsCompleted).Value())
	return nil
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
	cj := &cjob{Submission: sub, key: key, created: time.Now(), done: settled}

	// Cluster-shared cache: a result any worker computed — for any
	// client, through any previous router process — answers here without
	// touching the fleet.
	if res, ok := r.front.Lookup(sub, key); ok {
		r.jobs.Register(cj, "", true)
		v := cj.skeletonView()
		v.State, v.Cached, v.Result, v.Node = serve.StateDone, true, res, r.cfg.NodeName
		serve.WriteJSON(w, http.StatusOK, r.conclude(cj, v))
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
		go r.follow(cj)
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
			cj.mu.Lock()
			cj.node, cj.workerID = m.base, view.ID
			cj.mu.Unlock()
			if terminal(view) {
				return fwdResult{terminal: true, view: r.finalize(cj, m, view)}
			}
			v := cj.translate(view, m.displayName())
			cj.record(v)
			return fwdResult{assigned: true, view: v}
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

// ---- read / follow / redispatch ----------------------------------------

// handleJobGet answers from the job's record, never the worker. With
// wait, it first parks until the job settles or the wait runs out.
func (r *Router) handleJobGet(w http.ResponseWriter, req *http.Request) {
	wait, ok := serve.ParseWait(w, req)
	if !ok {
		return
	}
	cj, ok := r.jobs.Get(req.PathValue("id"))
	if !ok {
		serve.WriteErr(w, http.StatusNotFound, "unknown job %q", req.PathValue("id"))
		return
	}
	serve.Await(req.Context(), cj.done, wait)
	serve.WriteJSON(w, http.StatusOK, cj.view())
}

// follow is an admitted job's waiter. It holds one forwarded wait at a
// time on the job's worker until the job settles: a terminal answer
// finalizes the job and an expired wait records its state. A dropped
// connection or a 404 means the worker died or restarted without the
// job, so the job is re-placed (at most once) and the new assignment
// followed. Any other status pauses for probeInterval before asking
// again, so a confused worker is not asked in a tight loop.
func (r *Router) follow(cj *cjob) {
	for {
		node, workerID := cj.assignment()
		m := r.memberByBase(node)
		ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
		var view serve.JobView
		status, _, err := r.getJSON(ctx, m.base, "/v1/jobs/"+workerID+"?wait="+followWait.String(), &view)
		cancel()
		switch {
		case status == http.StatusOK && terminal(view):
			r.finalize(cj, m, view)
			return
		case status == http.StatusOK:
			cj.record(cj.translate(view, m.displayName()))
		case status == 0 || status == http.StatusNotFound:
			if status == 0 {
				r.markDown(m)
			}
			r.logger.Warn("job lost with worker; redispatching",
				"job_id", cj.id, "member", m.displayName(), "status", status, "err", err)
			if !r.redispatch(cj, m.base) {
				return
			}
		default:
			time.Sleep(probeInterval)
		}
	}
}

// redispatch re-places a job whose worker died or forgot it — once — and
// reports whether it now runs on another worker. The engine is
// deterministic in the spec, so the re-run returns the byte-identical
// result the lost run would have. The resubmission routes around the
// failed node (and any node the prober has marked down), pushing the
// graph from the router mirror when the replacement lacks it. A second
// loss fails the job: losing two replicas inside one job's lifetime is
// an outage to report, not to paper over.
func (r *Router) redispatch(cj *cjob, failedNode string) (placed bool) {
	if cj.redispatched {
		r.finalizeFailed(cj, "job lost twice: worker crashed after redispatch")
		return false
	}
	cj.redispatched = true
	r.reg.Counter(MetricJobsRedispatched).Inc()
	cj.Root.Annotate("redispatched_from", failedNode)
	res := r.forward(cj, failedNode)
	if !res.assigned && !res.terminal {
		r.finalizeFailed(cj, fmt.Sprintf("redispatch found no worker: %s", res.errMsg))
	}
	return res.assigned
}

func terminal(v serve.JobView) bool {
	return v.State == serve.StateDone || v.State == serve.StateFailed
}

// finalize installs a worker's terminal view as the job's answer,
// feeding the shared cache, the router SLO guard, and the counters.
func (r *Router) finalize(cj *cjob, m *member, view serve.JobView) serve.JobView {
	cj.Root.Annotate("node", m.displayName())
	v := cj.translate(view, m.displayName())
	// Complete results are reusable cluster-wide; partial (deadline-shaped)
	// ones and traced runs are not. The result is cached before the job
	// reads as terminal, so a client that sees it done finds it cached (a
	// delta right after its parent's count job carries that count).
	if v.State == serve.StateDone && v.Result != nil && !v.Result.Partial && !cj.Spec.Trace {
		r.cache.Put(cj.key, v.Result)
	}
	v = r.conclude(cj, v)
	latency := time.Since(cj.created)
	if v.State == serve.StateDone {
		r.reg.Counter(MetricJobsCompleted).Inc()
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
func (r *Router) finalizeFailed(cj *cjob, msg string) {
	v := cj.skeletonView()
	v.State = serve.StateFailed
	v.Error = msg
	cj.Root.Annotate("outcome", "lost")
	r.conclude(cj, v)
	r.reg.Counter(MetricJobsFailed).Inc()
	r.logger.Warn("cluster job failed", "job_id", cj.id, "err", msg)
}

// conclude makes v the job's terminal view. Each job concludes once: on
// its submit path, or on its waiter. The root span closes and the
// timeline is recorded before the view becomes visible to readers, so a
// client that sees the job terminal can fetch /debug/jobs/{id} at once;
// then the job settles, freeing its in-flight slot and waking waiters.
func (r *Router) conclude(cj *cjob, v serve.JobView) serve.JobView {
	cj.Root.Finish()
	v.LatencyNs = cj.Root.DurationNs()
	r.front.Publish(cj.TL, cj.id, v.State)
	cj.record(v)
	r.settle(cj, true)
	return v
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
