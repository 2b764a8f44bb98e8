package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"subgraph/internal/obs"
)

// Client is a typed client for the subgraphd HTTP API, shared by the
// selfcheck harness, the load generator, and the tests. The zero value
// (plus Base) retries transient failures under DefaultRetryPolicy; set
// Retry to NoRetry() to assert on raw statuses.
//
// A Client must not be copied after first use (it owns retry statistics
// and a jitter source).
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// Endpoints, when non-empty, makes the client multi-endpoint: the
	// listed server roots (typically a cluster's routers) are equivalent
	// targets. The client is sticky — it keeps using one endpoint until
	// an attempt gets no response (status 0) or a 502/503/504, then
	// rotates to the next for the retry. 429 does not rotate: cluster
	// backpressure is cluster-wide, so the Retry-After is honored in
	// place and surfaced unchanged. Base, when also set, is tried first.
	Endpoints []string
	// HTTPClient defaults to a client with a 30s request timeout.
	HTTPClient *http.Client
	// Retry tunes retries; nil means DefaultRetryPolicy.
	Retry *RetryPolicy
	// Flight, when non-nil, receives a client-side timeline per job
	// submission: one span per HTTP attempt, annotated with its status —
	// the client's half of the trace whose server half /debug/jobs serves
	// under the same trace ID.
	Flight *obs.FlightRecorder

	// Stats counts attempts and retry outcomes.
	Stats ClientStats

	mu      sync.Mutex
	rng     *rand.Rand // jitter source, seeded from the policy
	epIdx   int        // sticky index into endpoints()
	epStats map[string]*EndpointStats
}

// EndpointStats attributes a multi-endpoint client's traffic to one
// endpoint. Counters are snapshots (EndpointStatsView copies them under
// the client mutex).
type EndpointStats struct {
	// Attempts counts HTTP attempts sent to this endpoint.
	Attempts int64 `json:"attempts"`
	// Failures counts attempts with no response (status 0) or a 5xx.
	Failures int64 `json:"failures"`
	// Rotations counts failures that moved the client off this endpoint.
	Rotations int64 `json:"rotations"`
}

// EndpointStatsView returns a copy of the per-endpoint attribution,
// keyed by endpoint root. Endpoints never attempted are absent.
func (c *Client) EndpointStatsView() map[string]EndpointStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]EndpointStats, len(c.epStats))
	for base, s := range c.epStats {
		out[base] = *s
	}
	return out
}

// endpoints returns the target list: Base first when set, then
// Endpoints. A plain single-Base client yields exactly {Base}.
func (c *Client) endpoints() []string {
	if len(c.Endpoints) == 0 {
		return []string{c.Base}
	}
	if c.Base != "" {
		return append([]string{c.Base}, c.Endpoints...)
	}
	return c.Endpoints
}

// currentBase returns the endpoint the next attempt targets.
func (c *Client) currentBase() string {
	eps := c.endpoints()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epIdx >= len(eps) {
		c.epIdx = 0
	}
	return eps[c.epIdx]
}

// noteEndpoint records one attempt's outcome against its endpoint and,
// when the attempt failed transiently with alternatives available,
// rotates the sticky index so the next attempt lands elsewhere.
func (c *Client) noteEndpoint(base string, failed bool) {
	eps := c.endpoints()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epStats == nil {
		c.epStats = make(map[string]*EndpointStats)
	}
	st := c.epStats[base]
	if st == nil {
		st = &EndpointStats{}
		c.epStats[base] = st
	}
	st.Attempts++
	if !failed {
		return
	}
	st.Failures++
	if len(eps) > 1 && c.epIdx < len(eps) && eps[c.epIdx] == base {
		st.Rotations++
		c.epIdx = (c.epIdx + 1) % len(eps)
	}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c *Client) policy() RetryPolicy {
	if c.Retry != nil {
		return c.Retry.withDefaults()
	}
	return DefaultRetryPolicy()
}

// jitter returns a uniform [0,1) variate from the client's seeded source.
func (c *Client) jitterRand(seed int64) *rand.Rand {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(seed))
	}
	return c.rng
}

// do issues a request under the client's retry policy and decodes the
// JSON response into out (when non-nil), returning the HTTP status.
func (c *Client) do(method, path, contentType string, body []byte, out any) (int, error) {
	return c.doPolicy(c.policy(), method, path, contentType, body, out)
}

// doPolicy is do with an explicit policy. Connection errors and
// retryable statuses (429/502/503/504) are re-attempted with jittered
// exponential backoff, honoring Retry-After up to the policy cap. The
// body is replayed from the byte slice on every attempt, and job
// submissions are idempotent server-side (content-addressed coalescing +
// result cache), so retrying is safe for every endpoint.
func (c *Client) doPolicy(p RetryPolicy, method, path, contentType string, body []byte, out any) (int, error) {
	return c.doPolicyTraced(p, method, path, contentType, body, out, "", nil)
}

// doPolicyTraced is doPolicy carrying a trace identity: traceID rides on
// every attempt as X-Trace-Id, and each attempt becomes a child span of
// root (nil root disables span recording at zero cost).
func (c *Client) doPolicyTraced(p RetryPolicy, method, path, contentType string, body []byte, out any, traceID string, root *obs.Span) (int, error) {
	var (
		status     int
		err        error
		retryAfter time.Duration
		err429     error
		saw429     bool
	)
	for attempt := 1; ; attempt++ {
		c.Stats.Attempts.Add(1)
		base := c.currentBase()
		span := root.StartChild("attempt_" + strconv.Itoa(attempt))
		span.Annotate("endpoint", base)
		status, retryAfter, err = c.attempt(base, p, method, path, contentType, body, out, traceID)
		span.Annotate("status", strconv.Itoa(status))
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.Finish()
		// Rotate off a dead or erroring endpoint (no response / 502 / 503 /
		// 504) so the retry tries the next one; 429 backpressure stays put.
		c.noteEndpoint(base, status == 0 || status >= 500)
		if status == http.StatusTooManyRequests {
			saw429, err429 = true, err
		}
		retryable := status == 0 || retryableStatus(status)
		if !retryable {
			if attempt > 1 && err == nil && status < 300 {
				c.Stats.Recovered.Add(1)
			}
			return status, err
		}
		if attempt >= p.MaxAttempts {
			if saw429 {
				// The server applied backpressure at least once in this
				// chain; that — not whichever transient fault happened to
				// land last — is the meaningful terminal answer.
				c.Stats.Exhausted429.Add(1)
				if status != http.StatusTooManyRequests {
					return http.StatusTooManyRequests, err429
				}
				return status, err
			}
			c.Stats.ExhaustedTransient.Add(1)
			return status, err
		}
		c.Stats.Retries.Add(1)
		rng := c.jitterRand(p.Seed)
		c.mu.Lock()
		d := p.backoff(attempt, retryAfter, rng)
		c.mu.Unlock()
		p.Sleep(d)
	}
}

// attempt issues one HTTP attempt against base. status 0 means the
// request never got an HTTP response (connection error / timeout).
func (c *Client) attempt(base string, p RetryPolicy, method, path, contentType string, body []byte, out any, traceID string) (status int, retryAfter time.Duration, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), p.PerAttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if traceID != "" {
		req.Header.Set(TraceIDHeader, traceID)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	// Both RFC 9110 forms (delay-seconds and HTTP-date) are honored;
	// backoff() clamps the result to the policy's MaxRetryAfter.
	if ra, ok := ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
		retryAfter = ra
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, retryAfter, err
	}
	if out != nil {
		// Error responses still decode (best effort): /healthz answers 503
		// with a meaningful view while draining.
		if err := json.Unmarshal(data, out); err != nil && resp.StatusCode < 300 {
			return resp.StatusCode, retryAfter, fmt.Errorf("decoding %s %s response: %w", method, path, err)
		}
	}
	if resp.StatusCode >= 300 && out != nil {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, retryAfter,
				fmt.Errorf("%s %s: %s (HTTP %d)", method, path, e.Error, resp.StatusCode)
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// Health fetches /healthz. It never retries: a health probe's job is to
// report the current state (a draining server's 503 is the answer, not a
// failure).
func (c *Client) Health() (HealthView, int, error) {
	var v HealthView
	status, err := c.doPolicy(*NoRetry(), "GET", "/healthz", "", nil, &v)
	return v, status, err
}

// Metrics fetches /metrics.
func (c *Client) Metrics() (MetricsView, error) {
	var v MetricsView
	_, err := c.do("GET", "/metrics", "", nil, &v)
	return v, err
}

// UploadGraph uploads an edge-list document.
func (c *Client) UploadGraph(edgeList string) (UploadView, error) {
	var v UploadView
	status, err := c.do("POST", "/v1/graphs", "text/plain", []byte(edgeList), &v)
	if err == nil && status >= 300 {
		err = fmt.Errorf("upload rejected with HTTP %d", status)
	}
	return v, err
}

// ApplyDelta applies an edge-delta batch to a stored graph, returning
// the successor graph's view. The HTTP status is returned alongside so
// callers can distinguish 201 (new child), 200 (deduped), 404 (parent
// evicted: re-upload and resubmit), and the 4xx validation family.
func (c *Client) ApplyDelta(digest string, req DeltaRequest) (DeltaView, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return DeltaView{}, 0, err
	}
	var v DeltaView
	status, err := c.do("POST", "/v1/graphs/"+digest+"/delta", "application/json", body, &v)
	return v, status, err
}

// SubmitJob submits a job spec; the HTTP status is returned alongside the
// view so callers can distinguish 200 (cache hit), 202 (queued), 429
// (saturated), and 503 (draining).
//
// Every submission gets a fresh trace ID, sent as X-Trace-Id on each
// attempt, so server-side work any attempt triggered is attributable to
// this call chain; the final ID is surfaced through Stats.LastTraceID and
// — when Flight is set — a per-attempt client timeline is recorded
// under it.
func (c *Client) SubmitJob(spec JobSpec) (JobView, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return JobView{}, 0, err
	}
	traceID := obs.NewTraceID()
	c.Stats.setLastTraceID(traceID)
	var (
		tl   *obs.Timeline
		root *obs.Span
	)
	if c.Flight != nil {
		tl = obs.NewTimeline(traceID)
		root = tl.StartSpan("client_submit")
	}
	var v JobView
	status, err := c.doPolicyTraced(c.policy(), "POST", "/v1/jobs", "application/json", body, &v, traceID, root)
	if tl != nil {
		root.Annotate("final_status", strconv.Itoa(status))
		root.Finish()
		view := tl.View()
		view.JobID = v.ID
		view.Outcome = "submitted"
		if v.ID == "" {
			view.Outcome = "bounced"
		}
		c.Flight.Record(view)
	}
	return v, status, err
}

// DebugJobs fetches the server's flight recorder (GET /debug/jobs).
func (c *Client) DebugJobs() (DebugJobsView, error) {
	var v DebugJobsView
	status, err := c.do("GET", "/debug/jobs", "", nil, &v)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("debug jobs: HTTP %d", status)
	}
	return v, err
}

// DebugJob fetches one recorded timeline by job or trace ID.
func (c *Client) DebugJob(id string) (*obs.TimelineView, error) {
	var v obs.TimelineView
	status, err := c.do("GET", "/debug/jobs/"+id, "", nil, &v)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("debug job %s: HTTP %d", id, status)
	}
	if err != nil {
		return nil, err
	}
	return &v, nil
}

// MetricsProm fetches the Prometheus text exposition page.
func (c *Client) MetricsProm() ([]byte, error) {
	resp, err := c.http().Get(c.currentBase() + "/metrics?format=prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics?format=prom: HTTP %d", resp.StatusCode)
	}
	return data, nil
}

// Job polls one job.
func (c *Client) Job(id string) (JobView, error) {
	var v JobView
	status, err := c.do("GET", "/v1/jobs/"+id, "", nil, &v)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("job %s: HTTP %d", id, status)
	}
	return v, err
}

// WaitJob waits until the job reaches a terminal state or the timeout
// elapses. Each request parks on the server (GET /v1/jobs/{id}?wait=)
// until the job ends or the wait runs out, so the finish is seen in the
// round trip it happens in. A wait never asks for more than half the
// time one attempt may take, so the server answers before the attempt's
// own timeouts fire. Transient failures (connection errors, 5xx, 429) are
// retried under the client's retry policy, which paces them, and do not
// abort the wait — the job keeps running server-side regardless. A
// definitive client error (e.g. 404 for an unknown id) returns early, and
// so does any failure under a single-attempt policy (NoRetry), whose
// callers want the raw answer.
func (c *Client) WaitJob(id string, timeout time.Duration) (JobView, error) {
	deadline := time.Now().Add(timeout)
	p := c.policy()
	budget := p.PerAttemptTimeout
	if t := c.http().Timeout; t > 0 && t < budget {
		budget = t
	}
	for {
		var v JobView
		wait := max(min(time.Until(deadline), budget/2), 0)
		status, err := c.doPolicy(p, "GET", "/v1/jobs/"+id+"?wait="+wait.String(), "", nil, &v)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("job %s: HTTP %d", id, status)
		}
		switch {
		case err == nil && (v.State == StateDone || v.State == StateFailed):
			return v, nil
		case err != nil && (p.MaxAttempts == 1 ||
			status >= 400 && status < 500 && status != http.StatusTooManyRequests):
			return v, err
		}
		if !time.Now().Before(deadline) {
			if err != nil {
				return v, fmt.Errorf("job %s: waiting kept failing for %v: %w", id, timeout, err)
			}
			return v, fmt.Errorf("job %s still %s after %v", id, v.State, timeout)
		}
	}
}

// Trace downloads a job's JSONL trace.
func (c *Client) Trace(id string) ([]byte, error) {
	resp, err := c.http().Get(c.currentBase() + "/v1/jobs/" + id + "/trace")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace %s: HTTP %d", id, resp.StatusCode)
	}
	return data, nil
}
