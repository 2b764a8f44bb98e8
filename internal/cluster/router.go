package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"subgraph/internal/graph"
	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// Metric names exported through the router's obs.Registry. The cluster_
// prefix keeps them disjoint from the serve_ worker counters, so the
// aggregated /metrics view can sum worker pages into one snapshot
// without collisions.
const (
	MetricJobsSubmitted    = "cluster_jobs_submitted_total"
	MetricJobsForwarded    = "cluster_jobs_forwarded_total" // accepted by a worker
	MetricJobsCompleted    = "cluster_jobs_completed_total" // terminal done
	MetricJobsFailed       = "cluster_jobs_failed_total"    // terminal failed
	MetricJobsRedispatched = "cluster_jobs_redispatched_total"
	MetricJobsShed         = "cluster_jobs_shed_total"       // 429: SLO admission (router or owner levels)
	MetricJobsRejected     = "cluster_jobs_rejected_total"   // 429: cluster in-flight bound
	MetricJobsBounced      = "cluster_jobs_bounced_total"    // 429: every owner answered 429
	MetricJobsUnroutable   = "cluster_jobs_unroutable_total" // 503: no live worker to take the job
	MetricJobsDraining     = "cluster_jobs_draining_total"   // 503: router draining
	MetricCacheHits        = "cluster_cache_hits_total"
	MetricCacheMisses      = "cluster_cache_misses_total"
	MetricGraphUploads     = "cluster_graphs_uploaded_total"
	MetricGraphPushes      = "cluster_graph_pushes_total"     // router→worker replications
	MetricGraphDeltas      = "cluster_graph_deltas_total"     // deltas applied through the router
	MetricDeltaSeeded      = "cluster_delta_seeded_total"     // child counts returned by a delta's applier, cached
	MetricDeltaDivergence  = "cluster_delta_divergence_total" // 502: a worker and the router disagree on a delta
	MetricProbes           = "cluster_probes_total"
	GaugeMembers           = "cluster_members"
	GaugeMembersUp         = "cluster_members_up"
	GaugeInflight          = "cluster_inflight"
	GaugeReplication       = "cluster_replication"
	HistJobWallNs          = "cluster_job_wall_ns" // submit→terminal, router-observed
)

// RoleRouter is the HealthView.Role a router reports (workers report
// serve's "worker").
const RoleRouter = "router"

// Router settings no deployment has needed to vary. The upload bounds
// are the worker's defaults (serve.Config).
const (
	// maxRetainedJobs bounds the job history kept for reads.
	maxRetainedJobs = 8192
	// probeInterval is the health-probe cadence.
	probeInterval = 250 * time.Millisecond
	// probeFailures consecutive probe failures mark a member down;
	// forward and wait connection errors mark it down at once.
	probeFailures = 2
	// forwardTimeout bounds one forwarded submit, wait, push or delta.
	forwardTimeout = 15 * time.Second
	// followWait is how long a job's waiter asks its worker to park one
	// GET (the worker clamps it to its own cap); well under
	// forwardTimeout, so an answer always beats the request's timeout.
	followWait = 5 * time.Second
)

// Config tunes a Router. Zero fields take the documented defaults.
type Config struct {
	// Members are the worker base URLs (e.g. "http://10.0.0.7:8080").
	// The list is static for the router's lifetime; liveness within it is
	// probed continuously. At least one member is required.
	Members []string
	// Replication is how many members own each graph digest (default 2,
	// clamped to len(Members)). Jobs rotate across a digest's owners, and
	// graphs are pushed to every owner, so a hot graph's load spreads and
	// any single owner crash leaves a warm replica.
	Replication int
	// NodeName identifies the router in /healthz, prom labels, and
	// forwarded-job annotations (default "router").
	NodeName string
	// MaxInflight bounds jobs admitted cluster-wide but not yet terminal;
	// submissions beyond it bounce 429 + Retry-After (default 256).
	MaxInflight int
	// CacheSize bounds the router-held shared result cache, in entries
	// (default 2048; negative disables). Keys are serve.SpecCacheKey, so
	// a result computed by any worker hits for every client of the
	// cluster.
	CacheSize int
	// MaxGraphs bounds the router's graph mirror (default 128). The
	// mirror is what re-pushes graphs to workers that restart empty.
	MaxGraphs int
	// SLO configures the router's own p99 guard over end-to-end job
	// latency; zero disables router-level shedding. Worker-level SLO
	// degradation is honored regardless: scraped serve_slo_degraded
	// levels shed a submission when every owner of its digest would.
	SLO serve.SLOConfig
	// Registry receives router metrics; fresh when nil.
	Registry *obs.Registry
	// FlightRecorderSize bounds the router's /debug/jobs recorder
	// (default 256; negative disables).
	FlightRecorderSize int
	// Logger receives the router's structured log stream; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > len(c.Members) {
		c.Replication = len(c.Members)
	}
	if c.NodeName == "" {
		c.NodeName = "router"
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.CacheSize == 0 {
		c.CacheSize = 2048
	}
	if c.CacheSize < 0 {
		c.CacheSize = -1
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 128
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.FlightRecorderSize == 0 {
		c.FlightRecorderSize = 256
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger
	}
	return c
}

// member is the router's view of one worker node.
type member struct {
	base string

	up       atomic.Bool
	draining atomic.Bool
	sloLevel atomic.Int32 // scraped serve_slo_degraded
	fails    atomic.Int32 // consecutive probe failures
	name     atomic.Value // string: /healthz node name, once learned
}

// displayName is the worker's self-reported node name, falling back to
// its base URL until the first successful probe.
func (m *member) displayName() string {
	if v, ok := m.name.Load().(string); ok && v != "" {
		return v
	}
	return m.base
}

// Router is the cluster front door: it owns admission, routing, the
// shared result cache, and job identity; workers own execution. Create
// with New, attach Handler() to a listener, and call Start to launch
// the health prober.
type Router struct {
	cfg     Config
	front   *serve.FrontEnd
	reg     *obs.Registry
	store   *serve.Store // graph mirror: the replica of last resort
	cache   *serve.Cache // cluster-shared result cache
	jobs    *serve.JobTable[*cjob]
	logger  *slog.Logger
	start   time.Time
	members []*member
	hc      *http.Client

	rotor atomic.Uint64 // spreads a hot digest's jobs across its replicas

	mu       sync.Mutex
	inflight int

	stopProbe chan struct{}
	probeDone chan struct{}
}

// New builds a Router over a static member list (prober not started).
func New(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: at least one member is required")
	}
	seen := make(map[string]bool, len(cfg.Members))
	for _, b := range cfg.Members {
		if b == "" || seen[b] {
			return nil, fmt.Errorf("cluster: member list has empty or duplicate entry %q", b)
		}
		seen[b] = true
	}
	cfg = cfg.withDefaults()
	r := &Router{
		cfg:    cfg,
		reg:    cfg.Registry,
		store:  serve.NewStore(cfg.MaxGraphs),
		cache:  serve.NewCache(cfg.CacheSize),
		jobs:   serve.NewJobTable("c", maxRetainedJobs, func(cj *cjob, id string) { cj.id = id }),
		logger: cfg.Logger,
		start:  time.Now(),
		hc:     &http.Client{},
	}
	for _, b := range cfg.Members {
		m := &member{base: strings.TrimRight(b, "/")}
		// Optimistic until proven dead: a cold router must be able to
		// forward before its first probe round lands.
		m.up.Store(true)
		r.members = append(r.members, m)
	}
	for _, name := range []string{
		MetricJobsSubmitted, MetricJobsForwarded, MetricJobsCompleted,
		MetricJobsFailed, MetricJobsRedispatched, MetricJobsShed,
		MetricJobsRejected, MetricJobsBounced, MetricJobsUnroutable,
		MetricJobsDraining, MetricCacheHits, MetricCacheMisses,
		MetricGraphUploads, MetricGraphPushes, MetricGraphDeltas,
		MetricDeltaSeeded, MetricDeltaDivergence, MetricProbes,
	} {
		r.reg.Counter(name)
	}
	r.reg.Gauge(GaugeMembers).Set(float64(len(r.members)))
	r.reg.Gauge(GaugeMembersUp).Set(float64(len(r.members)))
	r.reg.Gauge(GaugeInflight)
	r.reg.Gauge(GaugeReplication).Set(float64(cfg.Replication))
	r.reg.Histogram(HistJobWallNs, serve.JobWallBuckets)
	r.front = serve.NewFrontEnd(RoleRouter, "cluster_job", serve.Config{
		NodeName:           cfg.NodeName,
		Registry:           cfg.Registry,
		SLO:                cfg.SLO,
		FlightRecorderSize: cfg.FlightRecorderSize,
		Logger:             cfg.Logger,
	}, r.store, r.cache, serve.FrontMetrics{
		Submitted: MetricJobsSubmitted, Draining: MetricJobsDraining, Shed: MetricJobsShed,
		CacheHits: MetricCacheHits, CacheMisses: MetricCacheMisses, Uploads: MetricGraphUploads,
	})
	return r, nil
}

// Registry exposes the router's metrics registry.
func (r *Router) Registry() *obs.Registry { return r.reg }

// Start launches the background health prober (idempotent-unsafe; call
// once). Stop with Stop or Drain.
func (r *Router) Start() {
	r.stopProbe = make(chan struct{})
	r.probeDone = make(chan struct{})
	go func() {
		defer close(r.probeDone)
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-r.stopProbe:
				return
			case <-t.C:
				r.ProbeOnce(context.Background())
			}
		}
	}()
}

// Stop halts the prober (safe when Start was never called).
func (r *Router) Stop() {
	if r.stopProbe == nil {
		return
	}
	select {
	case <-r.stopProbe:
	default:
		close(r.stopProbe)
	}
	<-r.probeDone
}

// ProbeOnce runs one health round over all members: /healthz decides
// up/draining, and up members' /metrics JSON refreshes the scraped SLO
// level feeding cluster admission. Exported so tests and the drain loop
// can force a round instead of waiting out the ticker.
func (r *Router) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, m := range r.members {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			r.probeMember(ctx, m)
		}(m)
	}
	wg.Wait()
	r.reg.Counter(MetricProbes).Inc()
	r.reg.Gauge(GaugeMembersUp).Set(float64(len(r.upMembers(""))))
}

func (r *Router) probeMember(ctx context.Context, m *member) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	var hv serve.HealthView
	status, _, err := r.getJSON(ctx, m.base, "/healthz", &hv)
	switch {
	case err != nil && status == 0:
		if m.fails.Add(1) >= probeFailures && m.up.Load() {
			m.up.Store(false)
			r.logger.Warn("member down", "member", m.displayName(), "err", err)
		}
		return
	case status == http.StatusOK:
		m.fails.Store(0)
		if !m.up.Load() {
			r.logger.Info("member up", "member", m.base, "node", hv.Node)
		}
		m.up.Store(true)
		m.draining.Store(false)
	case status == http.StatusServiceUnavailable && hv.Draining:
		// Draining is not dead: its admitted jobs still resolve, it just
		// takes no new ones.
		m.fails.Store(0)
		m.up.Store(true)
		m.draining.Store(true)
	default:
		if m.fails.Add(1) >= probeFailures {
			m.up.Store(false)
		}
		return
	}
	if hv.Node != "" {
		m.name.Store(hv.Node)
	}
	// SLO level ride-along: the worker exports its degradation level as a
	// gauge; the router applies the worker's own shedding policy to it at
	// admission (dispatch.go).
	var mv serve.MetricsView
	if st, _, err := r.getJSON(ctx, m.base, "/metrics", &mv); err == nil && st == http.StatusOK {
		m.sloLevel.Store(int32(mv.Metrics.Gauges[serve.GaugeSLODegraded]))
	}
}

// markDown records a connection-refused member immediately (the prober
// will revive it once it answers again).
func (r *Router) markDown(m *member) {
	if m.up.Swap(false) {
		r.logger.Warn("member down (connection error)", "member", m.displayName())
		r.reg.Gauge(GaugeMembersUp).Set(float64(len(r.upMembers(""))))
	}
}

// upMembers returns live, non-draining members, excluding the named base.
func (r *Router) upMembers(exclude string) []*member {
	out := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		if m.base != exclude && m.up.Load() && !m.draining.Load() {
			out = append(out, m)
		}
	}
	return out
}

func (r *Router) memberByBase(base string) *member {
	for _, m := range r.members {
		if m.base == base {
			return m
		}
	}
	return nil
}

// routeOrder returns the members to try for a digest, owners first
// (rendezvous order), skipping dead/draining nodes and the excluded
// base. When no owner is live the remaining up members are returned
// instead: ownership is a locality preference, not a correctness
// constraint — any worker can compute any job once the graph is pushed.
func (r *Router) routeOrder(digest, exclude string) []*member {
	bases := make([]string, len(r.members))
	for i, m := range r.members {
		bases[i] = m.base
	}
	owners := Owners(bases, digest, r.cfg.Replication)
	isOwner := make(map[string]bool, len(owners))
	out := make([]*member, 0, len(owners))
	for _, b := range owners {
		isOwner[b] = true
		if m := r.memberByBase(b); m != nil && b != exclude && m.up.Load() && !m.draining.Load() {
			out = append(out, m)
		}
	}
	if len(out) > 0 {
		return out
	}
	fallback := r.upMembers(exclude)
	out = out[:0]
	for _, m := range fallback {
		if !isOwner[m.base] {
			out = append(out, m)
		}
	}
	return out
}

// minOwnerLevel is the lowest scraped SLO level among a digest's live
// owners: if the least-loaded replica would admit a priority, the
// cluster admits it; only when every owner sheds does the router bounce
// at the front door (dispatch.go).
func (r *Router) minOwnerLevel(digest string) int {
	min := -1
	for _, m := range r.routeOrder(digest, "") {
		lvl := int(m.sloLevel.Load())
		if min < 0 || lvl < min {
			min = lvl
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

// ---- raw HTTP plumbing -------------------------------------------------
//
// The router speaks to workers directly rather than through serve.Client:
// it must propagate trace identity verbatim, read Retry-After off 429s,
// and make its own failover decisions per hop — exactly the parts a
// retrying client abstracts away.

// getJSON GETs base+path and decodes the body into out (also for error
// statuses carrying {"error": ...} — the message is returned as err with
// the status). status 0 means no usable HTTP response.
func (r *Router) getJSON(ctx context.Context, base, path string, out any) (int, http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return r.doJSON(req, out)
}

func (r *Router) doJSON(req *http.Request, out any) (int, http.Header, error) {
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		// Decode what we can anyway: a draining /healthz 503 still carries
		// the HealthView the prober needs.
		if out != nil {
			_ = json.Unmarshal(body, out)
		}
		return resp.StatusCode, resp.Header, fmt.Errorf("%s", msg)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, resp.Header, fmt.Errorf("decoding %s: %w", req.URL.Path, err)
		}
	}
	return resp.StatusCode, resp.Header, nil
}

// submitTo forwards a digest-form spec to one worker, tagging the hop
// with the router's identity and the job's trace ID. retryAfter carries
// the worker's Retry-After header value on 429.
func (r *Router) submitTo(ctx context.Context, m *member, spec serve.JobSpec, traceID string) (view serve.JobView, status int, retryAfter string, err error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return view, 0, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.base+"/v1/jobs", bytes.NewReader(payload))
	if err != nil {
		return view, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.TraceIDHeader, traceID)
	req.Header.Set(serve.ForwardedByHeader, r.cfg.NodeName)
	status, hdr, err := r.doJSON(req, &view)
	if hdr != nil {
		retryAfter = hdr.Get("Retry-After")
	}
	return view, status, retryAfter, err
}

// pushGraph replicates a mirrored graph to a worker (the 404-repair path
// for workers that restarted empty, and the upload fan-out).
func (r *Router) pushGraph(ctx context.Context, m *member, digest string) error {
	g, ok := r.store.Get(digest)
	if !ok {
		return fmt.Errorf("digest %s not in router mirror", digest)
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.base+"/v1/graphs", &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "text/plain; charset=utf-8")
	status, _, err := r.doJSON(req, nil)
	if err != nil {
		return err
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return fmt.Errorf("push to %s: status %d", m.displayName(), status)
	}
	r.reg.Counter(MetricGraphPushes).Inc()
	return nil
}

// pushToOwners pushes a mirrored graph to its digest's owners, skipping
// the excluded base, while the caller waits: a job submitted right after
// an upload or delta must not eat a 404/push round-trip per owner. Push
// failures are tolerated; the job forward path re-pushes lazily.
func (r *Router) pushToOwners(ctx context.Context, digest, exclude string) {
	var wg sync.WaitGroup
	for _, m := range r.routeOrder(digest, exclude) {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, forwardTimeout)
			defer cancel()
			if err := r.pushGraph(pctx, m, digest); err != nil {
				r.logger.Warn("graph push failed", "member", m.displayName(), "digest", digest, "err", err)
			}
		}(m)
	}
	wg.Wait()
}

// clusterMetrics aggregates the fleet into one serve.MetricsView: the
// router's own registry plus the sum of every live worker's serve_*
// counters, with the router's shared-cache traffic folded into the
// serve_cache_* totals. A load driver (or dashboard) pointed at the router
// therefore reads cluster-wide hit rates and shed counts with the same
// keys it uses against a single node.
func (r *Router) clusterMetrics(ctx context.Context) serve.MetricsView {
	snap := r.reg.Snapshot()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
		up int
	)
	for _, m := range r.members {
		if !m.up.Load() {
			continue
		}
		up++
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			var mv serve.MetricsView
			if st, _, err := r.getJSON(cctx, m.base, "/metrics", &mv); err != nil || st != http.StatusOK {
				return
			}
			mu.Lock()
			for k, v := range mv.Metrics.Counters {
				snap.Counters[k] += v
			}
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	// Fold router-level outcomes into the serve_* names the single-node
	// tooling reads: a router cache hit is a cluster cache hit, a router
	// shed is a cluster shed. Router cache *misses* are not folded — they
	// continue to a worker and land as a worker hit or miss there.
	snap.Counters[serve.MetricCacheHits] += snap.Counters[MetricCacheHits]
	snap.Counters[serve.MetricJobsShed] += snap.Counters[MetricJobsShed]
	snap.Counters[serve.MetricJobsRejected] += snap.Counters[MetricJobsRejected] + snap.Counters[MetricJobsBounced]
	r.mu.Lock()
	inflight := r.inflight
	r.mu.Unlock()
	return serve.MetricsView{
		UptimeMs:     time.Since(r.start).Milliseconds(),
		Workers:      up,
		QueueDepth:   inflight,
		QueueCap:     r.cfg.MaxInflight,
		Draining:     r.Draining(),
		Graphs:       r.store.Len(),
		CacheEntries: r.cache.Len(),
		Metrics:      snap,
	}
}
