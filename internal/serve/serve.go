// Package serve is the detection-as-a-service layer: a long-running job
// daemon that accepts subgraph-detection jobs over HTTP/JSON, executes
// them on a bounded shared worker budget, and returns results with the
// full Stats / RunReport payloads the library produces.
//
// Building blocks:
//
//   - a content-addressed graph store (Store): uploads are deduped by
//     graph.Digest(), and jobs reference graphs by digest, so many small
//     queries against a shared topology upload it once and share one
//     *congest.Network (safe: concurrent Runs on one Network are part of
//     the simulator's documented contract, pinned by a -race test);
//   - an LRU result cache (Cache) keyed by (graph digest, pattern digest,
//     canonical options): the simulator is deterministic in that key, so
//     a repeated job is answered without re-running the engine, with
//     hit/miss counters exported through the obs metrics registry;
//   - admission control: a bounded queue and a fixed worker budget; a
//     full queue answers 429 with Retry-After, and a draining server
//     (SIGTERM) answers 503 while in-flight and queued jobs finish;
//   - per-job wall-clock deadlines reusing the congest engine's deadline
//     machinery, with a server-side cap so a hostile job cannot occupy a
//     worker forever.
//
// The HTTP surface is in handlers.go, the front end it shares with the
// cluster router in front.go, the job lifecycle in job.go, and the load
// harness in loadgen.go.
package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/obs"
)

// Metric names exported through the server's obs.Registry (the /metrics
// endpoint serves a snapshot).
const (
	MetricJobsSubmitted       = "serve_jobs_submitted_total"
	MetricJobsCompleted       = "serve_jobs_completed_total"
	MetricJobsFailed          = "serve_jobs_failed_total"
	MetricJobsRejected        = "serve_jobs_rejected_total"         // 429: queue full
	MetricJobsShed            = "serve_jobs_shed_total"             // 429: SLO load shedding
	MetricJobsCoalesced       = "serve_jobs_coalesced_total"        // identical in-flight spec reused
	MetricJobsDraining        = "serve_jobs_draining_total"         // 503: draining
	MetricJobsBatched         = "serve_jobs_batched_total"          // count jobs that rode another job's kernel pass
	MetricJobsPressureBatched = "serve_jobs_pressure_batched_total" // count jobs admitted (not shed) under SLO pressure
	MetricKernelRuns          = "serve_kernel_runs_total"           // kernel batch passes (≠ jobs served)
	MetricKernelJobs          = "serve_kernel_jobs_total"           // jobs answered by the kernel backend
	MetricKernelGraphMissing  = "serve_kernel_graph_missing_total"  // kernel passes failed: a pinned graph was gone from the store
	MetricCacheHits           = "serve_cache_hits_total"
	MetricCacheMisses         = "serve_cache_misses_total"
	MetricDetectRuns          = "serve_detect_runs_total" // engine executions (≠ hits)
	MetricGraphUploads        = "serve_graphs_uploaded_total"
	MetricGraphDedups         = "serve_graphs_deduped_total"
	MetricGraphDeltas         = "serve_graph_deltas_total"    // applied delta batches
	MetricDeltaForwarded      = "serve_delta_forwarded_total" // count-cache entries forwarded to children
	MetricDeltaFallback       = "serve_delta_fallback_total"  // incremental paths that fell back to full runs
	GaugeQueueDepth           = "serve_queue_depth"
	GaugeSLODegraded          = "serve_slo_degraded"          // 0 healthy / 1 degraded / 2 critical
	GaugeSLOLatencyP99        = "serve_slo_p99_latency_ns"    // rolling-window p99 job wall
	GaugeSLOQueueWaitP99      = "serve_slo_p99_queue_wait_ns" // rolling-window p99 queue wait
	HistJobWallNs             = "serve_job_wall_ns"
	HistQueueWaitNs           = "serve_queue_wait_ns"
	HistEngineRunNs           = "serve_engine_run_ns" // engine execution wall (cache misses)
	HistCacheHitNs            = "serve_cache_hit_ns"  // end-to-end latency of cache-hit answers
	HistKernelRunNs           = "serve_kernel_run_ns" // kernel batch pass wall (build + counts)

	// Scrape-time server gauges, refreshed on every /metrics render so the
	// Prometheus page carries the operational state the JSON view reports
	// in its envelope.
	GaugeWorkers      = "serve_workers"
	GaugeQueueCap     = "serve_queue_cap"
	GaugeGraphsStored = "serve_graphs_stored"
	GaugeCacheEntries = "serve_cache_entries"
	GaugeDraining     = "serve_draining"
	GaugeUptime       = "serve_uptime_seconds"
)

// JobWallBuckets are the job-latency histogram bounds (powers of four,
// 0.25ms .. ~4.4min).
var JobWallBuckets = []float64{
	250e3, 1e6, 4e6, 16e6, 64e6, 256e6, 1.024e9, 4.096e9, 16.384e9, 65.536e9, 262.144e9,
}

// Config tunes a Server. Zero fields take the documented defaults.
type Config struct {
	// Workers is the shared worker budget executing jobs (default 2).
	Workers int
	// QueueDepth bounds the admission queue; a submit finding it full is
	// answered 429 (default 64).
	QueueDepth int
	// CacheSize bounds the LRU result cache, in entries. The zero value
	// takes the default of 512 (so a zero Config serves with caching on);
	// any negative value disables caching. Callers that need "explicitly
	// disabled" semantics for an operator-supplied 0 — like subgraphd's
	// -cache flag — must translate 0 to a negative value themselves,
	// since a struct zero value cannot distinguish "unset" from "0".
	CacheSize int
	// MaxGraphs bounds the content-addressed store, in graphs; the least
	// recently used graph is evicted when full (default 128).
	MaxGraphs int
	// MaxUploadBytes bounds an uploaded edge list's size (default 32 MiB).
	MaxUploadBytes int64
	// GraphLimits bounds what the upload parser accepts (defaults:
	// 2,000,000 vertices, 8,000,000 edges).
	GraphLimits graph.Limits
	// MaxJobDeadline caps — and, when a job specifies none, sets — the
	// per-job wall-clock deadline (default 60s). Every job therefore runs
	// under the congest engine's deadline machinery.
	MaxJobDeadline time.Duration
	// MaxRetainedJobs bounds the finished-job history kept for polling
	// (default 4096; oldest terminal jobs are evicted first).
	MaxRetainedJobs int
	// MaxTraceBytes bounds a per-job JSONL trace buffer (default 4 MiB;
	// overflowing traces are truncated and flagged).
	MaxTraceBytes int
	// Registry receives the server's metrics; a fresh one is created when
	// nil (callers embedding the server in a larger process can share one).
	Registry *obs.Registry
	// SLO configures the p99-driven load shedder (see slo.go). The zero
	// value disables shedding.
	SLO SLOConfig
	// KernelWorkers sizes the word-parallel kernel pool answering
	// count-mode jobs (default: GOMAXPROCS capped at 8 — the kernel
	// package's own default).
	KernelWorkers int
	// OnJobDone, when non-nil, is called once per detect-mode job that
	// completes with a full (non-partial, non-cached) result — the
	// canary-replay tap. Count-mode jobs are not tapped: the canary
	// replays CONGEST executions, and kernel answers are pinned by the
	// diffcheck kernel oracles instead. Called from a worker goroutine
	// after the job's root span closes and before its timeline is recorded
	// and the job turns terminal, so the tap's span lands in the recorded
	// timeline; implementations must not block.
	OnJobDone func(JobDone)
	// FlightRecorderSize bounds the debug flight recorder: the last N
	// completed job timelines retrievable from GET /debug/jobs (default
	// 256; negative disables recording — /debug/jobs then serves empty).
	FlightRecorderSize int
	// Logger receives the server's structured log stream (job outcomes,
	// drain lifecycle, SLO transitions) with job_id/trace_id/digest attrs.
	// Nil discards — tests and embedders stay quiet by default.
	Logger *slog.Logger
	// NodeName identifies this node in a cluster: it is reported by
	// /healthz, and when set the Prometheus page labels every sample
	// `node="<name>"` so a fleet's scrapes aggregate without collisions.
	// Empty (the single-node default) leaves the exposition unlabeled and
	// byte-identical to earlier versions.
	NodeName string
	// DeltaChurnThreshold gates incremental maintenance on the delta
	// endpoint: deltas whose churn ratio (changes / parent edges) exceeds
	// it fall back to full recomputation (serve_delta_fallback_total).
	// Zero takes the default 0.05; negative disables incremental paths
	// entirely.
	DeltaChurnThreshold float64
}

// JobDone describes a completed job to the Config.OnJobDone tap. Network
// is the shared simulation network (safe for concurrent re-runs); Options
// are the effective options the job ran with (deadline capped). TraceID
// carries the job's trace identity so downstream consumers (the canary)
// log and alarm attributably.
type JobDone struct {
	ID      string
	TraceID string
	Digest  string
	Pattern string
	Network *subgraph.Network
	Options subgraph.OptionsSpec
	Result  *JobResult
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.CacheSize < 0 {
		// Normalize every "disabled" spelling to the NewCache sentinel.
		c.CacheSize = -1
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 128
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 32 << 20
	}
	if c.GraphLimits.MaxVertices <= 0 {
		c.GraphLimits.MaxVertices = 2_000_000
	}
	if c.GraphLimits.MaxEdges <= 0 {
		c.GraphLimits.MaxEdges = 8_000_000
	}
	if c.MaxJobDeadline <= 0 {
		c.MaxJobDeadline = 60 * time.Second
	}
	if c.MaxRetainedJobs <= 0 {
		c.MaxRetainedJobs = 4096
	}
	if c.MaxTraceBytes <= 0 {
		c.MaxTraceBytes = 4 << 20
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.FlightRecorderSize == 0 {
		c.FlightRecorderSize = 256
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.DeltaChurnThreshold == 0 {
		c.DeltaChurnThreshold = 0.05
	}
	if c.DeltaChurnThreshold < 0 {
		c.DeltaChurnThreshold = -1
	}
	return c
}

// Server is the job daemon. Create with New, attach Handler() to an HTTP
// listener, and call Start to launch the worker budget.
type Server struct {
	cfg    Config
	front  *FrontEnd
	reg    *obs.Registry
	store  *Store
	cache  *Cache
	slo    *sloGuard // the front end's guard, fed by the workers
	start  time.Time
	logger *slog.Logger
	kernel *kernel.Kernel // word-parallel backend for count-mode jobs
	jobs   *JobTable[*job]

	mu    sync.Mutex
	batch *batcher // count-job batching index (guarded by mu)
	queue chan *job

	wg sync.WaitGroup

	// holdJobs, when non-nil, makes every worker block before executing a
	// job until a value is received — the deterministic saturation /
	// drain-ordering hook used by tests.
	holdJobs chan struct{}
}

// New builds a Server (workers not yet started).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		reg:    cfg.Registry,
		store:  NewStore(cfg.MaxGraphs),
		cache:  NewCache(cfg.CacheSize),
		start:  time.Now(),
		logger: cfg.Logger,
		jobs:   NewJobTable("j", cfg.MaxRetainedJobs, func(j *job, id string) { j.id = id }),
		queue:  make(chan *job, cfg.QueueDepth),
		kernel: kernel.New(cfg.KernelWorkers),
		batch:  newBatcher(),
	}
	s.front = NewFrontEnd("worker", "job", cfg, s.store, s.cache, FrontMetrics{
		Submitted: MetricJobsSubmitted, Draining: MetricJobsDraining, Shed: MetricJobsShed,
		CacheHits: MetricCacheHits, CacheMisses: MetricCacheMisses, Uploads: MetricGraphUploads,
	})
	s.slo = s.front.slo
	// Pre-create the counters and histograms so /metrics carries the full
	// schema before the first job.
	for _, name := range []string{
		MetricJobsSubmitted, MetricJobsCompleted, MetricJobsFailed,
		MetricJobsRejected, MetricJobsShed, MetricJobsCoalesced,
		MetricJobsDraining, MetricJobsBatched, MetricJobsPressureBatched,
		MetricCacheHits, MetricCacheMisses, MetricDetectRuns,
		MetricKernelRuns, MetricKernelJobs, MetricKernelGraphMissing,
		MetricGraphUploads, MetricGraphDedups,
		MetricGraphDeltas, MetricDeltaForwarded, MetricDeltaFallback,
	} {
		s.reg.Counter(name)
	}
	s.reg.Gauge(GaugeQueueDepth)
	for _, name := range []string{
		GaugeWorkers, GaugeQueueCap, GaugeGraphsStored,
		GaugeCacheEntries, GaugeDraining, GaugeUptime,
	} {
		s.reg.Gauge(name)
	}
	s.reg.Histogram(HistJobWallNs, JobWallBuckets)
	s.reg.Histogram(HistQueueWaitNs, JobWallBuckets)
	s.reg.Histogram(HistEngineRunNs, JobWallBuckets)
	s.reg.Histogram(HistCacheHitNs, JobWallBuckets)
	s.reg.Histogram(HistKernelRunNs, JobWallBuckets)
	return s
}

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start launches the worker budget.
func (s *Server) Start() {
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				if j.count && !s.batchTryClaim(j) {
					// An earlier kernel pass batched this job and already
					// answered it; its queue-wait was observed there.
					s.reg.Gauge(GaugeQueueDepth).Set(float64(len(s.queue)))
					continue
				}
				wait := time.Since(j.enqueuedAt)
				j.queueSpan.Finish()
				s.reg.Histogram(HistQueueWaitNs, JobWallBuckets).
					Observe(float64(wait.Nanoseconds()))
				s.slo.observeQueueWait(wait)
				if s.holdJobs != nil {
					<-s.holdJobs
				}
				if j.count {
					s.runKernelBatch(j)
				} else {
					s.runJob(j)
				}
				s.reg.Gauge(GaugeQueueDepth).Set(float64(len(s.queue)))
			}
		}()
	}
}

// BeginDrain flips the server into draining mode: new submissions are
// rejected with 503 while queued and in-flight jobs keep executing.
// Idempotent.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.front.BeginDrain() {
		return
	}
	// Safe: every sender holds s.mu around its non-blocking send.
	close(s.queue)
	s.logger.Info("drain begun", "queued", len(s.queue))
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.front.Draining() }

// Drain begins draining and blocks until every admitted job has finished
// or ctx is done. Counts of jobs completed since startup are returned for
// the operator log line.
func (s *Server) Drain(ctx context.Context) (completed int64, err error) {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Workers are gone; the kernel pool can park permanently too.
		s.kernel.Close()
		completed = s.reg.Counter(MetricJobsCompleted).Value()
		s.logger.Info("drain complete", "jobs_completed", completed)
		return completed, nil
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain interrupted: %w", context.Cause(ctx))
		s.logger.Warn("drain interrupted", "err", err)
		return s.reg.Counter(MetricJobsCompleted).Value(), err
	}
}

// enqueue admits j to the bounded queue. It returns (queued, draining):
// draining=true means the server is shutting down (503), queued=false
// with draining=false means the queue is saturated (429).
func (s *Server) enqueue(j *job) (queued, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.front.Draining() {
		return false, true
	}
	j.enqueuedAt = time.Now()
	select {
	case s.queue <- j:
		s.reg.Gauge(GaugeQueueDepth).Set(float64(len(s.queue)))
		return true, false
	default:
		return false, false
	}
}
