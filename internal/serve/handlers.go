package serve

import (
	"net/http"
	"time"

	"subgraph/internal/obs"
)

// MetricsView is the wire response of /metrics: server-level gauges plus
// the full obs registry snapshot.
type MetricsView struct {
	UptimeMs     int64                `json:"uptime_ms"`
	Workers      int                  `json:"workers"`
	QueueDepth   int                  `json:"queue_depth"`
	QueueCap     int                  `json:"queue_cap"`
	Draining     bool                 `json:"draining"`
	Graphs       int                  `json:"graphs"`
	CacheEntries int                  `json:"cache_entries"`
	Metrics      obs.RegistrySnapshot `json:"metrics"`
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.front.Route(mux)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/graphs", s.handleGraphUpload)
	mux.HandleFunc("POST /v1/graphs/{digest}/delta", s.handleGraphDelta)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	return mux
}

// refreshServerGauges pushes the envelope state (workers, queue, stores,
// uptime) into the registry so a Prometheus scrape carries what the JSON
// view reports in its envelope fields.
func (s *Server) refreshServerGauges() {
	s.reg.Gauge(GaugeWorkers).Set(float64(s.cfg.Workers))
	s.reg.Gauge(GaugeQueueCap).Set(float64(s.cfg.QueueDepth))
	s.reg.Gauge(GaugeQueueDepth).Set(float64(len(s.queue)))
	s.reg.Gauge(GaugeGraphsStored).Set(float64(s.store.Len()))
	s.reg.Gauge(GaugeCacheEntries).Set(float64(s.cache.Len()))
	var draining float64
	if s.Draining() {
		draining = 1
	}
	s.reg.Gauge(GaugeDraining).Set(draining)
	s.reg.Gauge(GaugeUptime).Set(time.Since(s.start).Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prom" {
		s.refreshServerGauges()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var labels map[string]string
		if s.cfg.NodeName != "" {
			labels = map[string]string{"node": s.cfg.NodeName}
		}
		_ = obs.WritePrometheusLabeled(w, s.reg.Snapshot(), labels)
		return
	}
	s.refreshServerGauges()
	writeJSON(w, http.StatusOK, MetricsView{
		UptimeMs:     time.Since(s.start).Milliseconds(),
		Workers:      s.cfg.Workers,
		QueueDepth:   len(s.queue),
		QueueCap:     s.cfg.QueueDepth,
		Draining:     s.Draining(),
		Graphs:       s.store.Len(),
		CacheEntries: s.cache.Len(),
		Metrics:      s.reg.Snapshot(),
	})
}

func (s *Server) handleGraphUpload(w http.ResponseWriter, r *http.Request) {
	digest, deduped, ok := s.front.Upload(w, r)
	if !ok {
		return
	}
	if deduped {
		s.reg.Counter(MetricGraphDedups).Inc()
	}
	s.front.ReplyUpload(w, digest, deduped)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	sub, ok := s.front.Intake(w, r)
	if !ok {
		return
	}
	j, aerr := s.prepare(sub.Spec)
	if aerr != nil {
		writeErr(w, aerr.status, "%s", aerr.msg)
		return
	}
	j.tl, j.rootSpan = sub.TL, sub.Root
	if res, ok := s.front.Lookup(sub, j.key); ok {
		j.cached = true
		s.jobs.Register(j, "", true)
		sub.Root.Finish()
		s.reg.Histogram(HistCacheHitNs, JobWallBuckets).Observe(float64(sub.Root.DurationNs()))
		s.finish(j, StateDone, res, "", 0)
		writeJSON(w, http.StatusOK, j.view())
		return
	}
	admitted, pressured := s.front.Admit(w, sub, j.count, 0, len(s.queue)+1, s.cfg.Workers)
	if !admitted {
		s.releaseJobPin(j)
		return
	}
	if pressured {
		s.reg.Counter(MetricJobsPressureBatched).Inc()
	}

	// Register before enqueue: a worker may pick the job up (and even
	// finish it) the instant it lands in the queue, and it must already be
	// pollable by ID at that point. Rejected jobs are removed. An identical
	// non-traced spec already queued or running coalesces: the submission
	// is answered with that job instead of executing twice, which is what
	// makes client retries idempotent-safe.
	key := j.key
	if j.trace {
		key = ""
	}
	if existing, coalesced := s.jobs.Register(j, key, false); coalesced {
		s.reg.Counter(MetricJobsCoalesced).Inc()
		sub.Root.Annotate("coalesced_onto", existing.id)
		sub.Root.Finish()
		s.front.Publish(sub.TL, "", "coalesced")
		s.releaseJobPin(j)
		w.Header().Set("Location", "/v1/jobs/"+existing.id)
		writeJSON(w, http.StatusAccepted, existing.view())
		return
	}
	// The queue-wait span opens here and is finished by the worker that
	// dequeues the job (serve.go); the job is not yet visible to workers,
	// so the field write is unsynchronized-safe.
	j.queueSpan = sub.Root.StartChild("queue_wait")
	queued, draining := s.enqueue(j)
	if queued && j.count {
		// Index the admitted count job for digest-level batching. Safe
		// after enqueue: if a worker already claimed it, add is a no-op.
		s.batchAdd(j)
	}
	switch {
	case draining:
		s.jobs.Remove(j.id)
		s.releaseJobPin(j)
		s.front.refuseDraining(w)
		return
	case !queued:
		s.jobs.Remove(j.id)
		s.releaseJobPin(j)
		s.reg.Counter(MetricJobsRejected).Inc()
		s.front.Refuse(w, sub, j.id, "rejected", http.StatusTooManyRequests,
			s.front.RetryAfter(len(s.queue)+1, s.cfg.Workers),
			"queue saturated (%d jobs); retry later", s.cfg.QueueDepth)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	wait, ok := ParseWait(w, r)
	if !ok {
		return
	}
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	Await(r.Context(), j.finished, wait)
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	trace := j.traceBytes
	trunc := j.traceTrunc
	state := j.state
	j.mu.Unlock()
	if len(trace) == 0 {
		writeErr(w, http.StatusNotFound, "job %s has no trace (state %s; submit with \"trace\": true)",
			j.id, state)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if trunc {
		w.Header().Set("X-Trace-Truncated", "true")
	}
	_, _ = w.Write(trace)
}
