package cluster

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"

	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// Handler returns the router's HTTP surface. It mirrors a worker's
// surface path for path, so serve.Client — and every tool built on it
// (loadgen, the CLI, diffcheck) — points at a router unchanged and gets
// cluster semantics.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	r.front.Route(mux)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("POST /v1/graphs", r.handleGraphUpload)
	mux.HandleFunc("POST /v1/graphs/{digest}/delta", r.handleGraphDelta)
	mux.HandleFunc("POST /v1/jobs", r.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", r.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", r.handleJobTrace)
	mux.HandleFunc("GET /debug/cluster", r.handleDebugCluster)
	return mux
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.URL.Query().Get("format") == "prom" {
		// The prom page is router-local (scrapers collect workers
		// directly, each labeled with its own node name); the JSON view
		// below is the aggregated one.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheusLabeled(w, r.reg.Snapshot(),
			map[string]string{"node": r.cfg.NodeName})
		return
	}
	serve.WriteJSON(w, http.StatusOK, r.clusterMetrics(req.Context()))
}

// handleGraphUpload stores the graph in the router mirror and fans it
// out to the digest's owners while the client waits — a job submitted
// right after its upload must not eat a 404/push round-trip per owner.
// Push failures are tolerated: the forward path re-pushes lazily.
func (r *Router) handleGraphUpload(w http.ResponseWriter, req *http.Request) {
	digest, deduped, ok := r.front.Upload(w, req)
	if !ok {
		return
	}
	var wg sync.WaitGroup
	for _, m := range r.routeOrder(digest, "") {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(req.Context(), forwardTimeout)
			defer cancel()
			if err := r.pushGraph(ctx, m, digest); err != nil {
				r.logger.Warn("graph push failed",
					"member", m.displayName(), "digest", digest, "err", err)
			}
		}(m)
	}
	wg.Wait()
	r.front.ReplyUpload(w, digest, deduped)
}

// handleJobTrace proxies a traced job's JSONL stream from the worker
// that executed it.
func (r *Router) handleJobTrace(w http.ResponseWriter, req *http.Request) {
	cj, ok := r.jobs.Get(req.PathValue("id"))
	if !ok {
		serve.WriteErr(w, http.StatusNotFound, "unknown job %q", req.PathValue("id"))
		return
	}
	node, workerID := cj.assignment()
	if node == "" || workerID == "" {
		serve.WriteErr(w, http.StatusNotFound, "job %s has no trace (submit with \"trace\": true)", cj.id)
		return
	}
	ctx, cancel := context.WithTimeout(req.Context(), forwardTimeout)
	defer cancel()
	up, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/jobs/"+workerID+"/trace", nil)
	if err != nil {
		serve.WriteErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	resp, err := r.hc.Do(up)
	if err != nil {
		serve.WriteErr(w, http.StatusBadGateway, "trace unreachable: worker %s is gone", node)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if resp.Header.Get("X-Trace-Truncated") == "true" {
		w.Header().Set("X-Trace-Truncated", "true")
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// MemberView is the wire description of one member in /debug/cluster.
type MemberView struct {
	Base     string `json:"base"`
	Name     string `json:"name,omitempty"`
	Up       bool   `json:"up"`
	Draining bool   `json:"draining,omitempty"`
	SLOLevel string `json:"slo_level"`
}

// ClusterView is the wire response of GET /debug/cluster.
type ClusterView struct {
	Router      string       `json:"router"`
	Replication int          `json:"replication"`
	Inflight    int          `json:"inflight"`
	UptimeMs    int64        `json:"uptime_ms"`
	Draining    bool         `json:"draining,omitempty"`
	Members     []MemberView `json:"members"`
}

func (r *Router) handleDebugCluster(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	inflight := r.inflight
	r.mu.Unlock()
	v := ClusterView{
		Router:      r.cfg.NodeName,
		Replication: r.cfg.Replication,
		Inflight:    inflight,
		UptimeMs:    time.Since(r.start).Milliseconds(),
		Draining:    r.Draining(),
	}
	for _, m := range r.members {
		name := ""
		if n, ok := m.name.Load().(string); ok {
			name = n
		}
		v.Members = append(v.Members, MemberView{
			Base:     m.base,
			Name:     name,
			Up:       m.up.Load(),
			Draining: m.draining.Load(),
			SLOLevel: serve.SLOLevelName(int(m.sloLevel.Load())),
		})
	}
	serve.WriteJSON(w, http.StatusOK, v)
}
