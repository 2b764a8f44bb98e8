package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"subgraph/internal/graph"
	"subgraph/internal/serve"
)

// Evolving graphs, cluster edition. A delta must be applied by a worker
// that holds the *parent* graph, so the router routes the request to the
// parent digest's owners (healing an amnesiac owner from the mirror, as
// the job path does). The applier rarely ran the parent's count jobs, so
// the router carries the parent's counts from its shared cache with the
// delta (DeltaRequest.ParentCounts), and the worker returns the child
// counts it derives from them (DeltaView.Counts). The child lives under a
// new digest with, in general, other owners, so after the worker answers,
// the router:
//
//   - applies the same delta to its mirrored parent (content addressing
//     guarantees the same child), recording lineage in the mirror;
//   - pushes the child to the child digest's owners, so the first job on
//     the successor finds it warm instead of eating a 404/push round-trip;
//   - caches the returned child counts, so a count job on the successor
//     answers at the router. An over-threshold delta returns none.
//
// The mirror and the worker must agree on the child, and the worker's
// cached parent counts on the carried ones. When they do not (the mirror
// rejects a delta the worker accepted or derives another child digest,
// or the worker refuses a carried count with a 409 whose reason is
// serve.DeltaCountMismatch), one side holds a corrupt graph or count. The
// router then answers 502, counts the divergence, and neither mirrors nor
// replicates the child nor caches its counts.

// handleGraphDelta routes POST /v1/graphs/{digest}/delta.
func (r *Router) handleGraphDelta(w http.ResponseWriter, req *http.Request) {
	if r.Draining() {
		serve.WriteErr(w, http.StatusServiceUnavailable, "cluster is draining; submit elsewhere")
		return
	}
	parentDigest := req.PathValue("digest")
	// Pin the mirrored parent across the round-trip: upload churn must not
	// evict the graph the mirror-side apply and the heal path both need.
	if !r.store.Pin(parentDigest) {
		serve.WriteErr(w, http.StatusNotFound,
			"unknown graph digest %q: the parent is not mirrored here; re-upload the base graph and resubmit the delta",
			parentDigest)
		return
	}
	defer r.store.Unpin(parentDigest)
	parent, _ := r.store.Get(parentDigest)

	// Decode here with a worker's rules — the router needs the edge lists
	// to update its mirror, and a malformed body should bounce here, not
	// burn a forward — then forward the request re-encoded.
	var dreq serve.DeltaRequest
	if !r.front.Decode(w, req, &dreq, "delta") {
		return
	}
	// Counts are carried from the shared cache only, never from a client.
	dreq.ParentCounts = r.cache.Counts(parentDigest)
	payload, _ := json.Marshal(dreq) // ints and strings always encode

	status, body, applier := r.forwardDelta(req.Context(), parentDigest, payload)
	if applier == nil {
		// No owner applied the delta: relay the verdict there is. Worker
		// validation is deterministic in (parent, delta), so a 4xx from one
		// owner is the cluster's answer, unless it refuses the router's
		// carried counts.
		var refusal struct{ Error, Reason string }
		switch {
		case body == nil:
			serve.WriteErr(w, http.StatusServiceUnavailable, "no live worker could apply the delta; retry later")
		case json.Unmarshal(body, &refusal) == nil && refusal.Reason == serve.DeltaCountMismatch:
			r.diverged(w, parentDigest, "a worker refused the router's carried counts: %s", refusal.Error)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write(body)
		}
		return
	}

	var dv serve.DeltaView
	if err := json.Unmarshal(body, &dv); err != nil {
		serve.WriteErr(w, http.StatusBadGateway, "decoding worker delta response: %v", err)
		return
	}

	if dv.Digest != parentDigest {
		// Real successor: mirror it, replicate it to its owners, seed the
		// shared cache with its counts.
		res, aerr := graph.ApplyDelta(parent, graph.EdgeDelta{Insert: dreq.Insert, Delete: dreq.Delete})
		if aerr != nil {
			r.diverged(w, parentDigest, "worker %s applied the delta but the router mirror rejects it: %v",
				applier.displayName(), aerr)
			return
		}
		if childDigest := res.Graph.Digest(); childDigest != dv.Digest {
			r.diverged(w, parentDigest, "worker %s derived child %s but the router mirror derives %s",
				applier.displayName(), dv.Digest, childDigest)
			return
		}
		childDigest, _ := r.store.PutChild(res.Graph, parentDigest)
		r.pushToOwners(req.Context(), childDigest, applier.base)
		for size, cres := range dv.Counts {
			key, err := serve.SpecCacheKey(serve.JobSpec{Graph: childDigest, Pattern: "clique:" + strconv.Itoa(size), Mode: serve.ModeCount})
			if err == nil && cres != nil && cres.Count != nil {
				r.cache.Put(key, cres)
				r.reg.Counter(MetricDeltaSeeded).Inc()
			}
		}
	}
	r.reg.Counter(MetricGraphDeltas).Inc()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// diverged answers 502 for a delta on which a worker and the router
// disagree, and counts it.
func (r *Router) diverged(w http.ResponseWriter, parentDigest, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	r.reg.Counter(MetricDeltaDivergence).Inc()
	r.logger.Error("delta divergence between worker and router", "parent", parentDigest, "detail", detail)
	serve.WriteErr(w, http.StatusBadGateway, "delta divergence: %s", detail)
}

// forwardDelta walks the parent digest's live owners (rotated) until one
// applies the delta. A 404 means the owner lost the parent — heal it from
// the mirror and retry the same owner once. Connection errors mark the
// member down; 503 marks it draining; any other status is a terminal
// verdict relayed to the client as-is. Returns the worker's status and
// raw response body, plus the member that applied it (nil when none did).
func (r *Router) forwardDelta(ctx context.Context, parentDigest string, payload []byte) (int, []byte, *member) {
	order := r.routeOrder(parentDigest, "")
	if len(order) == 0 {
		return 0, nil, nil
	}
	start := int(r.rotor.Add(1)) % len(order)
	for i := 0; i < len(order); i++ {
		m := order[(start+i)%len(order)]
		fctx, cancel := context.WithTimeout(ctx, forwardTimeout)
		status, body, err := r.postDelta(fctx, m, parentDigest, payload)
		if status == http.StatusNotFound {
			if perr := r.pushGraph(fctx, m, parentDigest); perr == nil {
				status, body, err = r.postDelta(fctx, m, parentDigest, payload)
			}
		}
		cancel()
		switch {
		case status == http.StatusCreated || status == http.StatusOK:
			return status, body, m
		case status == 0:
			r.markDown(m)
			r.logger.Warn("delta forward failed", "member", m.displayName(), "err", err)
		case status == http.StatusServiceUnavailable:
			m.draining.Store(true)
		default:
			return status, body, nil
		}
	}
	return 0, nil, nil
}

// postDelta sends the raw delta payload to one worker and returns the
// response verbatim — the router relays worker delta responses (success
// views and typed validation errors alike) byte for byte.
func (r *Router) postDelta(ctx context.Context, m *member, digest string, payload []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		m.base+"/v1/graphs/"+digest+"/delta", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.ForwardedByHeader, r.cfg.NodeName)
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, body, nil
}
