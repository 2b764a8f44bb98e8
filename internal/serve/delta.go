package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
)

// Evolving graphs: POST /v1/graphs/{digest}/delta applies a batch of
// edge changes to a stored graph, producing (and storing) the successor
// graph under its own content digest, with parent→child lineage recorded
// in the Store.
//
// Incremental result maintenance rides on the same request. When the
// delta's churn ratio is at or under Config.DeltaChurnThreshold:
//
//   - every count-mode cache entry of the parent is forwarded to the
//     child: the child's count is derived incrementally (CountDelta over
//     the touched set) and cached under the child's key, byte-identical
//     to what a from-scratch count job on the child would produce;
//   - "watch" patterns in the request are answered incrementally —
//     clique-family patterns by incremental counting, longer cycles by
//     a dirty-region re-check around the changed edges.
//
// Over-threshold deltas (and cycle cases the dirty-region rules cannot
// decide) fall back to full kernel/engine-equivalent recomputation and
// bump serve_delta_fallback_total.
//
// Detect-mode cache entries are never forwarded: a detect result's Stats
// document a real CONGEST execution on that exact graph (byte-identity
// with library runs is pinned by the diffcheck oracles), so the child
// must earn those by running.

// DeltaRequest is the wire form of a delta submission.
type DeltaRequest struct {
	Insert Edges `json:"insert,omitempty"`
	Delete Edges `json:"delete,omitempty"`
	// Watch lists patterns to (re-)evaluate on the successor graph:
	// clique-family patterns (triangle, cycle:3, clique:2..8) are counted,
	// longer cycles (cycle:4..) are detected. Evaluation is incremental
	// when the churn ratio permits.
	Watch []string `json:"watch,omitempty"`
}

// Edges is a delta's edge list on the wire. Each edge is exactly two JSON
// integers: encoding/json alone would zero-fill a short array and drop
// the extra elements of a long one, so [[5]] would insert {5, 0}, an
// edge the client never named.
type Edges [][2]int

// UnmarshalJSON decodes an edge list, refusing any edge that is not a
// pair of integers. An empty list decodes to nil.
func (e *Edges) UnmarshalJSON(b []byte) error {
	var raw [][]*int
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	var out Edges
	for i, p := range raw {
		if len(p) != 2 || p[0] == nil || p[1] == nil {
			return fmt.Errorf("edge %d is not a pair of integers", i)
		}
		out = append(out, [2]int{*p[0], *p[1]})
	}
	*e = out
	return nil
}

// WatchResult is one watched pattern's evaluation on the child graph.
type WatchResult struct {
	Pattern  string `json:"pattern"`
	Detected bool   `json:"detected"`
	// Count is set for clique-family patterns (exact copy count).
	Count *int64 `json:"count,omitempty"`
	// Incremental reports whether the answer was derived from the parent
	// state (false = full recomputation fallback).
	Incremental bool `json:"incremental"`
}

// DeltaView is the wire response of a delta application.
type DeltaView struct {
	GraphInfo
	// Deduped marks a successor whose content was already stored (this
	// includes the empty delta, whose successor is the parent itself).
	Deduped bool `json:"deduped,omitempty"`
	// Inserted/Deleted count the applied edge changes; TouchedVertices
	// the endpoints those changes cover.
	Inserted        int `json:"inserted"`
	Deleted         int `json:"deleted"`
	TouchedVertices int `json:"touched_vertices"`
	// ChurnRatio is changes / parent edge count; Incremental reports
	// whether it was at or under the server's threshold (the gate for
	// cache forwarding and incremental watch evaluation).
	ChurnRatio  float64 `json:"churn_ratio"`
	Incremental bool    `json:"incremental"`
	// Forwarded counts parent count-cache entries re-derived for the
	// child.
	Forwarded int `json:"forwarded_cache_entries"`
	// Watch carries the watched patterns' evaluations, in request order.
	Watch []WatchResult `json:"watch,omitempty"`
}

// deltaStatus maps a validation failure to its HTTP status: state
// conflicts (the delta disagrees with the stored edge set) are 409 so
// clients distinguish "refresh your view of the graph" from malformed
// input.
func deltaStatus(reason string) int {
	switch reason {
	case graph.DeltaDeleteMissing, graph.DeltaInsertExisting:
		return http.StatusConflict
	case graph.DeltaTooManyEdges:
		return http.StatusRequestEntityTooLarge
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleGraphDelta(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, drainingMsg)
		return
	}
	parentDigest := r.PathValue("digest")
	// Pin the parent for the duration: a concurrent churn of uploads must
	// not evict it between validation and application.
	if !s.store.Pin(parentDigest) {
		writeErr(w, http.StatusNotFound,
			"unknown graph digest %q: the parent was evicted or never uploaded; re-upload the base graph and resubmit the delta",
			parentDigest)
		return
	}
	defer s.store.Unpin(parentDigest)
	parent, _ := s.store.Get(parentDigest)

	var req DeltaRequest
	if !s.front.Decode(w, r, &req, "delta") {
		return
	}
	d := graph.EdgeDelta{Insert: req.Insert, Delete: req.Delete}

	// Bound the successor before building it.
	if projected := parent.M() - len(req.Delete) + len(req.Insert); projected > s.cfg.GraphLimits.MaxEdges {
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
			"error":  fmt.Sprintf("delta would grow the graph to ~%d edges, over the %d edge bound", projected, s.cfg.GraphLimits.MaxEdges),
			"reason": graph.DeltaTooManyEdges,
		})
		return
	}
	res, err := graph.ApplyDelta(parent, d)
	if err != nil {
		var de *graph.DeltaError
		if errors.As(err, &de) {
			writeJSON(w, deltaStatus(de.Reason), map[string]any{
				"error":  de.Error(),
				"reason": de.Reason,
				"op":     de.Op,
				"edge":   de.Edge,
			})
			return
		}
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.reg.Counter(MetricGraphDeltas).Inc()

	child := res.Graph
	churn := d.ChurnRatio(parent)
	incremental := churn <= s.cfg.DeltaChurnThreshold

	// An empty delta, or one whose changes cancel out, leads back to the
	// parent: no new entry, no lineage (a graph is not its own child), no
	// forwarding, and the response dedupes.
	childDigest, deduped := parentDigest, true
	if !d.Empty() {
		childDigest, deduped = s.store.PutChild(child, parentDigest)
	}

	view := DeltaView{
		Deduped:         deduped,
		Inserted:        res.Inserted,
		Deleted:         res.Deleted,
		TouchedVertices: len(res.Touched),
		ChurnRatio:      churn,
		Incremental:     incremental,
	}
	if info, ok := s.store.Info(childDigest); ok {
		view.GraphInfo = info
	} else {
		// A tiny store can evict the successor the moment it lands (the
		// pinned parent is immune, the child is not). The application
		// itself still happened; describe the successor from this request.
		view.GraphInfo = GraphInfo{Digest: childDigest, N: child.N(), M: child.M()}
		if childDigest != parentDigest {
			view.GraphInfo.Parent = parentDigest
		}
	}

	// Lazy adjacency builds, shared by forwarding and watch evaluation.
	// Resolved through the store's per-digest cache: the parent's was
	// usually built when it was the previous step's child, and the
	// child's is the parent's Successor, which keeps the parent's order,
	// rebuilds only the touched vertices' forward lists and leaves dense
	// rows to the child's first dense count. The parent is resolved before
	// the child's build starts, so no build waits on another digest's.
	// The ad-hoc builds only cover entries a tiny store already evicted.
	var pb, cb *graph.BitAdjacency
	parentBits := func() *graph.BitAdjacency {
		if pb == nil {
			if b, ok := s.store.Bits(parentDigest, nil); ok {
				pb = b
			} else {
				pb = graph.NewBitAdjacency(parent)
			}
		}
		return pb
	}
	childBits := func() *graph.BitAdjacency {
		if cb != nil {
			return cb
		}
		if childDigest == parentDigest {
			// An empty delta, or one whose changes cancel out.
			cb = parentBits()
			return cb
		}
		from := parentBits()
		successor := func(g *graph.Graph) *graph.BitAdjacency {
			return from.Successor(g, res.Touched)
		}
		if b, ok := s.store.Bits(childDigest, successor); ok {
			cb = b
		} else {
			cb = successor(child)
		}
		return cb
	}

	if childDigest != parentDigest {
		view.Forwarded = s.forwardCountEntries(parent, child, parentDigest, childDigest,
			res.Touched, incremental, parentBits, childBits)
	}
	if len(req.Watch) > 0 {
		watch, aerr := s.evaluateWatch(req.Watch, parent, child, parentDigest, childDigest,
			d, res.Touched, incremental, parentBits, childBits)
		if aerr != nil {
			writeErr(w, aerr.status, "%s", aerr.msg)
			return
		}
		view.Watch = watch
	}

	status := http.StatusCreated
	if deduped {
		status = http.StatusOK
	}
	s.logger.Info("delta applied",
		"parent", parentDigest, "child", childDigest,
		"inserted", res.Inserted, "deleted", res.Deleted,
		"churn", churn, "incremental", incremental,
		"forwarded", view.Forwarded, "deduped", deduped)
	writeJSON(w, status, view)
}

// cliquePattern returns the parsed clique:s pattern graph (for cache-key
// digests).
func cliquePattern(s int) *subgraph.Graph {
	h, err := subgraph.ParsePattern("clique:" + strconv.Itoa(s))
	if err != nil {
		panic(err) // clique:2..MaxCliqueSize always parses
	}
	return h
}

// countEnvelope builds the count-mode result envelope exactly as a
// kernel batch pass would for this graph — the forwarding contract is
// byte-identity with a from-scratch count job on the child.
func countEnvelope(cnt int64, mode graph.BitAdjacencyMode) *JobResult {
	statsJSON, _ := json.Marshal(subgraph.Stats{})
	c := cnt
	return &JobResult{
		Detected:  cnt > 0,
		Algorithm: kernel.AlgorithmName(mode),
		Stats:     statsJSON,
		Count:     &c,
	}
}

// CountResult is the count-mode result envelope for a graph served in
// mode — exported so the cluster router can seed its shared cache along
// lineage with entries byte-identical to worker-computed ones.
func CountResult(cnt int64, mode graph.BitAdjacencyMode) *JobResult {
	return countEnvelope(cnt, mode)
}

// forwardCountEntries re-derives the parent's count-mode cache entries
// for the child via incremental recounting. Over-threshold deltas
// forward nothing and count one fallback (the child will recompute on
// demand).
func (s *Server) forwardCountEntries(parent, child *graph.Graph, parentDigest, childDigest string,
	touched []int32, incremental bool,
	parentBits, childBits func() *graph.BitAdjacency) int {
	// Find which sizes the parent has cached counts for.
	type ent struct {
		size int
		h    *subgraph.Graph
		cnt  int64
	}
	var ents []ent
	for size := 2; size <= kernel.MaxCliqueSize; size++ {
		h := cliquePattern(size)
		res, ok := s.cache.Get(cacheKey(parentDigest, h, subgraph.OptionsSpec{}, true))
		if ok && res.Count != nil {
			ents = append(ents, ent{size: size, h: h, cnt: *res.Count})
		}
	}
	if len(ents) == 0 {
		return 0
	}
	if !incremental {
		s.reg.Counter(MetricDeltaFallback).Inc()
		return 0
	}
	pb, cb := parentBits(), childBits()
	for _, e := range ents {
		cnt := s.kernel.CountDelta(parent, pb, child, cb, e.size, touched, e.cnt)
		s.cache.Put(cacheKey(childDigest, e.h, subgraph.OptionsSpec{}, true),
			countEnvelope(cnt, cb.Mode()))
	}
	s.reg.Counter(MetricDeltaForwarded).Add(int64(len(ents)))
	return len(ents)
}

// watchKey keys dirty-region detection state (cycle watch booleans) in
// the result cache. These entries are internal lineage state, never
// served as job results — the "|watch|" segment cannot collide with job
// cache keys, whose third segment is a canonical options spec or the
// count sentinel.
func watchKey(digest string, h *subgraph.Graph) string {
	return digest + "|watch|" + h.Digest()
}

// evaluateWatch answers each watched pattern on the child graph,
// incrementally when possible.
func (s *Server) evaluateWatch(patterns []string, parent, child *graph.Graph,
	parentDigest, childDigest string, d graph.EdgeDelta, touched []int32, incremental bool,
	parentBits, childBits func() *graph.BitAdjacency) ([]WatchResult, *apiError) {
	out := make([]WatchResult, 0, len(patterns))
	for _, p := range patterns {
		h, err := subgraph.ParsePattern(p)
		if err != nil {
			return nil, badRequest(fmt.Sprintf("watch pattern %q: %v", p, err))
		}
		if size, ok := kernel.CliqueSize(h); ok {
			out = append(out, s.watchClique(p, h, size, parent, child,
				parentDigest, childDigest, touched, incremental, parentBits, childBits))
			continue
		}
		if l, ok := cycleLength(p); ok {
			out = append(out, s.watchCycle(p, h, l, parent, child,
				parentDigest, childDigest, d, incremental))
			continue
		}
		return nil, badRequest(fmt.Sprintf(
			"watch pattern %q is not incrementally maintainable: watch serves clique-family patterns and cycle:L", p))
	}
	return out, nil
}

// cycleLength recognizes cycle:L watch specs (L ≥ 4; cycle:3 is the
// triangle, which the clique path owns).
func cycleLength(spec string) (int, bool) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(strings.ToLower(spec)), "cycle:")
	if !ok {
		return 0, false
	}
	l, err := strconv.Atoi(rest)
	if err != nil || l < 4 {
		return 0, false
	}
	return l, true
}

func (s *Server) watchClique(p string, h *subgraph.Graph, size int, parent, child *graph.Graph,
	parentDigest, childDigest string, touched []int32, incremental bool,
	parentBits, childBits func() *graph.BitAdjacency) WatchResult {
	// The forwarding pass may have just derived this very count for the
	// child (it scans every cached parent size); reuse it rather than
	// running CountDelta a second time. The entry is byte-identical to
	// what this function would cache below, so the answer is too.
	if childRes, ok := s.cache.Get(cacheKey(childDigest, h, subgraph.OptionsSpec{}, true)); ok && childRes.Count != nil {
		c := *childRes.Count
		return WatchResult{Pattern: p, Detected: c > 0, Count: &c, Incremental: incremental || parentDigest == childDigest}
	}
	cb := childBits()
	parentRes, pok := s.cache.Get(cacheKey(parentDigest, h, subgraph.OptionsSpec{}, true))
	parentKnown := pok && parentRes.Count != nil
	var cnt int64
	usedIncremental := false
	switch {
	case parentKnown && parentDigest == childDigest:
		// Empty delta: the child IS the parent; its cached count answers.
		cnt = *parentRes.Count
		usedIncremental = true
	case parentKnown && incremental:
		cnt = s.kernel.CountDelta(parent, parentBits(), child, cb, size, touched, *parentRes.Count)
		usedIncremental = true
	default:
		cnt = s.kernel.Count(cb, size)
		if parentKnown {
			// Incremental maintenance was possible in principle but the
			// churn gate forced a full run.
			s.reg.Counter(MetricDeltaFallback).Inc()
		}
	}
	// Either way the child's count is now known exactly: cache it under
	// the count-job key so subsequent count jobs (and future deltas) hit.
	s.cache.Put(cacheKey(childDigest, h, subgraph.OptionsSpec{}, true), countEnvelope(cnt, cb.Mode()))
	c := cnt
	return WatchResult{Pattern: p, Detected: cnt > 0, Count: &c, Incremental: usedIncremental}
}

func (s *Server) watchCycle(p string, h *subgraph.Graph, l int, parent, child *graph.Graph,
	parentDigest, childDigest string, d graph.EdgeDelta, incremental bool) WatchResult {
	parentKnown := false
	parentHas := false
	if res, ok := s.cache.Get(watchKey(parentDigest, h)); ok {
		parentHas, parentKnown = res.Detected, true
	}
	has := false
	usedIncremental := false
	switch {
	case parentDigest == childDigest && parentKnown:
		has, usedIncremental = parentHas, true
	case parentKnown && incremental:
		var ok bool
		has, ok = graph.CycleDirtyCheck(child, d, l, parentHas)
		if ok {
			usedIncremental = true
		} else {
			has = graph.ContainsSubgraph(graph.Cycle(l), child)
			s.reg.Counter(MetricDeltaFallback).Inc()
		}
	default:
		// First sighting of this pattern on this lineage (or churn over
		// threshold): evaluate the child from scratch. Only a blocked
		// incremental path counts as fallback; first evaluation is warmup.
		has = graph.ContainsSubgraph(graph.Cycle(l), child)
		if parentKnown {
			s.reg.Counter(MetricDeltaFallback).Inc()
		}
	}
	s.cache.Put(watchKey(childDigest, h), &JobResult{Detected: has})
	return WatchResult{Pattern: p, Detected: has, Incremental: usedIncremental}
}
