package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

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
//   - every parent count cached here or carried with the request is
//     forwarded to the child: the child's count is derived incrementally
//     (CountDelta over the changed edges), byte-identical to what a
//     from-scratch count job on the child would produce, and returned
//     (cached too when the parent count was this node's own);
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
	// ParentCounts carries parent counts for the applier to derive the
	// child's from when it has none cached. A router fills it from its
	// shared cache, replacing whatever a client sent. Carried counts are
	// untrusted: a child count derived from one is returned but never
	// cached, and one that disagrees with the applier's own cached count
	// is a 409 (DeltaCountMismatch) before the child is stored.
	ParentCounts CliqueCounts `json:"parent_counts,omitempty"`
}

// CliqueCounts maps a clique size to its K_s count. Decoding refuses a
// size outside [2, kernel.MaxCliqueSize] and a negative count (a 400).
type CliqueCounts map[int]int64

// UnmarshalJSON decodes a count map, refusing out-of-range entries.
func (c *CliqueCounts) UnmarshalJSON(b []byte) error {
	var raw map[int]int64
	if err := json.Unmarshal(b, &raw); err != nil {
		return err
	}
	for size, cnt := range raw {
		if size < 2 || size > kernel.MaxCliqueSize || cnt < 0 {
			return fmt.Errorf("count %d for clique size %d: want a size in [2, %d] and a count >= 0", cnt, size, kernel.MaxCliqueSize)
		}
	}
	*c = raw
	return nil
}

// DeltaCountMismatch is the typed 409 reason for a carried parent count
// that disagrees with the applier's own cached one: one of them is wrong.
const DeltaCountMismatch = "parent_count_mismatch"

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
	// Forwarded counts the child counts derived from parent counts, this
	// node's cached ones and carried ones alike.
	Forwarded int `json:"forwarded_cache_entries"`
	// Counts holds those child counts by clique size, each as the exact
	// envelope a count job on the child returns. A router caches them.
	Counts map[int]*JobResult `json:"counts,omitempty"`
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
	// A carried count that disagrees with this node's own cached one means
	// one of them is wrong: refuse the delta before anything is stored.
	own := s.cache.Counts(parentDigest)
	for size, cnt := range req.ParentCounts {
		if mine, ok := own[size]; ok && mine != cnt {
			writeJSON(w, http.StatusConflict, map[string]any{
				"error":  fmt.Sprintf("carried clique:%d count %d disagrees with the cached parent count %d", size, cnt, mine),
				"reason": DeltaCountMismatch,
			})
			return
		}
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

	if childDigest != parentDigest {
		view.Counts = s.forwardCounts(own, req.ParentCounts, parent, child, childDigest,
			res.Touched, incremental)
		view.Forwarded = len(view.Counts)
	}
	if len(req.Watch) > 0 {
		watch, aerr := s.evaluateWatch(req.Watch, parent, child, parentDigest, childDigest,
			d, res.Touched, incremental, view.Counts)
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

// forwardCounts derives the child's count for every parent count, own
// (cached here, and winning) or carried, by counting the cliques through
// the changed edges (kernel.CountDelta), with no adjacency of either
// graph. Only those derived from own counts are cached for the child.
// Over-threshold deltas derive nothing and count one fallback.
func (s *Server) forwardCounts(own, carried CliqueCounts, parent, child *graph.Graph, childDigest string,
	touched []int32, incremental bool) map[int]*JobResult {
	if len(own) == 0 && len(carried) == 0 {
		return nil
	}
	if !incremental {
		s.reg.Counter(MetricDeltaFallback).Inc()
		return nil
	}
	mode := graph.ModeFor(child.N()) // the form a count job's build would take
	derive := func(size int, cnt int64) *JobResult {
		return CountResult(s.kernel.CountDelta(parent, nil, child, nil, size, touched, cnt), mode)
	}
	out := make(map[int]*JobResult, len(own)+len(carried))
	for size, cnt := range own {
		out[size] = derive(size, cnt)
		s.cache.Put(countKey(childDigest, size), out[size])
	}
	for size, cnt := range carried {
		if out[size] == nil {
			out[size] = derive(size, cnt)
		}
	}
	s.reg.Counter(MetricDeltaForwarded).Add(int64(len(out)))
	return out
}

// watchKey keys dirty-region detection state (cycle watch booleans) in
// the result cache. These entries are internal lineage state, never
// served as job results — the "|watch|" segment cannot collide with job
// cache keys, whose third segment is a canonical options spec or the
// count sentinel.
func watchKey(digest, hDigest string) string {
	return digest + "|watch|" + hDigest
}

// evaluateWatch answers each watched pattern on the child graph,
// incrementally when possible.
func (s *Server) evaluateWatch(patterns []string, parent, child *graph.Graph,
	parentDigest, childDigest string, d graph.EdgeDelta, touched []int32, incremental bool,
	forwarded map[int]*JobResult) ([]WatchResult, *apiError) {
	out := make([]WatchResult, 0, len(patterns))
	for _, p := range patterns {
		pat, err := parsePattern(p)
		if err != nil {
			return nil, badRequest(fmt.Sprintf("watch pattern %q: %v", p, err))
		}
		if size, ok := kernel.CliqueSize(pat.h); ok {
			out = append(out, s.watchClique(p, size, parent, child,
				parentDigest, childDigest, touched, incremental, forwarded))
			continue
		}
		if l, ok := cycleLength(p); ok {
			out = append(out, s.watchCycle(p, pat.digest, l, parent, child,
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

func (s *Server) watchClique(p string, size int, parent, child *graph.Graph,
	parentDigest, childDigest string, touched []int32, incremental bool,
	forwarded map[int]*JobResult) WatchResult {
	// The forwarding pass may have just derived this very count for the
	// child (from every parent size cached here or carried); reuse it
	// rather than running CountDelta a second time. The answer is the
	// same, and one derived from a carried count stays uncached.
	childRes, ok := forwarded[size]
	if !ok {
		childRes, ok = s.cache.Get(countKey(childDigest, size))
	}
	if ok && childRes.Count != nil {
		c := *childRes.Count
		return WatchResult{Pattern: p, Detected: c > 0, Count: &c, Incremental: incremental || parentDigest == childDigest}
	}
	parentRes, pok := s.cache.Get(countKey(parentDigest, size))
	parentKnown := pok && parentRes.Count != nil
	var cnt int64
	usedIncremental := false
	switch {
	case parentKnown && parentDigest == childDigest:
		// Empty delta: the child IS the parent; its cached count answers.
		cnt = *parentRes.Count
		usedIncremental = true
	case parentKnown && incremental:
		cnt = s.kernel.CountDelta(parent, nil, child, nil, size, touched, *parentRes.Count)
		usedIncremental = true
	default:
		// A full count on the child's adjacency, built from scratch through
		// the store like any uploaded graph's. The ad-hoc build only covers
		// a child that a tiny store already evicted.
		cb, ok := s.store.Bits(childDigest)
		if !ok {
			cb = graph.NewBitAdjacency(child)
		}
		cnt = s.kernel.Count(cb, size)
		if parentKnown {
			// Incremental maintenance was possible in principle but the
			// churn gate forced a full run.
			s.reg.Counter(MetricDeltaFallback).Inc()
		}
	}
	// Either way the child's count is now known exactly: cache it under
	// the count-job key so subsequent count jobs (and future deltas) hit.
	// The label is the form a count job's build of the child would take.
	s.cache.Put(countKey(childDigest, size), CountResult(cnt, graph.ModeFor(child.N())))
	c := cnt
	return WatchResult{Pattern: p, Detected: cnt > 0, Count: &c, Incremental: usedIncremental}
}

func (s *Server) watchCycle(p, hDigest string, l int, parent, child *graph.Graph,
	parentDigest, childDigest string, d graph.EdgeDelta, incremental bool) WatchResult {
	parentKnown := false
	parentHas := false
	if res, ok := s.cache.Get(watchKey(parentDigest, hDigest)); ok {
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
	s.cache.Put(watchKey(childDigest, hDigest), &JobResult{Detected: has})
	return WatchResult{Pattern: p, Detected: has, Incremental: usedIncremental}
}
