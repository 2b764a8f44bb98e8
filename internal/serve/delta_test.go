package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/graph"
)

func edgeListOf(t *testing.T, g *graph.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// deltaTestGraph is a small graph with known structure: a GNP base with
// a planted 4-clique, dense enough for interesting counts.
func deltaTestGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.GNP(30, 0.15, rng)
	g, _ = graph.PlantClique(g, 4, rng)
	return g
}

func TestDeltaEndpointBasic(t *testing.T) {
	_, c := newTestServer(t, Config{})
	g := deltaTestGraph(t, 1)
	up, err := c.UploadGraph(edgeListOf(t, g))
	if err != nil {
		t.Fatal(err)
	}

	// Find an absent edge and a present edge.
	var ins, del [2]int
	found := false
	for u := 0; u < g.N() && !found; u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				ins = [2]int{u, v}
				found = true
				break
			}
		}
	}
	del = [2]int{int(g.Edges()[0][0]), int(g.Edges()[0][1])}

	view, status, err := c.ApplyDelta(up.Digest, DeltaRequest{
		Insert: [][2]int{ins},
		Delete: [][2]int{del},
	})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusCreated {
		t.Fatalf("status = %d, want 201", status)
	}
	if view.Digest == up.Digest {
		t.Fatal("child digest equals parent digest for a non-empty delta")
	}
	if view.Parent != up.Digest {
		t.Fatalf("lineage parent = %q, want %q", view.Parent, up.Digest)
	}
	if view.Inserted != 1 || view.Deleted != 1 || view.TouchedVertices == 0 {
		t.Fatalf("view = %+v", view)
	}
	// The child is a real stored graph: jobs run against it.
	jv, _, err := c.SubmitJob(JobSpec{Graph: view.Digest, Pattern: "triangle", Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(jv.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaEdgeCases is the satellite-4 table: empty delta, delete of a
// nonexistent edge, insert+delete of the same edge, evicted parent.
func TestDeltaEdgeCases(t *testing.T) {
	s, c := newTestServer(t, Config{MaxGraphs: 2})
	g := deltaTestGraph(t, 2)
	up, err := c.UploadGraph(edgeListOf(t, g))
	if err != nil {
		t.Fatal(err)
	}
	e0 := g.Edges()[0]

	t.Run("empty delta dedupes", func(t *testing.T) {
		view, status, err := c.ApplyDelta(up.Digest, DeltaRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if status != http.StatusOK {
			t.Fatalf("status = %d, want 200", status)
		}
		if !view.Deduped {
			t.Fatal("empty delta not deduped")
		}
		if view.Digest != up.Digest {
			t.Fatalf("empty delta changed digest: %q != %q", view.Digest, up.Digest)
		}
		if view.Parent != "" {
			t.Fatalf("empty delta recorded lineage %q", view.Parent)
		}
	})

	t.Run("delete nonexistent edge", func(t *testing.T) {
		var u, v int
		for u = 0; u < g.N(); u++ {
			done := false
			for v = u + 1; v < g.N(); v++ {
				if !g.HasEdge(u, v) {
					done = true
					break
				}
			}
			if done {
				break
			}
		}
		_, status, err := c.ApplyDelta(up.Digest, DeltaRequest{Delete: [][2]int{{u, v}}})
		if status != http.StatusConflict {
			t.Fatalf("status = %d (err %v), want 409", status, err)
		}
	})

	t.Run("insert plus delete same edge", func(t *testing.T) {
		// A cached count on the parent: a delta that changed the graph
		// would forward it.
		jv, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle", Mode: ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitJob(jv.ID, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		view, status, err := c.ApplyDelta(up.Digest, DeltaRequest{
			Insert: [][2]int{{int(e0[0]), int(e0[1])}},
			Delete: [][2]int{{int(e0[0]), int(e0[1])}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Net no-op on the edge set: same digest, deduped, but the
		// endpoints still count as touched.
		if status != http.StatusOK || !view.Deduped || view.Digest != up.Digest {
			t.Fatalf("status=%d view=%+v", status, view)
		}
		if view.TouchedVertices != 2 {
			t.Fatalf("touched = %d, want 2", view.TouchedVertices)
		}
		// The graph is not its own parent, and a change that did nothing
		// forwards nothing, although its churn is low enough to forward.
		if !view.Incremental {
			t.Fatalf("churn %.3f is over the forwarding threshold; the graph is too small to test forwarding", view.ChurnRatio)
		}
		if view.Parent != "" || view.Forwarded != 0 {
			t.Fatalf("cancelling delta: parent %q, forwarded %d; want no lineage and nothing forwarded", view.Parent, view.Forwarded)
		}
		if p, ok := s.store.Parent(up.Digest); ok {
			t.Fatalf("Parent(%s) = %q: the graph records itself as its parent", up.Digest, p)
		}
		if kids := s.store.Children(up.Digest); len(kids) != 0 {
			t.Fatalf("Children(%s) = %v, want none", up.Digest, kids)
		}
	})

	t.Run("delta against evicted parent", func(t *testing.T) {
		// Churn the tiny store (cap 2) until the parent is evicted.
		for i := int64(10); i < 14; i++ {
			if _, err := c.UploadGraph(edgeListOf(t, deltaTestGraph(t, i))); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := s.store.Get(up.Digest); ok {
			t.Fatal("parent still stored; churn insufficient")
		}
		_, status, err := c.ApplyDelta(up.Digest, DeltaRequest{Insert: [][2]int{{0, 1}}})
		if status != http.StatusNotFound {
			t.Fatalf("status = %d, want 404", status)
		}
		if err == nil {
			t.Fatal("expected a descriptive error")
		}
	})

	t.Run("malformed structural delta", func(t *testing.T) {
		up2, err := c.UploadGraph(edgeListOf(t, g))
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []DeltaRequest{
			{Insert: [][2]int{{3, 3}}},                                             // self-loop
			{Insert: [][2]int{{0, g.N() + 5}}},                                     // out of range
			{Delete: [][2]int{{int(e0[0]), int(e0[1])}, {int(e0[1]), int(e0[0])}}}, // dup
		} {
			_, status, _ := c.ApplyDelta(up2.Digest, bad)
			if status != http.StatusBadRequest {
				t.Fatalf("delta %+v: status = %d, want 400", bad, status)
			}
		}
	})
}

// TestDeltaCountForwarding: a cached parent count forwards to the child
// incrementally, and the forwarded entry is byte-identical to what a
// from-scratch count job on the child produces.
func TestDeltaCountForwarding(t *testing.T) {
	s, c := newTestServer(t, Config{})
	g := deltaTestGraph(t, 3)
	up, err := c.UploadGraph(edgeListOf(t, g))
	if err != nil {
		t.Fatal(err)
	}
	// Prime the parent's count cache.
	jv, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle", Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(jv.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Small delta: one inserted edge (well under the churn threshold).
	var ins [2]int
	for u := 0; u < g.N(); u++ {
		done := false
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				ins = [2]int{u, v}
				done = true
				break
			}
		}
		if done {
			break
		}
	}
	view, _, err := c.ApplyDelta(up.Digest, DeltaRequest{Insert: [][2]int{ins}})
	if err != nil {
		t.Fatal(err)
	}
	if !view.Incremental {
		t.Fatalf("1-edge delta not incremental (churn %v)", view.ChurnRatio)
	}
	if view.Forwarded != 1 {
		t.Fatalf("forwarded = %d, want 1", view.Forwarded)
	}

	// The forwarded entry must equal a from-scratch count job's result.
	h, err := subgraph.ParsePattern("triangle")
	if err != nil {
		t.Fatal(err)
	}
	forwarded, ok := s.cache.Get(cacheKey(view.Digest, h.Digest(), subgraph.OptionsSpec{}, true))
	if !ok {
		t.Fatal("no forwarded cache entry for the child")
	}
	// Compute the truth from scratch.
	child, ok := s.store.Get(view.Digest)
	if !ok {
		t.Fatal("child graph not stored")
	}
	want := s.kernel.Count(graph.NewBitAdjacency(child), 3)
	if forwarded.Count == nil || *forwarded.Count != want {
		t.Fatalf("forwarded count = %v, want %d", forwarded.Count, want)
	}
	// A count job on the child must now hit the cache (no new kernel run
	// for this digest+size).
	hitsBefore := counter(t, c, MetricCacheHits)
	jv2, status, err := c.SubmitJob(JobSpec{Graph: view.Digest, Pattern: "triangle", Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !jv2.Cached {
		t.Fatalf("child count job: status=%d cached=%v, want cache hit", status, jv2.Cached)
	}
	if jv2.Result == nil || jv2.Result.Count == nil || *jv2.Result.Count != want {
		t.Fatalf("cached child result = %+v, want count %d", jv2.Result, want)
	}
	if got := counter(t, c, MetricCacheHits); got != hitsBefore+1 {
		t.Fatalf("cache hits %d -> %d, want +1", hitsBefore, got)
	}
}

// TestDeltaWatchPatterns drives a clique watch (incremental counts) and
// a cycle watch (dirty-region booleans) across a delta chain.
func TestDeltaWatchPatterns(t *testing.T) {
	_, c := newTestServer(t, Config{})
	rng := rand.New(rand.NewSource(9))
	// Dense enough that a 2-edge delta stays under the 5% churn gate.
	g := graph.GNP(40, 0.2, rng)
	up, err := c.UploadGraph(edgeListOf(t, g))
	if err != nil {
		t.Fatal(err)
	}

	cur := g
	curDigest := up.Digest
	for step := 0; step < 5; step++ {
		var d DeltaRequest
		for k := 0; k < 2; k++ {
			u, v := rng.Intn(cur.N()), rng.Intn(cur.N())
			if u == v || cur.HasEdge(u, v) {
				continue
			}
			dup := false
			for _, e := range d.Insert {
				if (e == [2]int{u, v}) || (e == [2]int{v, u}) {
					dup = true
				}
			}
			if !dup {
				d.Insert = append(d.Insert, [2]int{u, v})
			}
		}
		if len(d.Insert) == 0 {
			continue
		}
		d.Watch = []string{"clique:3", "cycle:4"}
		view, _, err := c.ApplyDelta(curDigest, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(view.Watch) != 2 {
			t.Fatalf("step %d: %d watch results, want 2", step, len(view.Watch))
		}
		// Rebuild the child locally and verify both answers exactly.
		res, aerr := graph.ApplyDelta(cur, graph.EdgeDelta{Insert: d.Insert, Delete: d.Delete})
		if aerr != nil {
			t.Fatal(aerr)
		}
		child := res.Graph
		wantTri := graph.ContainsSubgraph(graph.Complete(3), child)
		wantC4 := graph.ContainsSubgraph(graph.Cycle(4), child)
		if view.Watch[0].Detected != wantTri || view.Watch[0].Count == nil {
			t.Fatalf("step %d: clique watch %+v, want detected=%v", step, view.Watch[0], wantTri)
		}
		if view.Watch[1].Detected != wantC4 {
			t.Fatalf("step %d: cycle watch %+v, want detected=%v", step, view.Watch[1], wantC4)
		}
		if step > 0 {
			// From the second step on, the lineage state makes watches
			// incremental (insert-only deltas never force cycle fallback).
			if !view.Watch[0].Incremental || !view.Watch[1].Incremental {
				t.Fatalf("step %d: watch not incremental: %+v", step, view.Watch)
			}
		}
		cur, curDigest = child, view.Digest
	}

	// Unsupported watch pattern bounces the whole request.
	_, status, _ := c.ApplyDelta(curDigest, DeltaRequest{Watch: []string{"path:4"}})
	if status != http.StatusBadRequest {
		t.Fatalf("path watch: status = %d, want 400", status)
	}
}

// TestJobPinSurvivesStoreChurn pins satellite 2 end to end: with a tiny
// store and held workers, a queued job's graph survives upload churn
// that would otherwise evict it, and the job completes.
func TestJobPinSurvivesStoreChurn(t *testing.T) {
	s, c := newTestServer(t, Config{MaxGraphs: 2, Workers: 1})
	s.holdJobs = make(chan struct{})

	text, _ := testEdgeList(t, 77)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	jv, status, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle"})
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("submit: status=%d err=%v", status, err)
	}

	// Churn the store far past its cap while the job is held.
	for i := int64(100); i < 106; i++ {
		if _, err := c.UploadGraph(edgeListOf(t, deltaTestGraph(t, i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.store.Get(up.Digest); !ok {
		t.Fatal("pinned job graph evicted by churn")
	}

	s.holdJobs <- struct{}{}
	done, err := c.WaitJob(jv.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", done.State, done.Error)
	}
	close(s.holdJobs)
	s.holdJobs = nil

	// With the job finished the pin is gone: the next upload enforces the
	// cap again and can evict the graph.
	for i := int64(200); i < 203; i++ {
		if _, err := c.UploadGraph(edgeListOf(t, deltaTestGraph(t, i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.store.Len() > 2 {
		t.Fatalf("store over cap after job completion: %d", s.store.Len())
	}
}

// TestDeltaFallbackOverThreshold: a high-churn delta forwards nothing
// and bumps the fallback counter.
func TestDeltaFallbackOverThreshold(t *testing.T) {
	_, c := newTestServer(t, Config{DeltaChurnThreshold: 0.01})
	g := deltaTestGraph(t, 5)
	up, err := c.UploadGraph(edgeListOf(t, g))
	if err != nil {
		t.Fatal(err)
	}
	jv, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle", Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(jv.ID, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Delete a third of the edges: churn way over 1%.
	var d DeltaRequest
	for i, e := range g.Edges() {
		if i%3 == 0 {
			d.Delete = append(d.Delete, [2]int{int(e[0]), int(e[1])})
		}
	}
	before := counter(t, c, MetricDeltaFallback)
	view, _, err := c.ApplyDelta(up.Digest, d)
	if err != nil {
		t.Fatal(err)
	}
	if view.Incremental {
		t.Fatalf("%.0f%% churn marked incremental", view.ChurnRatio*100)
	}
	if view.Forwarded != 0 {
		t.Fatalf("over-threshold delta forwarded %d entries", view.Forwarded)
	}
	if got := counter(t, c, MetricDeltaFallback); got != before+1 {
		t.Fatalf("fallback counter %d -> %d, want +1", before, got)
	}
}

// TestDeltaCarriedCounts pins the trust rules for counts a delta carries
// (DeltaRequest.ParentCounts) straight to a worker.
func TestDeltaCarriedCounts(t *testing.T) {
	s, c := newTestServer(t, Config{})
	g := deltaTestGraph(t, 7)
	up, err := c.UploadGraph(edgeListOf(t, g))
	if err != nil {
		t.Fatal(err)
	}
	var absent [][2]int
	for u := 0; u < g.N() && len(absent) < 2; u++ {
		for v := u + 1; v < g.N() && len(absent) < 2; v++ {
			if !g.HasEdge(u, v) {
				absent = append(absent, [2]int{u, v})
			}
		}
	}
	parentK3 := s.kernel.Count(graph.NewBitAdjacency(g), 3)
	// child returns the successor of inserting e, and its K3 count.
	child := func(e [2]int) (string, *graph.BitAdjacency, int64) {
		res, err := graph.ApplyDelta(g, graph.EdgeDelta{Insert: [][2]int{e}})
		if err != nil {
			t.Fatal(err)
		}
		b := graph.NewBitAdjacency(res.Graph)
		return res.Graph.Digest(), b, s.kernel.Count(b, 3)
	}

	t.Run("carried counts are answered, not cached", func(t *testing.T) {
		// The worker has no count of the parent, and a wrong one rides
		// along: the answer follows it, the cache must not.
		const skew = 5
		digest, bits, k3 := child(absent[0])
		view, status, err := c.ApplyDelta(up.Digest, DeltaRequest{
			Insert:       [][2]int{absent[0]},
			Watch:        []string{"triangle"},
			ParentCounts: CliqueCounts{3: parentK3 + skew},
		})
		if err != nil || status != http.StatusCreated {
			t.Fatalf("delta: status %d, err %v", status, err)
		}
		got, _ := json.Marshal(view.Counts[3])
		want, _ := json.Marshal(CountResult(k3+skew, bits.Mode()))
		if view.Forwarded != 1 || len(view.Counts) != 1 || !bytes.Equal(got, want) {
			t.Fatalf("forwarded %d, counts %s; want 1 entry, %s", view.Forwarded, got, want)
		}
		if len(view.Watch) != 1 || view.Watch[0].Count == nil || *view.Watch[0].Count != k3+skew {
			t.Fatalf("watch = %+v, want the carried-derived count %d", view.Watch, k3+skew)
		}
		if _, ok := s.cache.Get(countKey(digest, 3)); ok {
			t.Fatal("a count derived from a carried count was cached")
		}
		jv, _, err := c.SubmitJob(JobSpec{Graph: digest, Pattern: "clique:3", Mode: ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		if jv, err = c.WaitJob(jv.ID, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		if jv.Cached || jv.Result == nil || jv.Result.Count == nil || *jv.Result.Count != k3 {
			t.Fatalf("child count job: cached %v, result %+v; want a fresh count of %d", jv.Cached, jv.Result, k3)
		}
	})

	t.Run("a disagreeing carried count is a 409 and stores nothing", func(t *testing.T) {
		jv, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle", Mode: ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitJob(jv.ID, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		digest, _, k3 := child(absent[1])
		deltas := counter(t, c, MetricGraphDeltas)
		body, _ := json.Marshal(DeltaRequest{Insert: [][2]int{absent[1]}, ParentCounts: CliqueCounts{3: parentK3 + 1}})
		resp, err := http.Post(c.Base+"/v1/graphs/"+up.Digest+"/delta", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var refusal struct{ Error, Reason string }
		err = json.NewDecoder(resp.Body).Decode(&refusal)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusConflict || refusal.Reason != DeltaCountMismatch {
			t.Fatalf("disagreeing carried count: HTTP %d %+v (%v), want 409 with reason %s",
				resp.StatusCode, refusal, err, DeltaCountMismatch)
		}
		if _, ok := s.store.Get(digest); ok {
			t.Error("the refused delta stored its child")
		}
		if got := counter(t, c, MetricGraphDeltas); got != deltas {
			t.Errorf("%s %d -> %d, want the refused delta uncounted", MetricGraphDeltas, deltas, got)
		}

		// An agreeing carried count is fine, and the worker's own count
		// forwards into its cache.
		view, status, err := c.ApplyDelta(up.Digest, DeltaRequest{Insert: [][2]int{absent[1]}, ParentCounts: CliqueCounts{3: parentK3}})
		if err != nil || status != http.StatusCreated || view.Digest != digest {
			t.Fatalf("agreeing carried count: status %d, view %+v, err %v", status, view, err)
		}
		if res, ok := s.cache.Get(countKey(digest, 3)); !ok || *res.Count != k3 {
			t.Fatalf("child count from the worker's own parent count not cached as %d", k3)
		}
	})
}
