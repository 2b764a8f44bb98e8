package cluster

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

// findMissingEdge returns a vertex pair g does not connect.
func findMissingEdge(t *testing.T, g *graph.Graph) [2]int {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		for v := u + 1; v < g.N(); v++ {
			if !g.HasEdge(u, v) {
				return [2]int{u, v}
			}
		}
	}
	t.Fatal("graph is complete; no edge to insert")
	return [2]int{}
}

// TestClusterDeltaRoutesAndSeeds pins the cluster evolving-graph
// contract end to end: a delta submitted to the router is applied by a
// parent-digest owner, the successor lands in the router mirror (with
// lineage) and on the child digest's owners, and the shared result cache
// is seeded along lineage — a count job on the successor answers at the
// router, cached, with the exact incremental count.
func TestClusterDeltaRoutesAndSeeds(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 2}, Config{})
	text, g := testEdgeList(t, 21)
	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}

	// Prime the shared cache with the parent's triangle count.
	spec := serve.JobSpec{Graph: up.Digest, Pattern: "clique:3", Mode: serve.ModeCount}
	jv, _, err := c.Client.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Client.WaitJob(jv.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != serve.StateDone || first.Result == nil || first.Result.Count == nil {
		t.Fatalf("parent count job: state %s, err %q", first.State, first.Error)
	}

	ins := findMissingEdge(t, g)
	dv, status, err := c.Client.ApplyDelta(up.Digest, serve.DeltaRequest{Insert: [][2]int{ins}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusCreated {
		t.Fatalf("delta status = %d, want 201", status)
	}
	if dv.Parent != up.Digest || dv.Digest == up.Digest {
		t.Fatalf("delta lineage: parent %q, child %q (base %q)", dv.Parent, dv.Digest, up.Digest)
	}
	if !dv.Incremental {
		t.Fatalf("one-edge delta not incremental: churn %v", dv.ChurnRatio)
	}

	// Router mirror holds the successor with lineage recorded.
	if _, ok := c.Router.store.Get(dv.Digest); !ok {
		t.Error("successor graph not in the router mirror")
	}
	if p, ok := c.Router.store.Parent(dv.Digest); !ok || p != up.Digest {
		t.Errorf("mirror lineage = (%q, %v), want parent %q", p, ok, up.Digest)
	}

	// Every owner of the child digest holds it (the applier stored it; the
	// rest got the push).
	for i, w := range c.Workers {
		resp, err := http.Get(w.BaseURL + "/v1/graphs/" + dv.Digest)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("worker %d: successor graph info status %d, want 200", i, resp.StatusCode)
		}
	}

	// Ground truth: the child's triangle count, from scratch.
	res, err := graph.ApplyDelta(g, graph.EdgeDelta{Insert: [][2]int{ins}})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(1)
	defer k.Close()
	want := k.Count(graph.NewBitAdjacency(res.Graph), 3)

	// The seeded entry answers a count job on the successor at the router.
	childSpec := serve.JobSpec{Graph: dv.Digest, Pattern: "clique:3", Mode: serve.ModeCount}
	second, status, err := c.Client.SubmitJob(childSpec)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !second.Cached {
		t.Fatalf("successor count not answered from the seeded cache: status %d, view %+v", status, second)
	}
	if second.Result == nil || second.Result.Count == nil || *second.Result.Count != want {
		t.Fatalf("seeded count = %+v, want %d", second.Result, want)
	}

	if got := c.Router.reg.Counter(MetricGraphDeltas).Value(); got != 1 {
		t.Errorf("cluster_graph_deltas_total = %d, want 1", got)
	}
	if got := c.Router.reg.Counter(MetricDeltaSeeded).Value(); got < 1 {
		t.Errorf("cluster_delta_seeded_total = %d, want >= 1", got)
	}
}

// TestClusterDeltaHealsAmnesicOwner pins the repair path: workers whose
// tiny stores evicted the parent answer the forwarded delta 404, the
// router re-pushes the parent from its mirror, and the retry succeeds.
func TestClusterDeltaHealsAmnesicOwner(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 1, MaxGraphs: 1}, Config{})
	text1, g1 := testEdgeList(t, 31)
	up1, err := c.Client.UploadGraph(text1)
	if err != nil {
		t.Fatal(err)
	}
	// A second upload evicts the first from every worker's 1-entry store;
	// the router mirror keeps both.
	text2, _ := testEdgeList(t, 32)
	if _, err := c.Client.UploadGraph(text2); err != nil {
		t.Fatal(err)
	}

	ins := findMissingEdge(t, g1)
	dv, status, err := c.Client.ApplyDelta(up1.Digest, serve.DeltaRequest{Insert: [][2]int{ins}})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusCreated || dv.Parent != up1.Digest {
		t.Fatalf("healed delta: status %d, view %+v", status, dv)
	}
}

// TestClusterDeltaErrors pins the router-level verdicts: an unmirrored
// parent bounces 404 with re-upload guidance before any forward, and a
// worker's deterministic validation verdict (delete of a missing edge)
// is relayed through unchanged as 409.
func TestClusterDeltaErrors(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 1}, Config{})
	if _, status, err := c.Client.ApplyDelta("deadbeef", serve.DeltaRequest{Insert: [][2]int{{0, 1}}}); status != http.StatusNotFound {
		t.Fatalf("unknown parent: status %d (err %v), want 404", status, err)
	}

	text, g := testEdgeList(t, 41)
	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	missing := findMissingEdge(t, g)
	if _, status, err := c.Client.ApplyDelta(up.Digest, serve.DeltaRequest{Delete: [][2]int{missing}}); status != http.StatusConflict {
		t.Fatalf("delete of missing edge: status %d (err %v), want relayed 409", status, err)
	}
}

// TestClusterDeltaDivergence pins the router's answer when a worker and
// the router mirror disagree on a delta: 502, one count on
// cluster_delta_divergence_total, and nothing mirrored, replicated or
// seeded from the disputed child. A stub worker plays the disagreeing
// side, once reporting a wrong child digest and once accepting a delta
// the mirror rejects.
func TestClusterDeltaDivergence(t *testing.T) {
	text, g := testEdgeList(t, 51)
	missing := findMissingEdge(t, g)
	cases := []struct {
		name string
		req  serve.DeltaRequest
	}{
		{"wrong child digest", serve.DeltaRequest{Insert: [][2]int{missing}}},
		{"delta the mirror rejects", serve.DeltaRequest{Delete: [][2]int{missing}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodPost && r.URL.Path == "/v1/graphs":
					serve.WriteJSON(w, http.StatusCreated, serve.UploadView{})
				case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/delta"):
					serve.WriteJSON(w, http.StatusCreated, serve.DeltaView{
						GraphInfo:   serve.GraphInfo{Digest: strings.Repeat("0", 64)},
						Incremental: true,
					})
				default:
					http.NotFound(w, r)
				}
			}))
			defer stub.Close()
			rt, err := New(Config{Members: []string{stub.URL}})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(rt.Handler())
			defer srv.Close()
			c := &serve.Client{Base: srv.URL, Retry: serve.NoRetry()}

			up, err := c.UploadGraph(text)
			if err != nil {
				t.Fatal(err)
			}
			// A cached parent count the router would seed along lineage.
			pkey, err := serve.SpecCacheKey(serve.JobSpec{Graph: up.Digest, Pattern: "clique:3", Mode: serve.ModeCount})
			if err != nil {
				t.Fatal(err)
			}
			rt.cache.Put(pkey, serve.CountResult(1, graph.NewBitAdjacency(g).Mode()))
			pushes := rt.reg.Counter(MetricGraphPushes).Value()

			if _, status, _ := c.ApplyDelta(up.Digest, tc.req); status != http.StatusBadGateway {
				t.Fatalf("status = %d, want 502", status)
			}
			if got := rt.reg.Counter(MetricDeltaDivergence).Value(); got != 1 {
				t.Errorf("%s = %d, want 1", MetricDeltaDivergence, got)
			}
			if got := rt.reg.Counter(MetricGraphDeltas).Value(); got != 0 {
				t.Errorf("%s = %d, want 0", MetricGraphDeltas, got)
			}
			if got := rt.reg.Counter(MetricGraphPushes).Value(); got != pushes {
				t.Errorf("disputed child replicated: %d pushes after the delta", got-pushes)
			}
			if got := rt.reg.Counter(MetricDeltaSeeded).Value(); got != 0 {
				t.Errorf("%s = %d, want 0", MetricDeltaSeeded, got)
			}
			if n := rt.store.Len(); n != 1 {
				t.Errorf("mirror holds %d graphs, want only the parent", n)
			}
		})
	}
}
