package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
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
// the mirror rejects, each time with child counts the router must not
// cache.
func TestClusterDeltaDivergence(t *testing.T) {
	text, g := testEdgeList(t, 51)
	missing := findMissingEdge(t, g)
	stubChild := strings.Repeat("0", 64)
	stubCounts := map[int]*serve.JobResult{3: serve.CountResult(7, graph.NewBitAdjacency(g).Mode())}
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
						GraphInfo:   serve.GraphInfo{Digest: stubChild},
						Incremental: true,
						Forwarded:   len(stubCounts),
						Counts:      stubCounts,
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
			ckey, err := serve.SpecCacheKey(serve.JobSpec{Graph: stubChild, Pattern: "clique:3", Mode: serve.ModeCount})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := rt.cache.Get(ckey); ok || rt.cache.Len() != 1 {
				t.Errorf("the disputed child's counts were cached (%d entries, want the parent's 1)", rt.cache.Len())
			}
		})
	}
}

// chainDelta draws k edge deletions and k insertions against g.
func chainDelta(rng *rand.Rand, g *graph.Graph, k int) graph.EdgeDelta {
	var d graph.EdgeDelta
	edges := g.Edges()
	for _, i := range rng.Perm(len(edges))[:k] {
		d.Delete = append(d.Delete, edges[i])
	}
	picked := make(map[[2]int]bool)
	for len(d.Insert) < k {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u > v {
			u, v = v, u
		}
		if u == v || g.HasEdge(u, v) || picked[[2]int{u, v}] {
			continue
		}
		picked[[2]int{u, v}] = true
		d.Insert = append(d.Insert, [2]int{u, v})
	}
	return d
}

// TestClusterDeltaChain runs a delta chain through a router over three
// workers, one of which dies halfway, and holds every step to a local
// mirror: each successor's K3 and K4 counts answer at the router from
// its shared cache, byte-equal to a scratch count on the mirror, two
// entries are seeded per step, and no step diverges.
func TestClusterDeltaChain(t *testing.T) {
	const steps, killAfter = 12, 6
	c := startTestCluster(t, 3, serve.Config{Workers: 1}, Config{Replication: 2})
	rng := rand.New(rand.NewSource(61))
	mirror := graph.GNP(200, 0.06, rng)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, mirror); err != nil {
		t.Fatal(err)
	}
	up, err := c.Client.UploadGraph(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	digest := up.Digest
	sizes := []int{3, 4}
	for _, s := range sizes {
		jv, _, err := c.Client.SubmitJob(serve.JobSpec{Graph: digest, Pattern: fmt.Sprintf("clique:%d", s), Mode: serve.ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		if v, err := c.Client.WaitJob(jv.ID, 30*time.Second); err != nil || v.State != serve.StateDone {
			t.Fatalf("priming clique:%d: state %s, err %v", s, v.State, err)
		}
	}

	k := kernel.New(1)
	defer k.Close()
	seeded := c.Router.reg.Counter(MetricDeltaSeeded)
	for step := 1; step <= steps; step++ {
		d := chainDelta(rng, mirror, 4)
		res, err := graph.ApplyDelta(mirror, d)
		if err != nil {
			t.Fatal(err)
		}
		mirror = res.Graph
		before := seeded.Value()
		dv, status, err := c.Client.ApplyDelta(digest, serve.DeltaRequest{Insert: d.Insert, Delete: d.Delete})
		if err != nil || status != http.StatusCreated {
			t.Fatalf("step %d: delta status %d, err %v", step, status, err)
		}
		if dv.Digest != mirror.Digest() || dv.Parent != digest || !dv.Incremental {
			t.Fatalf("step %d: view %+v, want incremental child %s of %s", step, dv, mirror.Digest(), digest)
		}
		digest = dv.Digest
		bits := graph.NewBitAdjacency(mirror)
		for _, s := range sizes {
			pattern := fmt.Sprintf("clique:%d", s)
			v, status, err := c.Client.SubmitJob(serve.JobSpec{Graph: digest, Pattern: pattern, Mode: serve.ModeCount})
			if err != nil || status != http.StatusOK || !v.Cached {
				t.Fatalf("step %d %s: status %d, cached %v, err %v; want a router cache hit", step, pattern, status, v.Cached, err)
			}
			got, _ := json.Marshal(v.Result)
			want, _ := json.Marshal(serve.CountResult(k.Count(bits, s), bits.Mode()))
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d %s: served %s, mirror %s", step, pattern, got, want)
			}
		}
		if got := seeded.Value() - before; got != int64(len(sizes)) {
			t.Errorf("step %d: %s rose by %d, want %d", step, MetricDeltaSeeded, got, len(sizes))
		}
		if step == killAfter {
			if err := c.KillWorker(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := c.Router.reg.Counter(MetricDeltaDivergence).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricDeltaDivergence, got)
	}
}

// countJob runs a count job through c and returns its view.
func countJob(t *testing.T, c *serve.Client, digest string, size int) serve.JobView {
	t.Helper()
	jv, _, err := c.SubmitJob(serve.JobSpec{Graph: digest, Pattern: fmt.Sprintf("clique:%d", size), Mode: serve.ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil || jv.State != serve.StateDone || jv.Result.Count == nil {
		t.Fatalf("clique:%d count on %.12s: state %s, err %v", size, digest, jv.State, err)
	}
	return jv
}

// TestClusterDeltaDropsClientCounts pins that the router carries only its
// own counts: a client's ParentCounts never reach a worker, so nothing is
// derived from them or seeded, and the child's count is the library's.
func TestClusterDeltaDropsClientCounts(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 1}, Config{})
	text, g := testEdgeList(t, 71)
	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	ins := findMissingEdge(t, g)
	dv, status, err := c.Client.ApplyDelta(up.Digest, serve.DeltaRequest{
		Insert:       [][2]int{ins},
		ParentCounts: serve.CliqueCounts{3: 999, 4: 999},
	})
	if err != nil || status != http.StatusCreated {
		t.Fatalf("delta: status %d, err %v", status, err)
	}
	if dv.Forwarded != 0 || len(dv.Counts) != 0 {
		t.Fatalf("a client's carried counts reached the applier: forwarded %d, counts %v", dv.Forwarded, dv.Counts)
	}
	if got := c.Router.reg.Counter(MetricDeltaSeeded).Value(); got != 0 {
		t.Errorf("%s = %d, want 0", MetricDeltaSeeded, got)
	}
	res, err := graph.ApplyDelta(g, graph.EdgeDelta{Insert: [][2]int{ins}})
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(1)
	defer k.Close()
	want := k.Count(graph.NewBitAdjacency(res.Graph), 3)
	if jv := countJob(t, c.Client, dv.Digest, 3); *jv.Result.Count != want {
		t.Fatalf("child count = %d, want the library's %d", *jv.Result.Count, want)
	}
}

// TestClusterDeltaCountMismatch pins the router's answer when its shared
// cache and an applier's own cache disagree on a parent count: the worker
// refuses the carried count with a typed 409, and the router turns it into
// a 502 divergence with nothing mirrored, replicated or seeded.
func TestClusterDeltaCountMismatch(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 1}, Config{})
	text, g := testEdgeList(t, 81)
	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	// Every worker holds the parent's true count, whichever applies the
	// delta; the router's shared cache holds a wrong one.
	var k3 int64
	for _, w := range c.Workers {
		k3 = *countJob(t, &serve.Client{Base: w.BaseURL}, up.Digest, 3).Result.Count
	}
	pkey, err := serve.SpecCacheKey(serve.JobSpec{Graph: up.Digest, Pattern: "clique:3", Mode: serve.ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	c.Router.cache.Put(pkey, serve.CountResult(k3+1, graph.NewBitAdjacency(g).Mode()))
	pushes := c.Router.reg.Counter(MetricGraphPushes).Value()

	ins := findMissingEdge(t, g)
	res, err := graph.ApplyDelta(g, graph.EdgeDelta{Insert: [][2]int{ins}})
	if err != nil {
		t.Fatal(err)
	}
	child := res.Graph.Digest()
	client := &serve.Client{Base: c.BaseURL, Retry: serve.NoRetry()}
	if _, status, _ := client.ApplyDelta(up.Digest, serve.DeltaRequest{Insert: [][2]int{ins}}); status != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", status)
	}
	for name, want := range map[string]int64{MetricDeltaDivergence: 1, MetricGraphDeltas: 0, MetricDeltaSeeded: 0, MetricGraphPushes: pushes} {
		if got := c.Router.reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if _, ok := c.Router.store.Get(child); ok {
		t.Error("the router mirrored the refused child")
	}
	for i, w := range c.Workers {
		resp, err := http.Get(w.BaseURL + "/v1/graphs/" + child)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("worker %d holds the refused child: status %d, want 404", i, resp.StatusCode)
		}
	}
}
