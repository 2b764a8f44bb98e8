package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/graph"
)

func storeTestGraph(seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.GNP(16, 0.3, rng)
}

// TestStoreNetworkBuildsLazilyOutsideLock pins the lazy-build contract:
// Put never builds the network; the first Network() call does, outside
// the store lock, so concurrent reads of *other* digests never block
// behind a build.
func TestStoreNetworkBuildsLazilyOutsideLock(t *testing.T) {
	s := NewStore(8)
	var builds int32
	slowEntered := make(chan struct{})
	slowRelease := make(chan struct{})
	s.buildNetwork = func(g *graph.Graph) *subgraph.Network {
		if atomic.AddInt32(&builds, 1) == 1 {
			close(slowEntered)
			<-slowRelease
		}
		return subgraph.NewNetwork(g)
	}
	fast := storeTestGraph(1)
	slow := storeTestGraph(2)
	s.Put(fast)
	s.Put(slow)
	if got := atomic.LoadInt32(&builds); got != 0 {
		t.Fatalf("Put built %d networks, want 0 (lazy)", got)
	}

	done := make(chan struct{})
	go func() {
		s.Network(slow.Digest())
		close(done)
	}()
	<-slowEntered

	// The slow build holds no lock: Get/Network/Info on the fast graph
	// must return promptly (and may build the fast network concurrently).
	read := make(chan struct{})
	go func() {
		if _, ok := s.Get(fast.Digest()); !ok {
			t.Error("fast graph missing")
		}
		if _, ok := s.Network(fast.Digest()); !ok {
			t.Error("fast network missing")
		}
		close(read)
	}()
	select {
	case <-read:
	case <-time.After(2 * time.Second):
		t.Fatal("reads blocked behind a network build")
	}
	close(slowRelease)
	<-done
	if nw, ok := s.Network(slow.Digest()); !ok || nw == nil {
		t.Fatal("slow network missing after build")
	}
}

// TestStoreNetworkSingleFlight: concurrent Network() calls on one digest
// build exactly once and all callers get the same shared network.
func TestStoreNetworkSingleFlight(t *testing.T) {
	s := NewStore(8)
	var builds int32
	s.buildNetwork = func(g *graph.Graph) *subgraph.Network {
		atomic.AddInt32(&builds, 1)
		time.Sleep(10 * time.Millisecond)
		return subgraph.NewNetwork(g)
	}
	g := storeTestGraph(3)
	s.Put(g)
	const callers = 8
	var wg sync.WaitGroup
	nws := make([]*subgraph.Network, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nws[i], _ = s.Network(g.Digest())
		}(i)
	}
	wg.Wait()
	if got := atomic.LoadInt32(&builds); got != 1 {
		t.Fatalf("network built %d times, want 1", got)
	}
	for i, nw := range nws {
		if nw == nil || nw != nws[0] {
			t.Fatalf("caller %d got a different network (%p vs %p)", i, nw, nws[0])
		}
	}
	// A build in flight pins the entry: churn past the cap during the
	// build must not evict the graph under the builder.
	s2 := NewStore(1)
	entered := make(chan struct{})
	release := make(chan struct{})
	s2.buildNetwork = func(g *graph.Graph) *subgraph.Network {
		close(entered)
		<-release
		return subgraph.NewNetwork(g)
	}
	g2 := storeTestGraph(4)
	s2.Put(g2)
	got := make(chan bool, 1)
	go func() {
		_, ok := s2.Network(g2.Digest())
		got <- ok
	}()
	<-entered
	s2.Put(storeTestGraph(5)) // would evict g2 were it not pinned by the build
	close(release)
	if !<-got {
		t.Fatal("build lost its graph to eviction")
	}
}

// TestCountJobsBuildNoNetwork: count-mode jobs run the kernel on the
// store's bitset adjacency, so a count-only workload — uploads, count jobs
// by digest and inline, a watched delta and the count job it forwards to —
// builds zero simulation networks. The first detect job then builds one.
func TestCountJobsBuildNoNetwork(t *testing.T) {
	s := New(Config{Workers: 2})
	var builds int32
	s.store.buildNetwork = func(g *graph.Graph) *subgraph.Network {
		atomic.AddInt32(&builds, 1)
		return subgraph.NewNetwork(g)
	}
	c := startTestServer(t, s)

	text, g := countEdgeList(t, 5)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	inline, _ := countEdgeList(t, 6)
	specs := []JobSpec{
		{Graph: up.Digest, Pattern: "triangle", Mode: ModeCount},
		{Graph: up.Digest, Pattern: "clique:4", Mode: ModeCount},
		{GraphInline: inline, Pattern: "clique:3", Mode: ModeCount},
	}
	for _, spec := range specs {
		v, status, err := c.SubmitJob(spec)
		if err != nil || status >= 300 {
			t.Fatalf("submit %+v: status %d err %v", spec, status, err)
		}
		if v, err = c.WaitJob(v.ID, 10*time.Second); err != nil || v.State != StateDone {
			t.Fatalf("count job %+v: %+v, %v", spec, v, err)
		}
	}
	e := g.Edges()[0]
	dv, status, err := c.ApplyDelta(up.Digest, DeltaRequest{
		Delete: [][2]int{{e[0], e[1]}}, Watch: []string{"triangle"},
	})
	if err != nil || status >= 300 {
		t.Fatalf("delta: status %d err %v", status, err)
	}
	v, _, err := c.SubmitJob(JobSpec{Graph: dv.Digest, Pattern: "triangle", Mode: ModeCount})
	if err != nil {
		t.Fatal(err)
	}
	if v, err = c.WaitJob(v.ID, 10*time.Second); err != nil || v.State != StateDone {
		t.Fatalf("count job on the delta child: %+v, %v", v, err)
	}
	if got := atomic.LoadInt32(&builds); got != 0 {
		t.Fatalf("count-only workload built %d networks, want 0", got)
	}

	v, _, err = c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	if v, err = c.WaitJob(v.ID, 20*time.Second); err != nil || v.State != StateDone {
		t.Fatalf("detect job: %+v, %v", v, err)
	}
	if got := atomic.LoadInt32(&builds); got != 1 {
		t.Fatalf("one detect job built %d networks, want 1", got)
	}
}

// TestKernelBatchFailsOnMissingGraph: a count job whose pinned graph is
// gone from the store when its kernel pass runs — an internal
// disagreement, unreachable through the API — fails loudly and counts,
// rather than being answered from a graph the store no longer holds.
func TestKernelBatchFailsOnMissingGraph(t *testing.T) {
	s := New(Config{})
	digest, _ := s.store.Put(storeTestGraph(60))
	j, aerr := s.prepare(JobSpec{Graph: digest, Pattern: "triangle", Mode: ModeCount})
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	if j.g != nil {
		t.Fatal("count job resolved a simulation network")
	}
	// Drop the entry behind its pin's back.
	s.store.mu.Lock()
	s.store.removeLocked(s.store.byHash[digest])
	s.store.mu.Unlock()

	j.batchClaimed = true
	s.runKernelBatch(j)
	select {
	case <-j.finished:
	default:
		t.Fatal("job not finished after its kernel pass")
	}
	if v := j.view(); v.State != StateFailed || v.Error == "" || v.Result != nil {
		t.Fatalf("job view %+v, want failed with an error", v)
	}
	if got := s.reg.Counter(MetricKernelGraphMissing).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricKernelGraphMissing, got)
	}
	if got := s.reg.Counter(MetricJobsFailed).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricJobsFailed, got)
	}
}

// TestStorePinBlocksEviction pins the satellite-2 fix: a pinned entry
// survives churn past the LRU bound, and unpinning re-enforces it.
func TestStorePinBlocksEviction(t *testing.T) {
	s := NewStore(2)
	pinned := storeTestGraph(10)
	s.Put(pinned)
	if !s.Pin(pinned.Digest()) {
		t.Fatal("Pin refused a stored digest")
	}
	// Churn far past the cap.
	for i := 0; i < 10; i++ {
		s.Put(storeTestGraph(int64(20 + i)))
	}
	if _, ok := s.Get(pinned.Digest()); !ok {
		t.Fatal("pinned graph was evicted under churn")
	}
	s.Unpin(pinned.Digest())
	// Now it is the LRU victim candidate again: one more insert with the
	// store over/at cap must be able to evict it.
	for i := 0; i < 3; i++ {
		s.Put(storeTestGraph(int64(40 + i)))
	}
	if _, ok := s.Get(pinned.Digest()); ok {
		t.Fatal("unpinned graph survived eviction pressure")
	}
	if s.Len() > 2 {
		t.Fatalf("store holds %d entries after unpin, cap 2", s.Len())
	}
	if s.Pin("no-such-digest") {
		t.Fatal("Pin accepted an unknown digest")
	}
}

// TestStoreLineage records parent→child links through PutChild and
// scrubs them on eviction of the child.
func TestStoreLineage(t *testing.T) {
	s := NewStore(8)
	parent := storeTestGraph(50)
	child := storeTestGraph(51)
	pd, _ := s.Put(parent)
	cd, deduped := s.PutChild(child, pd)
	if deduped {
		t.Fatal("fresh child reported deduped")
	}
	if got, ok := s.Parent(cd); !ok || got != pd {
		t.Fatalf("Parent(%s) = (%q,%v), want %q", cd, got, ok, pd)
	}
	if kids := s.Children(pd); len(kids) != 1 || kids[0] != cd {
		t.Fatalf("Children = %v, want [%s]", kids, cd)
	}
	if info, _ := s.Info(cd); info.Parent != pd {
		t.Fatalf("Info.Parent = %q, want %q", info.Parent, pd)
	}
	// A graph is never recorded as its own parent.
	if _, dd := s.PutChild(parent, pd); !dd {
		t.Fatal("parent re-put as its own child not deduped")
	}
	if got, ok := s.Parent(pd); ok {
		t.Fatalf("Parent(%s) = %q after PutChild onto itself, want none", pd, got)
	}
	if kids := s.Children(pd); len(kids) != 1 || kids[0] != cd {
		t.Fatalf("Children after PutChild onto itself = %v, want [%s]", kids, cd)
	}
	// Re-deriving the same child from a different parent keeps the first
	// lineage.
	other := storeTestGraph(52)
	od, _ := s.Put(other)
	if _, dd := s.PutChild(child, od); !dd {
		t.Fatal("identical child graph not deduped")
	}
	if got, _ := s.Parent(cd); got != pd {
		t.Fatalf("lineage overwritten: Parent = %q, want %q", got, pd)
	}
	// Evicting the child scrubs its lineage records.
	tiny := NewStore(1)
	tiny.Put(parent)
	tiny.PutChild(child, pd) // evicts parent (cap 1)
	tiny.Put(other)          // evicts child
	if _, ok := tiny.Parent(cd); ok {
		t.Fatal("evicted child still has a parent record")
	}
	if kids := tiny.Children(pd); len(kids) != 0 {
		t.Fatalf("evicted child still listed: %v", kids)
	}
}

// TestStoreConcurrentChurn hammers Put/Get/Pin/Unpin under -race.
func TestStoreConcurrentChurn(t *testing.T) {
	s := NewStore(4)
	graphs := make([]*graph.Graph, 12)
	for i := range graphs {
		graphs[i] = storeTestGraph(int64(100 + i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				g := graphs[rng.Intn(len(graphs))]
				d := g.Digest()
				switch rng.Intn(4) {
				case 0:
					s.Put(g)
				case 1:
					s.Get(d)
				case 2:
					if s.Pin(d) {
						s.Unpin(d)
					}
				case 3:
					s.List()
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > len(graphs) {
		t.Fatalf("store grew past the working set: %d", s.Len())
	}
	// All pins released: the bound must hold after one more insert.
	s.Put(storeTestGraph(999))
	if s.Len() > 4 {
		t.Fatalf("store over cap with no pins: %d", s.Len())
	}
}

// chainDelta draws a delta of two deletes and two inserts against g.
func chainDelta(rng *rand.Rand, g *graph.Graph) DeltaRequest {
	var req DeltaRequest
	edges := g.Edges()
	for len(req.Delete) < 2 {
		e := edges[rng.Intn(len(edges))]
		if !slices.Contains(req.Delete, e) {
			req.Delete = append(req.Delete, e)
		}
	}
	for len(req.Insert) < 2 {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		e := [2]int{min(u, v), max(u, v)}
		if u != v && !g.HasEdge(u, v) && !slices.Contains(req.Insert, e) {
			req.Insert = append(req.Insert, e)
		}
	}
	return req
}

// chainBase is a sparse graph with a planted K_6, so that K_3..K_6 all
// count to something.
func chainBase() *graph.Graph {
	rng := rand.New(rand.NewSource(23))
	g, _ := graph.PlantClique(graph.GNP(200, 0.05, rng), 6, rng)
	return g
}

// applyChain primes count jobs for primed on base, then applies steps
// chain deltas from it, each forwarding every primed count and watching
// the primed patterns. It returns the digests from base to the last child
// and the last child's graph.
func applyChain(t *testing.T, c *Client, base *graph.Graph, primed []string, steps int) ([]string, *graph.Graph) {
	t.Helper()
	up, err := c.UploadGraph(edgeListOf(t, base))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range primed {
		v, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: p, Mode: ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		if v, err = c.WaitJob(v.ID, 10*time.Second); err != nil || v.State != StateDone {
			t.Fatalf("priming %s: %+v, %v", p, v, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	digests, cur := []string{up.Digest}, base
	for step := 0; step < steps; step++ {
		req := chainDelta(rng, cur)
		req.Watch = primed
		view, status, err := c.ApplyDelta(digests[step], req)
		if err != nil || status != http.StatusCreated {
			t.Fatalf("step %d: status %d, %v", step, status, err)
		}
		if view.Forwarded != len(primed) {
			t.Fatalf("step %d forwarded %d counts, want %d", step, view.Forwarded, len(primed))
		}
		for _, w := range view.Watch {
			if !w.Incremental {
				t.Fatalf("step %d: watch %+v was not incremental", step, w)
			}
		}
		res, err := graph.ApplyDelta(cur, graph.EdgeDelta{Insert: req.Insert, Delete: req.Delete})
		if err != nil {
			t.Fatal(err)
		}
		digests, cur = append(digests, view.Digest), res.Graph
	}
	return digests, cur
}

// scratchCount is the count job result a scratch build of g answers.
func scratchCount(s *Server, g *graph.Graph, size int) *JobResult {
	b := graph.NewBitAdjacency(g)
	return CountResult(s.kernel.Count(b, size), b.Mode())
}

// holdsBits reports whether the store keeps an adjacency for digest,
// without building one.
func holdsBits(s *Store, digest string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byHash[digest]
	return ok && el.Value.(*storedGraph).bits != nil
}

// TestDeltaChainPeelsOnlyTheBase follows a 20-step watched delta chain
// whose counts are forwarded, counting adjacency builds through the
// store's seam: only the base graph, which the priming count jobs
// counted, is peeled, and no stored child holds an adjacency. Count jobs
// on the last child for a forwarded size hit the cache, and for a size
// nobody primed build the child's adjacency from scratch; both answers
// must be byte-identical to a scratch count's.
func TestDeltaChainPeelsOnlyTheBase(t *testing.T) {
	s := New(Config{Workers: 2})
	var mu sync.Mutex
	var peeled []string
	s.store.buildBits = func(g *graph.Graph) *graph.BitAdjacency {
		mu.Lock()
		peeled = append(peeled, g.Digest())
		mu.Unlock()
		return graph.NewBitAdjacency(g)
	}
	c := startTestServer(t, s)

	digests, last := applyChain(t, c, chainBase(), []string{"triangle", "clique:4"}, 20)
	mu.Lock()
	if len(peeled) != 1 || peeled[0] != digests[0] {
		t.Fatalf("peeled %v, want only the base %s", peeled, digests[0])
	}
	mu.Unlock()
	for i, d := range digests[1:] {
		if holdsBits(s.store, d) {
			t.Fatalf("step %d's child holds an adjacency", i)
		}
	}

	for _, p := range []struct {
		pattern string
		size    int
		cached  bool
	}{{"clique:4", 4, true}, {"clique:5", 5, false}} {
		v, _, err := c.SubmitJob(JobSpec{Graph: digests[20], Pattern: p.pattern, Mode: ModeCount})
		if err != nil {
			t.Fatal(err)
		}
		if v, err = c.WaitJob(v.ID, 10*time.Second); err != nil || v.State != StateDone || v.Cached != p.cached {
			t.Fatalf("%s count on the last child: %+v, %v; want cached %v", p.pattern, v, err, p.cached)
		}
		got, _ := json.Marshal(v.Result)
		want, _ := json.Marshal(scratchCount(s, last, p.size))
		if string(got) != string(want) {
			t.Fatalf("%s count on the last child answered %s, a scratch count %s", p.pattern, got, want)
		}
		if *v.Result.Count == 0 || v.Result.Algorithm != "kernel-bitset-dense" {
			t.Fatalf("result %s: want a dense count of the planted K_6's %s", got, p.pattern)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(peeled) != 2 || peeled[1] != digests[20] {
		t.Fatalf("peeled %v, want the base, then the last child once", peeled)
	}
}

// TestConcurrentCountsOnRowlessChild submits count jobs for every clique
// size at once on a delta child that holds no adjacency yet. Empty deltas
// watching the same sizes count on the child's adjacency from the delta
// handlers, and deltas from the child count through its changed edges.
// Under -race this runs the child's one adjacency build, single-flighted
// through the store, from several goroutines against concurrent kernel
// passes and CountDelta calls.
func TestConcurrentCountsOnRowlessChild(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 4})
	digests, child := applyChain(t, c, chainBase(), []string{"triangle"}, 1)
	if holdsBits(s.store, digests[1]) {
		t.Fatal("the child holds an adjacency after a delta whose counts forward")
	}
	var wg sync.WaitGroup
	for size := 3; size <= 8; size++ {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(size int) {
				defer wg.Done()
				v, _, err := c.SubmitJob(JobSpec{Graph: digests[1], Pattern: fmt.Sprintf("clique:%d", size), Mode: ModeCount})
				if err == nil {
					v, err = c.WaitJob(v.ID, 20*time.Second)
				}
				if err != nil || v.State != StateDone {
					t.Errorf("clique:%d count: %+v, %v", size, v, err)
					return
				}
				if want := scratchCount(s, child, size); *v.Result.Count != *want.Count || v.Result.Algorithm != want.Algorithm {
					t.Errorf("clique:%d count %d (%s), scratch %d (%s)",
						size, *v.Result.Count, v.Result.Algorithm, *want.Count, want.Algorithm)
				}
			}(size)
		}
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			watch := fmt.Sprintf("clique:%d", size)
			view, status, err := c.ApplyDelta(digests[1], DeltaRequest{Watch: []string{watch}})
			if err != nil || status != http.StatusOK || len(view.Watch) != 1 {
				t.Errorf("empty delta watching %s: status %d, %+v, %v", watch, status, view, err)
				return
			}
			if want := scratchCount(s, child, size); *view.Watch[0].Count != *want.Count {
				t.Errorf("%s watch %d, scratch %d", watch, *view.Watch[0].Count, *want.Count)
			}
		}(size)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 4; i++ {
		req := chainDelta(rng, child)
		req.Watch = []string{"clique:4"}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, status, err := c.ApplyDelta(digests[1], req); err != nil || status != http.StatusCreated {
				t.Errorf("delta from the rowless child: status %d, %v", status, err)
			}
		}()
	}
	wg.Wait()
}
