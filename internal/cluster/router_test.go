package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/serve"
)

// startTestCluster boots an in-process router + n workers and tears the
// whole topology down on cleanup.
func startTestCluster(t *testing.T, n int, workerCfg serve.Config, routerCfg Config) *InProcess {
	t.Helper()
	c, err := StartInProcess(n, workerCfg, routerCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(20 * time.Second); err != nil {
			t.Logf("cluster close: %v", err)
		}
	})
	return c
}

// testEdgeList renders a small seeded graph with a planted triangle.
func testEdgeList(t *testing.T, seed int64) (string, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _ := subgraph.PlantClique(subgraph.GNP(40, 0.06, rng), 3, rng)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String(), g
}

// workerIndex maps the Node a view reports (worker base URL before the
// first probe, node name after) back to the harness index.
func workerIndex(t *testing.T, c *InProcess, node string) int {
	t.Helper()
	for i, w := range c.Workers {
		if node == w.BaseURL || node == fmt.Sprintf("w%d", i) {
			return i
		}
	}
	t.Fatalf("view names unknown node %q", node)
	return -1
}

// TestClusterEndToEnd pins the tentpole contract: a job submitted to the
// router executes on a worker and returns the byte-identical Stats a
// direct library call produces.
func TestClusterEndToEnd(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 2}, Config{})
	text, g := testEdgeList(t, 3)

	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	jv, status, err := c.Client.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit status = %d", status)
	}
	done, err := c.Client.WaitJob(jv.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != serve.StateDone || done.Result == nil {
		t.Fatalf("job: state %s, err %q", done.State, done.Error)
	}
	if done.Node == "" {
		t.Error("terminal view does not name the answering node")
	}

	// Library ground truth, byte for byte.
	h, _ := subgraph.ParsePattern("triangle")
	opts, _ := (subgraph.OptionsSpec{}).Options()
	opts.Deadline = 60 * time.Second
	rep, err := subgraph.Detect(subgraph.NewNetwork(g), h, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantStats, _ := json.Marshal(rep.Stats)
	if !bytes.Equal(done.Result.Stats, wantStats) {
		t.Errorf("cluster Stats diverge from library:\n got %s\nwant %s", done.Result.Stats, wantStats)
	}
	if done.Result.Detected != rep.Detected {
		t.Errorf("Detected = %v, library says %v", done.Result.Detected, rep.Detected)
	}
}

// TestClusterSharedCache pins the shared-result-cache contract: once any
// worker computes a result, a repeat submission is answered at the
// router — no matter which worker owns the digest — and marked cached.
func TestClusterSharedCache(t *testing.T) {
	c := startTestCluster(t, 3, serve.Config{Workers: 1}, Config{})
	text, _ := testEdgeList(t, 5)
	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	spec := serve.JobSpec{Graph: up.Digest, Pattern: "clique:4"}

	jv, _, err := c.Client.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Client.WaitJob(jv.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != serve.StateDone {
		t.Fatalf("first run failed: %s", first.Error)
	}

	second, status, err := c.Client.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !second.Cached || second.State != serve.StateDone {
		t.Fatalf("repeat submit not a cache hit: status %d, view %+v", status, second)
	}
	if !bytes.Equal(second.Result.Stats, first.Result.Stats) {
		t.Error("cached Stats differ from the computed run")
	}
	if got := c.Router.reg.Counter(MetricCacheHits).Value(); got != 1 {
		t.Errorf("router cache hits = %d, want 1", got)
	}

	// The aggregated metrics view folds the router hit into the
	// cluster-wide serve_cache_hits_total that single-node tooling reads.
	mv, err := c.Client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if mv.Metrics.Counters[serve.MetricCacheHits] < 1 {
		t.Errorf("aggregated serve_cache_hits_total = %d, want >= 1",
			mv.Metrics.Counters[serve.MetricCacheHits])
	}
}

// TestClusterWorkerCrashRedispatch pins the failure contract: a job
// placed on a worker that dies before resolution is re-dispatched (at
// most once) to a surviving replica and completes with the usual result.
func TestClusterWorkerCrashRedispatch(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 1}, Config{Replication: 2})
	text, _ := testEdgeList(t, 7)
	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	// A job of tens of milliseconds: the router's waiter learns of an
	// outcome at once, so the job must still be running when its worker
	// dies.
	slow := serve.JobSpec{Graph: up.Digest, Pattern: "cycle:5", Options: subgraph.OptionsSpec{Reps: 400}}
	jv, status, err := c.Client.SubmitJob(slow)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202 (fresh spec must execute)", status)
	}

	// Kill the worker holding the job while it runs.
	if err := c.KillWorker(workerIndex(t, c, jv.Node)); err != nil {
		t.Fatal(err)
	}
	done, err := c.Client.WaitJob(jv.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != serve.StateDone || done.Result == nil {
		t.Fatalf("job after crash: state %s, err %q", done.State, done.Error)
	}
	if got := c.Router.reg.Counter(MetricJobsRedispatched).Value(); got != 1 {
		t.Errorf("redispatched = %d, want exactly 1", got)
	}
	if workerIndex(t, c, done.Node) == workerIndex(t, c, jv.Node) {
		t.Errorf("job resolved on the killed worker %q", done.Node)
	}
}

// TestClusterAdmissionBound pins cluster-wide admission control: with
// MaxInflight=1, a second submission bounces 429 + Retry-After while the
// first is unresolved, and is admitted again once it resolves.
func TestClusterAdmissionBound(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 1}, Config{MaxInflight: 1})
	text, _ := testEdgeList(t, 11)
	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	// A job of tens of milliseconds, so it is still in flight at the
	// second submit: the router's waiter frees the slot the moment a job
	// ends.
	jv, _, err := c.Client.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: "cycle:5", Options: subgraph.OptionsSpec{Reps: 400}})
	if err != nil {
		t.Fatal(err)
	}

	// Raw request: the typed client would retry the 429 away.
	body, _ := json.Marshal(serve.JobSpec{Graph: up.Digest, Pattern: "star:3"})
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}
	if got := c.Router.reg.Counter(MetricJobsRejected).Value(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}

	if _, err := c.Client.WaitJob(jv.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Client.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: "star:3"}); err != nil {
		t.Fatalf("submit after backlog cleared: %v", err)
	}
}

// TestClusterDrain pins the drain contract: after BeginDrain new submits
// bounce 503 while /healthz reports role router + draining under 503.
func TestClusterDrain(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 1}, Config{})
	c.Router.BeginDrain()

	body, _ := json.Marshal(serve.JobSpec{GraphInline: "0 1\n1 2\n2 0\n", Pattern: "triangle"})
	resp, err := http.Post(c.BaseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}

	hr, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", hr.StatusCode)
	}
	var hv serve.HealthView
	if err := json.NewDecoder(hr.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	if hv.Role != RoleRouter || !hv.Draining || hv.Status != "draining" {
		t.Fatalf("draining health view = %+v", hv)
	}
}

// TestClusterHealthView pins the healthy /healthz shape: role, node
// name, and shard (mirrored digest) count.
func TestClusterHealthView(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 1}, Config{NodeName: "front"})
	text, _ := testEdgeList(t, 13)
	if _, err := c.Client.UploadGraph(text); err != nil {
		t.Fatal(err)
	}
	var hv serve.HealthView
	resp, err := http.Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	if hv.Role != RoleRouter || hv.Node != "front" || hv.Shards != 1 || hv.Status != "ok" {
		t.Fatalf("health view = %+v", hv)
	}
}

// TestClusterShedsOnWorkerSLOLevels pins the fleet-fed admission gate: a
// stub worker advertising critical degradation through its /metrics
// gauge makes the router shed low/normal submissions at the front door
// (no forward round-trip), while high priority still goes through.
func TestClusterShedsOnWorkerSLOLevels(t *testing.T) {
	var submits atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			serve.WriteJSON(w, http.StatusOK, serve.HealthView{Status: "ok", Role: "worker", Node: "stub"})
		case r.URL.Path == "/v1/jobs" && r.Method == http.MethodPost:
			submits.Add(1)
			serve.WriteJSON(w, http.StatusAccepted, serve.JobView{ID: "j-000001", State: serve.StateRunning})
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()

	rt, err := New(Config{Members: []string{stub.URL}})
	if err != nil {
		t.Fatal(err)
	}
	// Directly set the scraped level the prober would have learned.
	rt.members[0].sloLevel.Store(2)

	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	post := func(priority string) int {
		body, _ := json.Marshal(serve.JobSpec{
			Graph:    "deadbeef",
			Pattern:  "triangle",
			Priority: priority,
		})
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := post(serve.PriorityLow); got != http.StatusTooManyRequests {
		t.Fatalf("low-priority under critical fleet = %d, want 429", got)
	}
	if got := post(""); got != http.StatusTooManyRequests {
		t.Fatalf("normal-priority under critical fleet = %d, want 429", got)
	}
	if n := submits.Load(); n != 0 {
		t.Fatalf("shed submissions reached the worker %d times", n)
	}
	if got := post(serve.PriorityHigh); got != http.StatusAccepted {
		t.Fatalf("high-priority under critical fleet = %d, want 202 (forwarded)", got)
	}
	if n := submits.Load(); n != 1 {
		t.Fatalf("high-priority submit did not reach the worker (hits %d)", n)
	}
	if got := rt.reg.Counter(MetricJobsShed).Value(); got != 2 {
		t.Errorf("cluster_jobs_shed_total = %d, want 2", got)
	}

	// Count jobs are the shedding rule's exception on both front doors:
	// workers batch-coalesce them, so even a low-priority one is forwarded.
	body, _ := json.Marshal(serve.JobSpec{
		Graph: "deadbeef", Pattern: "triangle", Mode: serve.ModeCount, Priority: serve.PriorityLow,
	})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("low-priority count job under critical fleet = %d, want 202 (forwarded)", resp.StatusCode)
	}
	if n := submits.Load(); n != 2 {
		t.Fatalf("count job did not reach the worker (hits %d)", n)
	}
}

// TestClusterDrainResolvesWithoutPollers pins Drain's active side: jobs
// nobody is polling still resolve (each job's waiter follows its worker).
func TestClusterDrainResolvesWithoutPollers(t *testing.T) {
	c := startTestCluster(t, 2, serve.Config{Workers: 2}, Config{})
	text, _ := testEdgeList(t, 17)
	up, err := c.Client.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, 0, 4)
	for i, p := range []string{"triangle", "clique:4", "path:3", "star:4"} {
		jv, _, err := c.Client.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: p})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, jv.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Router.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		v, err := c.Client.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != serve.StateDone {
			t.Errorf("job %s after drain: state %s, err %q", id, v.State, v.Error)
		}
	}
}

// TestClusterFollowsEachJobWithOneWait pins the router's waiter: each
// admitted job costs its worker exactly one GET /v1/jobs/{id}, a wait
// parked until the job ends, because the router answers its clients'
// reads — plain or parked — from its own record. The clients wake to the
// terminal view with the job's timeline already recorded. The jobs run
// at once, so -race sees waiters and readers share each record.
func TestClusterFollowsEachJobWithOneWait(t *testing.T) {
	const jobs = 4
	// The completion tap holds every job running for 50 ms.
	srv := serve.New(serve.Config{Workers: jobs, OnJobDone: func(serve.JobDone) { time.Sleep(50 * time.Millisecond) }})
	srv.Start()
	h := srv.Handler()
	var gets atomic.Int64
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			gets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer worker.Close()
	rt, err := New(Config{Members: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	c := &serve.Client{Base: front.URL}

	text, _ := testEdgeList(t, 19)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			jv, _, err := c.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: seed}})
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			if _, err := c.Job(jv.ID); err != nil {
				t.Errorf("plain read: %v", err)
				return
			}
			if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil || jv.State != serve.StateDone {
				t.Errorf("job %s: state %s, err %v", jv.ID, jv.State, err)
				return
			}
			if _, err := c.DebugJob(jv.ID); err != nil {
				t.Errorf("job %s reads done but its timeline is not recorded: %v", jv.ID, err)
			}
		}(int64(i))
	}
	wg.Wait()
	if n := gets.Load(); n != jobs {
		t.Errorf("the worker saw %d GET /v1/jobs/{id} for %d jobs, want one each", n, jobs)
	}
}
