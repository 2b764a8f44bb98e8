package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/graph"
)

// newTestServer starts a Server behind httptest and returns a typed client
// for it. Cleanup drains the worker budget (tests using holdJobs must
// release their holds first).
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	return s, startTestServer(t, s)
}

// startTestServer starts s behind an httptest server, draining both on
// cleanup. Tests that set a store seam do so between New and this call.
func startTestServer(t *testing.T, s *Server) *Client {
	t.Helper()
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := s.Drain(ctx); err != nil {
			t.Errorf("drain on cleanup: %v", err)
		}
		ts.Close()
	})
	return &Client{Base: ts.URL}
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

func counter(t *testing.T, c *Client, name string) int64 {
	t.Helper()
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	return m.Metrics.Counters[name]
}

func TestUploadDedupAndInfo(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, g := testEdgeList(t, 1)

	up1, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	if up1.Deduped {
		t.Fatal("first upload reported deduped")
	}
	if up1.Digest != g.Digest() {
		t.Fatalf("server digest %s != local %s", up1.Digest, g.Digest())
	}
	if up1.N != g.N() || up1.M != g.M() {
		t.Fatalf("server shape (%d,%d) != local (%d,%d)", up1.N, up1.M, g.N(), g.M())
	}

	up2, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	if !up2.Deduped || up2.Digest != up1.Digest {
		t.Fatalf("second upload: deduped=%v digest=%s, want deduped of %s", up2.Deduped, up2.Digest, up1.Digest)
	}
	if n := counter(t, c, MetricGraphDedups); n != 1 {
		t.Fatalf("dedup counter = %d, want 1", n)
	}

	// Round trip: the served edge list re-parses to the same digest.
	resp, err := http.Get(c.Base + "/v1/graphs/" + up1.Digest + "/edgelist")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	back, err := graph.ReadEdgeList(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if back.Digest() != up1.Digest {
		t.Fatalf("download round trip digest %s != %s", back.Digest(), up1.Digest)
	}
}

// TestJobMatchesLibrary pins the core service guarantee: a job's result —
// including the Stats JSON, byte for byte — equals the equivalent
// in-process library call.
func TestJobMatchesLibrary(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, g := testEdgeList(t, 2)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}

	for _, pattern := range []string{"triangle", "cycle:4", "path:3", "star:3", "clique:4"} {
		spec := JobSpec{Graph: up.Digest, Pattern: pattern, Options: subgraph.OptionsSpec{Seed: 9}}
		jv, status, err := c.SubmitJob(spec)
		if err != nil || (status != http.StatusAccepted && status != http.StatusOK) {
			t.Fatalf("%s: submit (%d, %v)", pattern, status, err)
		}
		if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil {
			t.Fatal(err)
		}
		if jv.State != StateDone {
			t.Fatalf("%s: state %s (%s)", pattern, jv.State, jv.Error)
		}

		h, err := subgraph.ParsePattern(pattern)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := subgraph.Detect(subgraph.NewNetwork(g), h, subgraph.Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if jv.Result.Detected != rep.Detected || jv.Result.Algorithm != rep.Algorithm ||
			jv.Result.Rounds != rep.Rounds || jv.Result.BandwidthBits != rep.BandwidthBits {
			t.Fatalf("%s: server (%v,%s,%d,%d) != library (%v,%s,%d,%d)", pattern,
				jv.Result.Detected, jv.Result.Algorithm, jv.Result.Rounds, jv.Result.BandwidthBits,
				rep.Detected, rep.Algorithm, rep.Rounds, rep.BandwidthBits)
		}
		want, err := json.Marshal(rep.Stats)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jv.Result.Stats, want) {
			t.Fatalf("%s: stats not byte-identical\nserver  %s\nlibrary %s", pattern, jv.Result.Stats, want)
		}
	}
}

func TestCacheHitSkipsEngine(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, _ := testEdgeList(t, 3)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: 4}}

	jv, _, err := c.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	runsBefore := counter(t, c, MetricDetectRuns)
	hitsBefore := counter(t, c, MetricCacheHits)

	jv2, status, err := c.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !jv2.Cached || jv2.State != StateDone {
		t.Fatalf("resubmit: HTTP %d cached=%v state=%s, want 200/cached/done", status, jv2.Cached, jv2.State)
	}
	if !bytes.Equal(jv2.Result.Stats, jv.Result.Stats) {
		t.Fatal("cached stats differ from original")
	}
	if got := counter(t, c, MetricDetectRuns); got != runsBefore {
		t.Fatalf("engine ran %d extra times for a cached job", got-runsBefore)
	}
	if got := counter(t, c, MetricCacheHits); got != hitsBefore+1 {
		t.Fatalf("cache hits moved %d, want 1", got-hitsBefore)
	}

	// A different seed is a different key: must miss.
	other := spec
	other.Options.Seed = 5
	jv3, status, err := c.SubmitJob(other)
	if err != nil {
		t.Fatal(err)
	}
	if status == http.StatusOK && jv3.Cached {
		t.Fatal("different seed served from cache")
	}
	if _, err := c.WaitJob(jv3.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestCachePatternAlias pins the key normalization: "triangle" and
// "cycle:3" are the same pattern graph and share a cache entry.
func TestCachePatternAlias(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, _ := testEdgeList(t, 5)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	jv, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = c.WaitJob(jv.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	jv2, status, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "cycle:3"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !jv2.Cached {
		t.Fatalf("cycle:3 after triangle: HTTP %d cached=%v, want alias cache hit", status, jv2.Cached)
	}
}

// TestSaturation429 pins admission control with the deterministic
// hold-jobs hook: 1 worker, queue depth 1, three submissions — the third
// must be rejected with 429 + Retry-After.
func TestSaturation429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.holdJobs = make(chan struct{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	text, _ := testEdgeList(t, 6)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(seed int64) JobSpec {
		return JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: seed}}
	}

	// Job 1 is picked up by the (held) worker, emptying the queue.
	jv1, status, err := c.SubmitJob(spec(1))
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("job 1: (%d, %v)", status, err)
	}
	waitFor(t, func() bool { return len(s.queue) == 0 })

	// Job 2 fills the queue; job 3 must bounce.
	jv2, status, err := c.SubmitJob(spec(2))
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("job 2: (%d, %v)", status, err)
	}
	resp := rawSubmit(t, ts.URL, spec(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if n := counter(t, c, MetricJobsRejected); n != 1 {
		t.Fatalf("rejected counter = %d, want 1", n)
	}
	// The bounced job must not be pollable.
	if r2, err := http.Get(ts.URL + "/v1/jobs/j-000004"); err == nil {
		if r2.StatusCode != http.StatusNotFound {
			t.Fatalf("rejected job pollable with HTTP %d", r2.StatusCode)
		}
		r2.Body.Close()
	}

	// Release the holds; both admitted jobs must finish.
	close(s.holdJobs)
	for _, id := range []string{jv1.ID, jv2.ID} {
		jv, err := c.WaitJob(id, 30*time.Second)
		if err != nil || jv.State != StateDone {
			t.Fatalf("job %s after release: %s (%v)", id, jv.State, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDrain pins the SIGTERM path: draining answers 503 on /healthz and
// new submissions while every already-admitted job runs to completion.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.holdJobs = make(chan struct{})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := &Client{Base: ts.URL}

	text, _ := testEdgeList(t, 7)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		jv, status, err := c.SubmitJob(JobSpec{
			Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: seed},
		})
		if err != nil || status != http.StatusAccepted {
			t.Fatalf("seed %d: (%d, %v)", seed, status, err)
		}
		ids = append(ids, jv.ID)
	}

	s.BeginDrain()
	if h, status, _ := c.Health(); status != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("/healthz while draining: (%d, %+v)", status, h)
	}
	resp := rawSubmit(t, ts.URL, JobSpec{Graph: up.Digest, Pattern: "triangle"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, want 503", resp.StatusCode)
	}

	close(s.holdJobs)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	completed, err := s.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if completed < 2 {
		t.Fatalf("drain reported %d completed, want ≥ 2", completed)
	}
	for _, id := range ids {
		jv, err := c.Job(id)
		if err != nil || jv.State != StateDone {
			t.Fatalf("job %s after drain: %s (%v)", id, jv.State, err)
		}
	}
}

func TestInlineGraphJob(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, g := testEdgeList(t, 9)
	jv, status, err := c.SubmitJob(JobSpec{GraphInline: text, Pattern: "triangle"})
	if err != nil || (status != http.StatusAccepted && status != http.StatusOK) {
		t.Fatalf("inline submit: (%d, %v)", status, err)
	}
	if jv.Graph != g.Digest() {
		t.Fatalf("inline job stored digest %s, want %s", jv.Graph, g.Digest())
	}
	if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil || jv.State != StateDone {
		t.Fatalf("inline job: %s (%v)", jv.State, err)
	}
	// The inline upload is content-addressed like any other: a by-digest
	// submission now hits the same stored graph (and the result cache).
	jv2, status, err := c.SubmitJob(JobSpec{Graph: g.Digest(), Pattern: "triangle"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK || !jv2.Cached {
		t.Fatalf("by-digest resubmit: HTTP %d cached=%v, want cache hit", status, jv2.Cached)
	}
}

func TestTraceDownload(t *testing.T) {
	_, c := newTestServer(t, Config{})
	text, _ := testEdgeList(t, 10)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: up.Digest, Pattern: "triangle", Trace: true}
	jv, _, err := c.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil || jv.State != StateDone {
		t.Fatalf("traced job: %s (%v)", jv.State, err)
	}
	if !jv.Trace {
		t.Fatal("finished traced job does not advertise a trace")
	}
	data, err := c.Trace(jv.ID)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("trace has %d lines, want ≥ 2", len(lines))
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d is not JSON: %v\n%s", i+1, err, line)
		}
	}

	// A traced job bypasses the cache on lookup — resubmitting with
	// trace:true must execute again, not reuse the first run.
	runsBefore := counter(t, c, MetricDetectRuns)
	jv2, _, err := c.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if jv2, err = c.WaitJob(jv2.ID, 30*time.Second); err != nil || jv2.State != StateDone {
		t.Fatalf("second traced job: %s (%v)", jv2.State, err)
	}
	if got := counter(t, c, MetricDetectRuns); got != runsBefore+1 {
		t.Fatalf("traced resubmit ran engine %d times, want 1", got-runsBefore)
	}

	// Untraced jobs have no trace to download.
	jv3, _, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "path:3"})
	if err != nil {
		t.Fatal(err)
	}
	if jv3, err = c.WaitJob(jv3.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(jv3.ID); err == nil {
		t.Fatal("untraced job served a trace")
	}
}

// TestPartialResultNotCached pins the deadline path: an expired job
// returns a partial result, flagged as such, and is never cached.
func TestPartialResultNotCached(t *testing.T) {
	_, c := newTestServer(t, Config{MaxJobDeadline: 30 * time.Second})
	rng := rand.New(rand.NewSource(12))
	big, _ := subgraph.PlantClique(subgraph.GNP(200, 0.2, rng), 4, rng)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, big); err != nil {
		t.Fatal(err)
	}
	up, err := c.UploadGraph(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Graph: up.Digest, Pattern: "clique:4", Options: subgraph.OptionsSpec{DeadlineMs: 1}}
	jv, _, err := c.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if jv, err = c.WaitJob(jv.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if jv.State != StateDone || jv.Result == nil || !jv.Result.Partial {
		t.Fatalf("deadline job: state=%s partial=%v, want done/partial", jv.State, jv.Result != nil && jv.Result.Partial)
	}
	if jv.Result.AbortReason == "" {
		t.Fatal("partial result without abort reason")
	}
	jv2, status, err := c.SubmitJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	if status == http.StatusOK && jv2.Cached {
		t.Fatal("partial result was served from cache")
	}
	if _, err := c.WaitJob(jv2.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 3, QueueDepth: 17})
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 3 || m.QueueCap != 17 {
		t.Fatalf("metrics report workers=%d cap=%d, want 3/17", m.Workers, m.QueueCap)
	}
	// The full counter schema is present before any traffic.
	for _, name := range []string{
		MetricJobsSubmitted, MetricJobsCompleted, MetricJobsFailed, MetricJobsRejected,
		MetricJobsDraining, MetricCacheHits, MetricCacheMisses, MetricDetectRuns,
		MetricGraphUploads, MetricGraphDedups,
	} {
		if _, ok := m.Metrics.Counters[name]; !ok {
			t.Errorf("counter %s missing from /metrics", name)
		}
	}
	_ = s
}

func TestSelfCheck(t *testing.T) {
	_, c := newTestServer(t, Config{})
	if err := SelfCheck(c.Base, SelfCheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadGenSmoke replays a seeded burst with verbatim repeats: every
// job completes, the repeats hit the result cache, and the measured
// submit-to-done latencies are plausible.
func TestLoadGenSmoke(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 4})
	b := runBurst(t, c, 30, 4, 3, 40)
	if len(b.done) != 30 || b.errs != 0 || b.shed != 0 {
		t.Fatalf("burst: %d done / %d errors / %d shed, want 30/0/0", len(b.done), b.errs, b.shed)
	}
	if s.reg.Counter(MetricCacheHits).Value() == 0 {
		t.Error("burst mix produced no cache hits despite repeats")
	}
	lat := append([]int64(nil), b.latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p50, p99 := lat[len(lat)/2], lat[len(lat)*99/100]
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("implausible percentiles: p50=%d p99=%d", p50, p99)
	}
}

// burst is what runBurst observed.
type burst struct {
	done       []string // IDs of the jobs that ended done
	latencies  []int64  // submit-to-done nanoseconds, parallel to done
	errs, shed int
}

// runBurst uploads graphs seeded n-vertex graphs, each with a planted
// triangle, 4-cycle or 4-clique, and replays jobs specs over them from
// clients closed-loop clients sharing c: five patterns, half the jobs
// verbatim repeats of an earlier one. A final 429 counts as shed, any
// other failure as an error.
func runBurst(t *testing.T, c *Client, jobs, clients, graphs, n int) burst {
	t.Helper()
	// An upload failure sinks the whole run, so uploads get a more
	// patient policy than the jobs.
	patient := c.policy()
	if patient.MaxAttempts < 8 {
		patient.MaxAttempts = 8
	}
	up := &Client{Base: c.Base, Retry: &patient}

	rng := rand.New(rand.NewSource(1))
	digests := make([]string, graphs)
	for i := range digests {
		g := subgraph.GNP(n, 1.2/float64(n), rng)
		switch i % 3 {
		case 0:
			g, _ = subgraph.PlantClique(g, 3, rng)
		case 1:
			g, _ = subgraph.PlantCycle(g, 4, rng)
		case 2:
			g, _ = subgraph.PlantClique(g, 4, rng)
		}
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		uv, err := up.UploadGraph(buf.String())
		if err != nil {
			t.Fatalf("uploading graph %d: %v", i, err)
		}
		digests[i] = uv.Digest
	}
	patterns := []string{"triangle", "cycle:4", "clique:4", "path:4", "star:3"}
	specs := make([]JobSpec, jobs)
	for i := range specs {
		if i > 0 && rng.Float64() < 0.5 {
			specs[i] = specs[rng.Intn(i)]
			continue
		}
		specs[i] = JobSpec{
			Graph:   digests[rng.Intn(len(digests))],
			Pattern: patterns[rng.Intn(len(patterns))],
			Options: subgraph.OptionsSpec{Seed: int64(rng.Intn(16))},
		}
	}

	var (
		b    burst
		mu   sync.Mutex
		wg   sync.WaitGroup
		next = make(chan JobSpec)
	)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range next {
				t0 := time.Now()
				jv, status, err := c.SubmitJob(spec)
				if err == nil && status != http.StatusTooManyRequests && jv.State != StateDone && jv.State != StateFailed {
					jv, err = c.WaitJob(jv.ID, 60*time.Second)
				}
				lat := time.Since(t0).Nanoseconds()
				mu.Lock()
				switch {
				case status == http.StatusTooManyRequests:
					b.shed++
				case err != nil || jv.State != StateDone:
					b.errs++
					t.Logf("job %+v: HTTP %d, state %q, err %v", spec, status, jv.State, err)
				default:
					b.done = append(b.done, jv.ID)
					b.latencies = append(b.latencies, lat)
				}
				mu.Unlock()
			}
		}()
	}
	for _, spec := range specs {
		next <- spec
	}
	close(next)
	wg.Wait()
	return b
}

// rawSubmit posts a job spec and returns the raw response (body closed).
func rawSubmit(t *testing.T, base string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitJobOneRequest pins the blocking wait: WaitJob on a job that
// finishes about 100 ms after submission costs the worker exactly one
// GET /v1/jobs/{id}, parked until the job ends. A poller would have
// asked again and again in that time.
func TestWaitJobOneRequest(t *testing.T) {
	s := New(Config{Workers: 1})
	s.holdJobs = make(chan struct{})
	s.Start()
	h := s.Handler()
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			gets.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := &Client{Base: ts.URL}

	text, _ := testEdgeList(t, 21)
	up, err := c.UploadGraph(text)
	if err != nil {
		t.Fatal(err)
	}
	jv, status, err := c.SubmitJob(JobSpec{Graph: up.Digest, Pattern: "triangle"})
	if err != nil || status != http.StatusAccepted {
		t.Fatalf("submit: (%d, %v)", status, err)
	}
	release := time.AfterFunc(100*time.Millisecond, func() { close(s.holdJobs) })
	defer release.Stop()
	done, err := c.WaitJob(jv.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	if n := gets.Load(); n != 1 {
		t.Errorf("the worker saw %d GET /v1/jobs/{id} for one WaitJob, want 1", n)
	}
}
