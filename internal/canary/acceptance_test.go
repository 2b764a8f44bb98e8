package canary

import (
	"bytes"
	"context"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/graph"
	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// TestChaosCanaryAcceptance is the robustness acceptance run. A seeded
// 200-job burst from 8 clients on the default retry policy hits a
// 2-worker daemon behind chaos fault injection (10% 429, 5% 503, 10%
// delays of up to 25 ms), with a 150 ms p99 SLO that sheds the 30% of
// jobs sent at low priority first, and the canary re-checking every
// completed job.
// It requires:
//   - zero canary divergences over a non-empty checked set;
//   - errors within 1% of jobs (a final 429 is a shed, not an error);
//   - some injected faults, at least 99% of retried calls recovering,
//     and some cache hits;
//   - every done job's /debug/jobs/{id} timeline totalling its reported
//     latency, with its phases in order from admission to response;
//   - a /metrics?format=prom page that parses strictly;
//   - a clean drain.
func TestChaosCanaryAcceptance(t *testing.T) {
	const (
		jobs    = 200
		clients = 8
	)
	reg := obs.NewRegistry()
	artifacts := t.TempDir()
	cn := New(Config{
		Fraction:    1,
		Seed:        1,
		ArtifactDir: artifacts,
		Registry:    reg,
		Logger:      slog.New(slog.NewTextHandler(testWriter{t}, nil)),
	})
	srv := serve.New(serve.Config{
		Workers:  2,
		Registry: reg,
		SLO:      serve.SLOConfig{LatencyBudget: 150 * time.Millisecond},
		// Shed, bounced and coalesced submissions record timelines too,
		// and under chaos a job may be submitted several times: size the
		// ring for every submission so no done job's timeline is evicted.
		FlightRecorderSize: jobs * 8,
		OnJobDone:          cn.OnJobDone,
	})
	srv.Start()
	chaos := serve.NewChaos(serve.ChaosConfig{
		Seed:        1,
		Reject429:   0.10,
		Fail503:     0.05,
		LatencyRate: 0.10,
		LatencyMax:  25 * time.Millisecond,
	}, reg)
	ts := httptest.NewServer(chaos.Middleware(srv.Handler()))
	defer ts.Close()

	c := &serve.Client{Base: ts.URL}
	specs := chaosMix(t, ts.URL, jobs)

	var (
		mu         sync.Mutex
		done       []string
		errs, shed int
		wg         sync.WaitGroup
	)
	next := make(chan serve.JobSpec)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for spec := range next {
				jv, status, err := c.SubmitJob(spec)
				if err == nil && status != http.StatusTooManyRequests && jv.State != serve.StateDone && jv.State != serve.StateFailed {
					jv, err = c.WaitJob(jv.ID, 60*time.Second)
				}
				mu.Lock()
				switch {
				case status == http.StatusTooManyRequests:
					shed++
				case err != nil || jv.State != serve.StateDone:
					errs++
					t.Logf("job %+v: HTTP %d, state %q, err %v", spec, status, jv.State, err)
				default:
					done = append(done, jv.ID)
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

	cs := c.Stats.View()
	injected := reg.Counter(serve.MetricChaos429).Value() + reg.Counter(serve.MetricChaos503).Value()
	t.Logf("%d done, %d shed, %d errors; %d injected faults, %d retries, %.1f%% recovered",
		len(done), shed, errs, injected, cs.Retries, cs.RetrySuccessPct)
	if len(done) == 0 {
		t.Fatal("the burst completed no jobs")
	}
	if injected == 0 {
		t.Error("chaos injected no faults")
	}
	if errs*100 > jobs {
		t.Errorf("%d of %d jobs errored, budget 1%%", errs, jobs)
	}
	if cs.RetrySuccessPct < 99 {
		t.Errorf("retry success %.1f%% under chaos, want at least 99%%", cs.RetrySuccessPct)
	}
	if reg.Counter(serve.MetricCacheHits).Value() == 0 {
		t.Error("a mix with 50% repeats produced no cache hits")
	}

	for _, id := range done {
		tl, err := c.DebugJob(id)
		if err != nil {
			t.Fatalf("done job %s has no retrievable timeline: %v", id, err)
		}
		jv, err := c.Job(id)
		if err != nil {
			t.Fatalf("done job %s not pollable: %v", id, err)
		}
		if tl.TotalNs != jv.LatencyNs {
			t.Fatalf("job %s: timeline total %d != reported latency %d", id, tl.TotalNs, jv.LatencyNs)
		}
		if v, _ := tl.SpanByName("cache_lookup").Annotation("result"); v == "hit" {
			phaseOrder(t, tl, "admission", "cache_lookup")
		} else {
			phaseOrder(t, tl, "admission", "cache_lookup", "queue_wait", "engine_run", "response")
		}
	}

	page, err := c.MetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParsePrometheus(bytes.NewReader(page)); err != nil {
		t.Fatalf("/metrics?format=prom does not parse: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Divergences are reported before a drain timeout: shrinking their
	// artifacts is what slows a canary down.
	derr := cn.Drain(ctx)
	checked := reg.Counter(MetricChecked).Value()
	if n := cn.Divergences(); n != 0 {
		paths, _ := filepath.Glob(filepath.Join(artifacts, "*.json"))
		for _, p := range paths {
			data, _ := os.ReadFile(p)
			t.Logf("%s:\n%s", filepath.Base(p), data)
		}
		t.Fatalf("%d canary divergences over %d checked jobs", n, checked)
	}
	if derr != nil {
		t.Fatalf("canary drain: %v", derr)
	}
	if checked == 0 {
		t.Fatal("the canary checked no jobs")
	}
	t.Logf("canary clean over %d checked jobs", checked)
}

// chaosMix uploads four seeded n=150 graphs, each with a planted
// triangle, 4-cycle or 4-clique, and draws n jobs over them: five
// patterns, half the jobs verbatim repeats of an earlier one, 30% of the
// fresh ones at low priority.
func chaosMix(t *testing.T, base string, n int) []serve.JobSpec {
	t.Helper()
	// An upload failure sinks the whole run, so uploads get a more
	// patient policy than the jobs.
	patient := serve.DefaultRetryPolicy()
	patient.MaxAttempts = 8
	up := &serve.Client{Base: base, Retry: &patient}

	rng := rand.New(rand.NewSource(1))
	digests := make([]string, 4)
	for i := range digests {
		g := subgraph.GNP(150, 1.2/150, rng)
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
	specs := make([]serve.JobSpec, n)
	for i := range specs {
		if i > 0 && rng.Float64() < 0.5 {
			specs[i] = specs[rng.Intn(i)]
			continue
		}
		specs[i] = serve.JobSpec{
			Graph:   digests[rng.Intn(len(digests))],
			Pattern: patterns[rng.Intn(len(patterns))],
			Options: subgraph.OptionsSpec{Seed: int64(rng.Intn(16))},
		}
		if rng.Float64() < 0.3 {
			specs[i].Priority = serve.PriorityLow
		}
	}
	return specs
}

// phaseOrder asserts the named spans exist in tl, each with a
// non-negative duration and starting no earlier than the previous one
// ends.
func phaseOrder(t *testing.T, tl *obs.TimelineView, names ...string) {
	t.Helper()
	var prev *obs.SpanView
	for _, name := range names {
		sp := tl.SpanByName(name)
		if sp == nil {
			t.Fatalf("timeline %s has no %q span:\n%+v", tl.TraceID, name, tl.Spans)
		}
		if sp.DurationNs() < 0 {
			t.Fatalf("timeline %s: %s has negative duration %d", tl.TraceID, name, sp.DurationNs())
		}
		if prev != nil && sp.StartNs < prev.EndNs {
			t.Fatalf("timeline %s: %s starts at %d before %s ends at %d",
				tl.TraceID, name, sp.StartNs, prev.Name, prev.EndNs)
		}
		prev = sp
	}
}
