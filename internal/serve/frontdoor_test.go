package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"subgraph"
	"subgraph/internal/cluster"
	"subgraph/internal/graph"
	"subgraph/internal/serve"
)

// door is one front door of subgraphd: a worker, or a router over two
// workers. Both share one front end, so every test here runs on both.
type door struct {
	name string
	base string
}

// startDoors boots a worker from cfg and a router over two workers from
// cfg. The router's upload limits are the worker defaults.
func startDoors(t *testing.T, cfg serve.Config) []door {
	t.Helper()
	w, err := serve.StartInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close(20 * time.Second) })
	c, err := cluster.StartInProcess(2, cfg, cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close(20 * time.Second) })
	return []door{{name: "worker", base: w.BaseURL}, {name: "router", base: c.BaseURL}}
}

// edgeList renders a small seeded graph with a planted triangle.
func edgeList(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, _ := subgraph.PlantClique(subgraph.GNP(40, 0.06, rng), 3, rng)
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func post(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestBadRequests runs one table of malformed submissions against both
// front doors: they share the spec rules, the body bound (413) and the
// upload limits.
func TestBadRequests(t *testing.T) {
	// Edge lists beyond each door's upload limits: the worker's are set
	// here, the router's are the worker defaults.
	beyondLimits := map[string]string{"worker": "n 100\n0 1", "router": "n 2000001\n0 1"}
	for _, d := range startDoors(t, serve.Config{GraphLimits: graph.Limits{MaxVertices: 50, MaxEdges: 200}}) {
		t.Run(d.name, func(t *testing.T) {
			c := &serve.Client{Base: d.base, Retry: serve.NoRetry()}
			text := edgeList(t, 8)
			up, err := c.UploadGraph(text)
			if err != nil {
				t.Fatal(err)
			}
			bothGraphs, _ := json.Marshal(serve.JobSpec{Graph: up.Digest, GraphInline: text, Pattern: "triangle"})
			tooBig, _ := json.Marshal(serve.JobSpec{GraphInline: beyondLimits[d.name], Pattern: "triangle"})
			// Just over the default 32 MiB body bound.
			oversized := "{" + strings.Repeat(" ", 32<<20) + "}"

			cases := []struct {
				name string
				body string
				want int
			}{
				{"unknown digest", `{"graph":"deadbeef","pattern":"triangle"}`, http.StatusNotFound},
				{"bad pattern", `{"graph":"` + up.Digest + `","pattern":"pentagram"}`, http.StatusBadRequest},
				{"no graph", `{"pattern":"triangle"}`, http.StatusBadRequest},
				{"both graphs", `{"graph":"x","graph_inline":"0 1","pattern":"triangle"}`, http.StatusBadRequest},
				{"both graphs, stored digest", string(bothGraphs), http.StatusBadRequest},
				{"unknown field", `{"graph":"` + up.Digest + `","pattern":"triangle","bogus":1}`, http.StatusBadRequest},
				{"bad options", `{"graph":"` + up.Digest + `","pattern":"triangle","options":{"reps":-4}}`, http.StatusBadRequest},
				{"bad inline graph", `{"graph_inline":"0 1 2 3 4","pattern":"triangle"}`, http.StatusBadRequest},
				{"inline graph beyond limits", string(tooBig), http.StatusRequestEntityTooLarge},
				{"oversized job body", oversized, http.StatusRequestEntityTooLarge},
			}
			for _, tc := range cases {
				if got := post(t, d.base+"/v1/jobs", tc.body); got != tc.want {
					t.Errorf("%s: HTTP %d, want %d", tc.name, got, tc.want)
				}
			}
			if got := post(t, d.base+"/v1/graphs/"+up.Digest+"/delta", oversized); got != http.StatusRequestEntityTooLarge {
				t.Errorf("oversized delta body: HTTP %d, want 413", got)
			}

			// Oversized raw upload → 413.
			if got := post(t, d.base+"/v1/graphs", beyondLimits[d.name]+"\n"); got != http.StatusRequestEntityTooLarge {
				t.Errorf("over-limit upload: HTTP %d, want 413", got)
			}
			if resp, err := http.Get(d.base + "/v1/jobs/j-999999"); err == nil {
				if resp.StatusCode != http.StatusNotFound {
					t.Errorf("unknown job: HTTP %d, want 404", resp.StatusCode)
				}
				resp.Body.Close()
			}
		})
	}
}

// TestTimelineRecordedBeforeTerminal pins the publication order: a job's
// timeline is in the flight recorder before the job reads as terminal.
// Pollers read GET /v1/jobs/{id} with no sleep and, the moment it reports
// a terminal state, fetch /debug/jobs/{id}, which must not 404 — for
// detect, count and cache-hit jobs, on one node and through a router.
func TestTimelineRecordedBeforeTerminal(t *testing.T) {
	const graphs, pollers, jobsPerPoller = 6, 4, 25
	// A slow completion tap widens any gap between a job turning terminal
	// and its timeline being recorded from microseconds to milliseconds.
	slowTap := func(serve.JobDone) { time.Sleep(5 * time.Millisecond) }
	for _, d := range startDoors(t, serve.Config{Workers: 2, OnJobDone: slowTap}) {
		t.Run(d.name, func(t *testing.T) {
			c := &serve.Client{Base: d.base, Retry: serve.NoRetry()}
			digests := make([]string, graphs)
			for i := range digests {
				up, err := c.UploadGraph(edgeList(t, int64(100+i)))
				if err != nil {
					t.Fatal(err)
				}
				digests[i] = up.Digest
			}
			var wg sync.WaitGroup
			for p := 0; p < pollers; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < jobsPerPoller; i++ {
						n := p*jobsPerPoller + i
						spec := serve.JobSpec{Graph: digests[n%graphs], Pattern: "triangle"}
						switch n % 3 {
						case 0: // a fresh engine run
							spec.Options.Seed = int64(n)
						case 1: // a kernel pass, or a cache hit once the size was counted
							spec.Pattern, spec.Mode = fmt.Sprintf("clique:%d", 3+n%4), serve.ModeCount
						case 2: // a cache hit once the seed-0 run finished
						}
						if err := submitAndCheckTimeline(c, spec); err != nil {
							t.Errorf("job %d (%+v): %v", n, spec, err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

func submitAndCheckTimeline(c *serve.Client, spec serve.JobSpec) error {
	jv, status, err := c.SubmitJob(spec)
	if err != nil {
		return fmt.Errorf("submit: HTTP %d: %w", status, err)
	}
	for jv.State != serve.StateDone && jv.State != serve.StateFailed {
		if jv, err = c.Job(jv.ID); err != nil {
			return fmt.Errorf("poll: %w", err)
		}
	}
	if _, err := c.DebugJob(jv.ID); err != nil {
		return fmt.Errorf("job %s reads %s but its timeline is not recorded: %w", jv.ID, jv.State, err)
	}
	return nil
}
