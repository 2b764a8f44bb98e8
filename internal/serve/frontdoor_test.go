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
	"subgraph/internal/obs"
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
	return startDoorsRouted(t, cfg, cluster.Config{})
}

// startDoorsRouted is startDoors with the router's own config.
func startDoorsRouted(t *testing.T, cfg serve.Config, rcfg cluster.Config) []door {
	t.Helper()
	w, err := serve.StartInProcess(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = w.Close(20 * time.Second) })
	c, err := cluster.StartInProcess(2, cfg, rcfg)
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
				{"crash at round 0", `{"graph":"` + up.Digest + `","pattern":"triangle","options":{"faults":{"crashes":[{"vertex":0,"round":0}]}}}`, http.StatusBadRequest},
				{"resilient clique", `{"graph":"` + up.Digest + `","pattern":"clique:4","options":{"resilient":true}}`, http.StatusBadRequest},
				{"resilient path", `{"graph":"` + up.Digest + `","pattern":"path:3","options":{"resilient":true}}`, http.StatusBadRequest},
				{"bad inline graph", `{"graph_inline":"0 1 2 3 4","pattern":"triangle"}`, http.StatusBadRequest},
				{"inline graph beyond limits", string(tooBig), http.StatusRequestEntityTooLarge},
				{"oversized job body", oversized, http.StatusRequestEntityTooLarge},
				{"second job spec after the first", `{"graph":"` + up.Digest + `","pattern":"triangle"} {"pattern":"clique:4"}`, http.StatusBadRequest},
				{"garbage after the job spec", `{"graph":"` + up.Digest + `","pattern":"triangle"}garbage`, http.StatusBadRequest},
			}
			for _, tc := range cases {
				if got := post(t, d.base+"/v1/jobs", tc.body); got != tc.want {
					t.Errorf("%s: HTTP %d, want %d", tc.name, got, tc.want)
				}
			}
			if got := post(t, d.base+"/v1/graphs/"+up.Digest+"/delta", oversized); got != http.StatusRequestEntityTooLarge {
				t.Errorf("oversized delta body: HTTP %d, want 413", got)
			}
			// An edge is exactly two integers: a short or long array must
			// not be zero-filled or truncated into an edge nobody named.
			for _, op := range []string{"insert", "delete"} {
				for _, edge := range []string{"[5]", "[0,1,2]", "[]"} {
					body := `{"` + op + `":[` + edge + `]}`
					if got := post(t, d.base+"/v1/graphs/"+up.Digest+"/delta", body); got != http.StatusBadRequest {
						t.Errorf("delta %s: HTTP %d, want 400", body, got)
					}
				}
			}

			// A body holds one JSON value: a second one, or garbage, after
			// it must not be dropped without a word. A carried parent count
			// names a clique size in [2, 8] and is not negative.
			for _, body := range []string{
				`{"insert":[[0,2]]} {"delete":[[0,1]]}`,
				`{"insert":[[0,2]]}garbage`,
				`{"insert":[[0,2]],"parent_counts":{"9":1}}`,
				`{"insert":[[0,2]],"parent_counts":{"3":-1}}`,
			} {
				if got := post(t, d.base+"/v1/graphs/"+up.Digest+"/delta", body); got != http.StatusBadRequest {
					t.Errorf("delta %s: HTTP %d, want 400", body, got)
				}
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
			// The wait is checked before the job is looked up.
			for _, wait := range []string{"abc", "-1s"} {
				resp, err := http.Get(d.base + "/v1/jobs/j-999999?wait=" + wait)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("wait=%s: HTTP %d, want 400", wait, resp.StatusCode)
				}
			}
		})
	}
}

// TestUploadStreamErrors: an upload is parsed as its body streams in, and
// still answers as it did when the body was read whole first. On both
// doors a malformed body within the bound is a 400 naming the line, and a
// body over the bound is a 413 naming the read, even when its first line
// is malformed.
func TestUploadStreamErrors(t *testing.T) {
	// Just over the default 32 MiB body bound.
	oversized := strings.Repeat("0 1\n", 8<<20) + "\n"
	for _, d := range startDoors(t, serve.Config{}) {
		for _, tc := range []struct {
			name, body string
			status     int
			msg        string
		}{
			{"malformed", "0 1\n0 x\n", http.StatusBadRequest, `graph: line 2: bad edge "0 x"`},
			{"oversized", oversized, http.StatusRequestEntityTooLarge, "reading upload: http: request body too large"},
			{"malformed and oversized", "0 x\n" + oversized, http.StatusRequestEntityTooLarge, "reading upload: http: request body too large"},
		} {
			resp, err := http.Post(d.base+"/v1/graphs", "text/plain", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var reply struct {
				Error string `json:"error"`
			}
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil || resp.StatusCode != tc.status || reply.Error != tc.msg {
				t.Errorf("%s, %s upload: HTTP %d %q (%v), want %d %q", d.name, tc.name, resp.StatusCode, reply.Error, err, tc.status, tc.msg)
			}
		}
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

// TestJobWait pins GET /v1/jobs/{id}?wait= on both front doors. The job
// is held running by a blocking completion tap: a wait shorter than the
// hold answers the running job's view once it elapses, and a wait
// outlasting it wakes when the job ends, answering the terminal view in
// one request with the job's timeline already recorded.
func TestJobWait(t *testing.T) {
	var hold sync.Mutex
	tap := func(serve.JobDone) { hold.Lock(); hold.Unlock() }
	for _, d := range startDoors(t, serve.Config{Workers: 1, OnJobDone: tap}) {
		t.Run(d.name, func(t *testing.T) {
			c := &serve.Client{Base: d.base, Retry: serve.NoRetry()}
			up, err := c.UploadGraph(edgeList(t, 9))
			if err != nil {
				t.Fatal(err)
			}
			hold.Lock()
			jv, status, err := c.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: "triangle"})
			if err != nil || status != http.StatusAccepted {
				hold.Unlock()
				t.Fatalf("submit: (%d, %v)", status, err)
			}
			get := func(wait string) (serve.JobView, time.Duration) {
				t.Helper()
				start := time.Now()
				resp, err := http.Get(d.base + "/v1/jobs/" + jv.ID + "?wait=" + wait)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var v serve.JobView
				if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("wait=%s: HTTP %d, %v", wait, resp.StatusCode, err)
				}
				return v, time.Since(start)
			}

			v, took := get("50ms")
			if v.State == serve.StateDone || v.State == serve.StateFailed || took < 50*time.Millisecond {
				t.Errorf("wait=50ms on a held job: state %s after %v, want a running view after at least 50ms", v.State, took)
			}
			time.AfterFunc(100*time.Millisecond, hold.Unlock)
			v, took = get("5s")
			if v.State != serve.StateDone || took >= 5*time.Second {
				t.Fatalf("wait=5s across the job's end: state %s after %v, want done before the wait runs out", v.State, took)
			}
			if _, err := c.DebugJob(jv.ID); err != nil {
				t.Errorf("woken to a terminal view before the timeline was recorded: %v", err)
			}
		})
	}
}

// TestReportOnlyOnTracedJobs pins what a detect answer carries on both
// front doors. An untraced view and every cache hit carry no run report,
// and their stats bytes equal json.Marshal of the library's Stats. A
// traced view carries a report whose counters equal its Stats. After a
// traced job, the same spec untraced is a cache hit without a report:
// the worker caches the traced job's answer alone. The router owns each
// graph on one worker here, so that hit does not depend on which of two
// owners the router picks.
func TestReportOnlyOnTracedJobs(t *testing.T) {
	for _, d := range startDoorsRouted(t, serve.Config{}, cluster.Config{Replication: 1}) {
		t.Run(d.name, func(t *testing.T) {
			c := &serve.Client{Base: d.base, Retry: serve.NoRetry()}
			text := edgeList(t, 21)
			up, err := c.UploadGraph(text)
			if err != nil {
				t.Fatal(err)
			}
			g, err := graph.ReadEdgeList(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			h, err := subgraph.ParsePattern("triangle")
			if err != nil {
				t.Fatal(err)
			}
			library := func(seed int64) subgraph.Stats {
				rep, err := subgraph.Detect(subgraph.NewNetwork(g), h, subgraph.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				return rep.Stats
			}
			type wireView struct {
				State  string                     `json:"state"`
				Cached bool                       `json:"cached"`
				Result map[string]json.RawMessage `json:"result"`
			}
			// run submits spec, waits for its end and returns the raw
			// terminal view, checking its stats bytes against the library.
			run := func(spec serve.JobSpec) (wireView, int) {
				t.Helper()
				jv, status, err := c.SubmitJob(spec)
				if err != nil {
					t.Fatalf("submit %+v: HTTP %d: %v", spec, status, err)
				}
				resp, err := http.Get(d.base + "/v1/jobs/" + jv.ID + "?wait=5s")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var body bytes.Buffer
				if _, err := body.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				var v wireView
				if err := json.Unmarshal(body.Bytes(), &v); err != nil || v.State != serve.StateDone {
					t.Fatalf("job %s: state %q, %v: %s", jv.ID, v.State, err, body.Bytes())
				}
				want, _ := json.Marshal(library(spec.Options.Seed))
				if got := v.Result["stats"]; !bytes.Equal(got, want) {
					t.Errorf("seed %d: stats %s, library %s", spec.Options.Seed, got, want)
				}
				return v, body.Len()
			}
			spec := serve.JobSpec{Graph: up.Digest, Pattern: "triangle", Options: subgraph.OptionsSpec{Seed: 5}}

			v, size := run(spec)
			if _, ok := v.Result["report"]; ok || v.Cached {
				t.Errorf("untraced run: cached %v, report present %v", v.Cached, ok)
			}
			if size > 1024 {
				t.Errorf("untraced view is %d bytes, want at most 1 KiB", size)
			}
			if v, _ = run(spec); !v.Cached {
				t.Error("repeated untraced spec was not a cache hit")
			} else if _, ok := v.Result["report"]; ok {
				t.Error("cache hit carries a report")
			}

			traced := spec
			traced.Options.Seed, traced.Trace = 6, true
			v, _ = run(traced)
			var rep obs.RunReport
			if err := json.Unmarshal(v.Result["report"], &rep); err != nil || v.Cached {
				t.Fatalf("traced run: cached %v, report %s: %v", v.Cached, v.Result["report"], err)
			}
			st := library(6)
			for name, want := range map[string]int64{
				obs.MetricRounds: int64(st.Rounds), obs.MetricBits: st.TotalBits, obs.MetricMessages: st.TotalMessages,
			} {
				if got := rep.Metrics.Counters[name]; got != want {
					t.Errorf("traced report %s = %d, Stats say %d", name, got, want)
				}
			}

			untraced := traced
			untraced.Trace = false
			if v, _ = run(untraced); !v.Cached {
				t.Error("untraced spec after its traced run was not a cache hit")
			} else if _, ok := v.Result["report"]; ok {
				t.Error("cache hit after a traced run carries the traced run's report")
			}
		})
	}
}
