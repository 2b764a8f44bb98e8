package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime/metrics"
	"strings"
	"time"

	"subgraph"
	"subgraph/internal/cluster"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// The traced run times each layer from outside, through its public
// surface: HTTP round trips by route, the server's own job spans and
// counters, and single-threaded library replays of the run's inputs.

// Recorder tags: reads are tagged with their index within the op.
const (
	tagSetup = -2
	tagWrite = -1
)

// HTTP routes the recorder tells apart.
const (
	routeSubmit = "submit"
	routePoll   = "poll"
	routeUpload = "upload"
	routeDelta  = "delta"
	routeOther  = "other"
)

func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/jobs":
		return routeSubmit
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/jobs/"):
		return routePoll
	case r.Method == http.MethodPost && p == "/v1/graphs":
		return routeUpload
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/v1/graphs/") && strings.HasSuffix(p, "/delta"):
		return routeDelta
	}
	return routeOther
}

// call is one timed HTTP round trip, response body included.
type call struct {
	tag   int
	route string
	dur   time.Duration
}

// recorder is an http.RoundTripper that times every round trip through
// it until the response body is drained. serve.Client runs a round trip
// and reads its body on the calling goroutine, and each recorder serves
// one goroutine, so it needs no lock.
type recorder struct {
	base  http.RoundTripper
	tag   int
	calls []call
}

func (r *recorder) setTag(tag int) {
	if r != nil {
		r.tag = tag
	}
}

func (r *recorder) RoundTrip(req *http.Request) (*http.Response, error) {
	c := call{tag: r.tag, route: routeOf(req)}
	t0 := time.Now()
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		c.dur = time.Since(t0)
		r.calls = append(r.calls, c)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		c.dur = time.Since(t0)
		r.calls = append(r.calls, c)
	}}
	return resp, nil
}

// timedBody reports when the body is drained, or closed unread.
type timedBody struct {
	io.ReadCloser
	done func()
}

func (b *timedBody) finish() {
	if b.done != nil {
		b.done()
		b.done = nil
	}
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// spanTally sums what the traced reads' server timelines attribute.
type spanTally struct {
	reads          int
	e2eNs          float64 // client-observed read time
	unattributedNs float64 // root-span time no direct child span covers
	queueNs        float64
	engineNs       float64
	bitsetNs       float64
	kernelNs       float64
	polls          int
	gapMs          []float64 // per read: e2e minus the read's own round trips
}

func (t *spanTally) add(o spanTally) {
	t.reads += o.reads
	t.e2eNs += o.e2eNs
	t.unattributedNs += o.unattributedNs
	t.queueNs += o.queueNs
	t.engineNs += o.engineNs
	t.bitsetNs += o.bitsetNs
	t.kernelNs += o.kernelNs
	t.polls += o.polls
	t.gapMs = append(t.gapMs, o.gapMs...)
}

// traceReads attributes a traced op's reads: its own HTTP calls, and the
// spans of the server timeline that answered each read. Behind a router,
// cache misses also bring the executing worker's timeline, found by the
// trace ID the router forwards.
func (w *worker) traceReads(views []serve.JobView, lat []time.Duration, calls []call, st *spanTally) error {
	for i, v := range views {
		var own time.Duration
		for _, c := range calls {
			if c.tag != i {
				continue
			}
			own += c.dur
			if c.route == routePoll {
				st.polls++
			}
		}
		st.reads++
		st.e2eNs += float64(lat[i])
		st.gapMs = append(st.gapMs, ms(lat[i]-own))
		front, err := w.timeline(w.s.dep.front, v.ID)
		if err != nil {
			return err
		}
		st.unattributedNs += float64(unattributed(front))
		exec := front
		if w.s.dep.cluster != nil && !v.Cached {
			base, err := w.s.dep.nodeBase(v.Node)
			if err != nil {
				return err
			}
			if exec, err = w.timeline(base, v.TraceID); err != nil {
				return err
			}
		}
		st.queueNs += spanNs(exec, "queue_wait")
		st.engineNs += spanNs(exec, "engine_run")
		st.bitsetNs += spanNs(exec, "bitset_build")
		st.kernelNs += spanNs(exec, "kernel_run")
	}
	return nil
}

// timeline fetches a job's span timeline from a node's flight recorder.
// A node publishes the timeline just after the job turns terminal, so a
// fetch racing that gets a short retry.
func (w *worker) timeline(base, id string) (*obs.TimelineView, error) {
	c := &serve.Client{Base: base, HTTPClient: w.s.hc, Retry: serve.NoRetry()}
	var err error
	for try := 0; try < 50; try++ {
		var tl *obs.TimelineView
		if tl, err = c.DebugJob(id); err == nil {
			return tl, nil
		}
		time.Sleep(time.Millisecond)
	}
	return nil, fmt.Errorf("fetching timeline of %s from %s: %w", id, base, err)
}

// unattributed is the root span's time not covered by its direct
// children.
func unattributed(tl *obs.TimelineView) int64 {
	if len(tl.Spans) == 0 {
		return 0
	}
	root := tl.Spans[0]
	covered := int64(0)
	for i := range tl.Spans {
		if tl.Spans[i].ParentID == root.SpanID {
			covered += tl.Spans[i].DurationNs()
		}
	}
	return max(0, tl.TotalNs-covered)
}

func spanNs(tl *obs.TimelineView, name string) float64 {
	var ns int64
	for _, sp := range tl.SpansByName(name) {
		ns += sp.DurationNs()
	}
	return float64(ns)
}

type counters map[string]int64

// counters reads the front door's counters (a router folds its workers'
// counters into the same names).
func (s *session) counters() (counters, error) {
	mv, err := s.client(s.dep.front, s.tr).Metrics()
	if err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	return mv.Metrics.Counters, nil
}

// procSample is the process's cumulative allocation and CPU split.
type procSample struct {
	allocBytes      float64
	gcCPU, totalCPU float64
}

func (p procSample) minus(q procSample) procSample {
	return procSample{p.allocBytes - q.allocBytes, p.gcCPU - q.gcCPU, p.totalCPU - q.totalCPU}
}

func sampleProc() procSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return procSample{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
	}
}

// detectTimes records library Detect runs. Nil records nothing.
type detectTimes struct {
	ms, rounds, messages []float64
}

func (d *detectTimes) add(dur time.Duration, rep *subgraph.Report) {
	if d == nil || rep == nil {
		return
	}
	d.ms = append(d.ms, ms(dur))
	d.rounds = append(d.rounds, float64(rep.Rounds))
	d.messages = append(d.messages, float64(rep.Stats.TotalMessages))
}

// Replay sizes: each input is replayed replayReps times; the key replays
// make keyPasses passes over the served specs.
const (
	replayReps = 3
	keyPasses  = 20
	hopSubmits = 200
)

func timeReps(into *[]float64, unit time.Duration, f func()) {
	for r := 0; r < replayReps; r++ {
		t0 := time.Now()
		f()
		*into = append(*into, float64(time.Since(t0))/float64(unit))
	}
}

// replayLibrary replays the run's distinct inputs through the library,
// one call at a time: every set-up graph and the uploads the traced
// clients kept through parse, digest, bitset and network builds and the
// clique kernels; the run's deltas (or, where a workload has none, one
// seeded delta of the same size per graph) through ApplyDelta and
// CountDelta; and the served specs through the cache-key path.
func (s *session) replayLibrary(m map[string]metric) error {
	texts := append([]string(nil), s.in.texts...)
	var steps []chainStep
	var specs []serve.JobSpec
	seen := make(map[string]bool)
	for _, w := range s.workers {
		texts = append(texts, w.uploads...)
		steps = append(steps, w.deltas...)
		for _, spec := range w.specs {
			if k := specKey(spec); !seen[k] {
				seen[k] = true
				specs = append(specs, spec)
			}
		}
	}
	k := kernel.New(0)
	defer k.Close()
	limits := graph.Limits{MaxVertices: 2_000_000, MaxEdges: 8_000_000} // serve.Config defaults
	var parse, digest, bitadj, network, count []float64
	var graphs []*graph.Graph
	for _, text := range texts {
		var g *graph.Graph
		var err error
		timeReps(&parse, time.Millisecond, func() { g, err = graph.ReadEdgeListLimits(strings.NewReader(text), limits) })
		if err != nil {
			return fmt.Errorf("replaying a parse: %w", err)
		}
		graphs = append(graphs, g)
		var b *graph.BitAdjacency
		timeReps(&digest, time.Millisecond, func() { _ = g.Digest() })
		timeReps(&bitadj, time.Millisecond, func() { b = graph.NewBitAdjacency(g) })
		timeReps(&network, time.Millisecond, func() { _ = subgraph.NewNetwork(g) })
		timeReps(&count, time.Millisecond, func() {
			for size := 3; size <= 5; size++ {
				k.Count(b, size)
			}
		})
	}
	if len(steps) == 0 {
		rng := rand.New(rand.NewSource(s.cfg.seed))
		for _, g := range graphs {
			steps = append(steps, chainStep{g, churnDelta(rng, g, churnChanges)})
		}
	}
	var apply, countDelta []float64
	for _, st := range steps {
		var res *graph.DeltaResult
		var err error
		timeReps(&apply, time.Microsecond, func() { res, err = graph.ApplyDelta(st.parent, st.delta) })
		if err != nil {
			return fmt.Errorf("replaying a delta: %w", err)
		}
		pb, cb := graph.NewBitAdjacency(st.parent), graph.NewBitAdjacency(res.Graph)
		pc := k.Count(pb, 4)
		timeReps(&countDelta, time.Microsecond, func() { k.CountDelta(st.parent, pb, res.Graph, cb, 4, res.Touched, pc) })
	}

	dt := s.detectTimes
	if dt == nil {
		// Count workloads serve no detect specs: replay triangle
		// detection on their first graph instead.
		dt = &detectTimes{}
		h, _ := subgraph.ParsePattern("triangle")
		t0 := time.Now()
		rep, err := subgraph.Detect(subgraph.NewNetwork(s.in.graphs[0]), h, subgraph.Options{Seed: 1})
		if err != nil {
			return fmt.Errorf("replaying triangle detection: %w", err)
		}
		dt.add(time.Since(t0), rep)
	}

	keys := make([]string, len(specs))
	cache := serve.NewCache(len(specs))
	for i, spec := range specs {
		keys[i] = specKey(spec)
		cache.Put(keys[i], &serve.JobResult{})
	}
	var getUs, keyUs []float64
	for p := 0; p < keyPasses && len(specs) > 0; p++ {
		t0 := time.Now()
		for _, key := range keys {
			cache.Get(key)
		}
		getUs = append(getUs, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(keys)))
		t0 = time.Now()
		for _, spec := range specs {
			_, _ = serve.SpecCacheKey(spec)
		}
		keyUs = append(keyUs, float64(time.Since(t0))/float64(time.Microsecond)/float64(len(specs)))
	}

	m["graph.parse_ms"] = metric{percentile(parse, 50), len(parse)}
	m["graph.digest_ms"] = metric{percentile(digest, 50), len(digest)}
	m["graph.bitadj_build_ms"] = metric{percentile(bitadj, 50), len(bitadj)}
	m["congest.network_build_ms"] = metric{percentile(network, 50), len(network)}
	m["kernel.count_ms"] = metric{percentile(count, 50), len(count)}
	m["graph.apply_delta_us"] = metric{percentile(apply, 50), len(apply)}
	m["kernel.count_delta_us"] = metric{percentile(countDelta, 50), len(countDelta)}
	m["core.detect_ms"] = metric{percentile(dt.ms, 50), len(dt.ms)}
	m["core.detect_p99_ms"] = metric{percentile(dt.ms, 99), len(dt.ms)}
	m["core.rounds_per_detect"] = metric{ratio(sum(dt.rounds), float64(len(dt.rounds))), len(dt.rounds)}
	m["core.messages_per_detect"] = metric{ratio(sum(dt.messages), float64(len(dt.messages))), len(dt.messages)}
	m["serve.cache_get_us"] = metric{percentile(getUs, 50), len(getUs)}
	m["serve.spec_key_us"] = metric{percentile(keyUs, 50), len(keyUs)}
	return nil
}

// routerHop times cache-hit submits of one spec alternately
// through the front door and directly at a node holding the answer; the
// difference of the medians is what the router hop adds. On a single
// node both sides are the same server, so it reads the method's noise.
func (s *session) routerHop() (metric, error) {
	// A triangle count on the graph of the last read: the graph is still
	// stored, and the answer is small, so the probe times the hop rather
	// than the encoding of a large result.
	spec := serve.JobSpec{Pattern: "triangle", Mode: serve.ModeCount}
	for _, w := range s.workers {
		if w.lastSpec.Graph != "" {
			spec.Graph = w.lastSpec.Graph
		}
	}
	if spec.Graph == "" {
		return metric{}, fmt.Errorf("router hop: the run served no read")
	}
	front := s.client(s.dep.front, s.tr)
	if _, err := runJob(front, spec); err != nil {
		return metric{}, fmt.Errorf("router hop: %w", err)
	}
	owner := front
	if s.dep.cluster != nil {
		owner = nil
		for _, wk := range s.dep.cluster.Workers {
			c := s.client(wk.BaseURL, s.tr)
			if _, err := runJob(c, spec); err == nil {
				owner = c
				break
			}
		}
		if owner == nil {
			return metric{}, fmt.Errorf("router hop: no worker holds graph %.12s", spec.Graph)
		}
	}
	var viaFront, direct []float64
	for i := 0; i < hopSubmits; i++ {
		for _, side := range []struct {
			c    *serve.Client
			into *[]float64
		}{{front, &viaFront}, {owner, &direct}} {
			t0 := time.Now()
			if _, _, err := side.c.SubmitJob(spec); err != nil {
				return metric{}, fmt.Errorf("router hop: %w", err)
			}
			*side.into = append(*side.into, ms(time.Since(t0)))
		}
	}
	return metric{percentile(viaFront, 50) - percentile(direct, 50), 2 * hopSubmits}, nil
}

// layerMetrics fills the metrics a traced run reports from the measured
// phase's tallies, counter deltas and process deltas, then runs the
// router-hop probe and the library replays.
func (s *session) layerMetrics(m map[string]metric, tallies []tally, before, after counters, proc procSample) error {
	delta := func(name string) float64 { return float64(after[name] - before[name]) }

	var st spanTally
	var serverMs, tracedMs, plainMs []float64
	var ops, deltas, incremental, forwarded int
	for i := range tallies {
		t := &tallies[i]
		st.add(t.spans)
		serverMs = append(serverMs, t.serverMs...)
		tracedMs = append(tracedMs, t.tracedReadMs...)
		plainMs = append(plainMs, t.plainReadMs...)
		ops += t.ops
		deltas += t.deltas
		incremental += t.incremental
		forwarded += t.forwarded
	}
	share := func(ns float64) metric { return metric{100 * ratio(ns, st.e2eNs), st.reads} }

	m["serve.server_ms"] = metric{percentile(serverMs, 50), len(serverMs)}
	m["serve.server_p99_ms"] = metric{percentile(serverMs, 99), len(serverMs)}
	m["serve.queue_wait_pct"] = share(st.queueNs)
	m["serve.engine_run_pct"] = share(st.engineNs)
	m["serve.bitset_build_pct"] = share(st.bitsetNs)
	m["serve.kernel_run_pct"] = share(st.kernelNs)
	m["trace.unattributed_pct"] = share(st.unattributedNs)
	hits, misses := delta(serve.MetricCacheHits), delta(serve.MetricCacheMisses)
	m["serve.cache_hit_ratio"] = metric{ratio(hits, hits+misses), int(hits + misses)}
	m["serve.jobs_per_kernel_run"] = metric{ratio(delta(serve.MetricKernelJobs), delta(serve.MetricKernelRuns)), int(delta(serve.MetricKernelRuns))}
	m["serve.incremental_ratio"] = metric{ratio(float64(incremental), float64(deltas)), deltas}
	m["serve.forwarded_per_delta"] = metric{ratio(float64(forwarded), float64(deltas)), deltas}
	m["cluster.hit_ratio"] = metric{ratio(delta(cluster.MetricCacheHits), delta(cluster.MetricJobsSubmitted)), int(delta(cluster.MetricJobsSubmitted))}

	routes := make(map[string][]float64)
	recs := []*recorder{s.setup}
	for _, w := range s.workers {
		recs = append(recs, w.rec)
	}
	for _, r := range recs {
		for _, c := range r.calls {
			routes[c.route] = append(routes[c.route], ms(c.dur))
		}
	}
	for _, r := range []struct{ name, route string }{
		{"http.submit_ms", routeSubmit}, {"http.poll_ms", routePoll}, {"http.upload_ms", routeUpload},
		{"http.delta_ms", routeDelta},
	} {
		m[r.name] = metric{percentile(routes[r.route], 50), len(routes[r.route])}
	}
	m["http.polls_per_read"] = metric{ratio(float64(st.polls), float64(st.reads)), st.reads}
	m["client.gap_ms"] = metric{percentile(st.gapMs, 50), len(st.gapMs)}
	m["client.gap_p99_ms"] = metric{percentile(st.gapMs, 99), len(st.gapMs)}

	m["runtime.alloc_kb_per_op"] = metric{ratio(proc.allocBytes/1024, float64(ops)), ops}
	m["runtime.gc_cpu_pct"] = metric{100 * ratio(proc.gcCPU, proc.totalCPU), ops}
	mean := func(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }
	m["trace.overhead_pct"] = metric{100 * (ratio(mean(tracedMs), mean(plainMs)) - 1), len(tracedMs) + len(plainMs)}

	hop, err := s.routerHop()
	if err != nil {
		return err
	}
	m["cluster.router_hop_ms"] = hop
	return s.replayLibrary(m)
}
