package main

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"subgraph/internal/cluster"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

const (
	// clients is the number of closed-loop client goroutines. They share
	// one HTTP transport holding at most this many connections per host.
	clients    = 2
	jobTimeout = 60 * time.Second
	// setupRuns is how many times an untraced run sets up; setup_s is the
	// median, so one slow boot does not move it.
	setupRuns = 3
)

// config is one benchmark run.
type config struct {
	wl      *workload
	seed    int64
	seconds float64 // length of the measured phase
	trace   bool
	nodes   int // worker nodes; 0 takes the workload's
	setups  int // set-ups per run; 0 takes setupRuns, or 1 when tracing
	warmup  int // warm-up ops; 0 takes the workload's
	heapOps int // measured ops per client before the heap sample; 0 takes the workload's
	// tamper, when set, alters every served read before it is checked
	// (tests use it to prove a wrong answer fails the run).
	tamper func(*serve.JobView)
}

func (c config) withDefaults() config {
	if c.nodes <= 0 {
		c.nodes = c.wl.nodes
	}
	if c.setups <= 0 {
		c.setups = setupRuns
		if c.trace {
			c.setups = 1
		}
	}
	if c.warmup <= 0 {
		c.warmup = c.wl.warmup
	}
	if c.heapOps <= 0 {
		c.heapOps = c.wl.heapOps
	}
	return c
}

// deployment is subgraphd running in-process on loopback: one node, or a
// router over several worker nodes.
type deployment struct {
	front   string
	single  *serve.InProcess
	cluster *cluster.InProcess
}

func deploy(nodes int, node serve.Config) (*deployment, error) {
	if nodes <= 1 {
		p, err := serve.StartInProcess(node)
		if err != nil {
			return nil, err
		}
		return &deployment{front: p.BaseURL, single: p}, nil
	}
	c, err := cluster.StartInProcess(nodes, node, cluster.Config{})
	if err != nil {
		return nil, err
	}
	return &deployment{front: c.BaseURL, cluster: c}, nil
}

func (d *deployment) close() error {
	if d.single != nil {
		return d.single.Close(0)
	}
	return d.cluster.Close(0)
}

// nodeBase returns the base URL of the worker a router's job view names.
func (d *deployment) nodeBase(node string) (string, error) {
	for i, w := range d.cluster.Workers {
		if node == fmt.Sprintf("w%d", i) || node == w.BaseURL {
			return w.BaseURL, nil
		}
	}
	return "", fmt.Errorf("no worker named %q", node)
}

// session is one set-up deployment with its clients.
type session struct {
	cfg     config
	in      *inputs
	dep     *deployment
	hc      *http.Client // untimed, on the shared capped transport
	tr      *http.Transport
	setup   *recorder // calls set-up made (traced runs)
	workers []*worker
	kern    *kernel.Kernel // recounts for the churn checks
	// detectTimes records the library runs of the final detect check in a
	// traced run.
	detectTimes *detectTimes
}

func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}
}

func (s *session) client(base string, rt http.RoundTripper) *serve.Client {
	return &serve.Client{Base: base, HTTPClient: &http.Client{Transport: rt, Timeout: jobTimeout}}
}

// start boots a deployment, generates and uploads the inputs, runs the
// priming jobs and the warm-up, and returns the session with the time
// all of that took.
func start(cfg config) (*session, time.Duration, error) {
	t0 := time.Now()
	in := cfg.wl.generate(cfg.seed)
	dep, err := deploy(cfg.nodes, cfg.wl.node)
	if err != nil {
		return nil, 0, err
	}
	s := &session{cfg: cfg, in: in, dep: dep, tr: newTransport(), kern: kernel.New(0)}
	s.hc = &http.Client{Transport: s.tr, Timeout: jobTimeout}
	var rt http.RoundTripper = s.tr
	if cfg.trace {
		s.setup = &recorder{base: s.tr, tag: tagSetup}
		rt = s.setup
	}
	if err := s.prepare(s.client(dep.front, rt)); err != nil {
		s.close()
		return nil, 0, err
	}
	for c := 0; c < clients; c++ {
		w := &worker{
			id:      c,
			s:       s,
			src:     cfg.wl.stream(in, streamRand(cfg.seed, c), c),
			plain:   s.client(dep.front, s.tr),
			detects: make(map[string]detectAnswer),
		}
		if cfg.trace {
			w.rec = &recorder{base: s.tr}
			w.traced = s.client(dep.front, w.rec)
		}
		s.workers = append(s.workers, w)
	}
	warm := make([]tally, clients)
	if err := s.drive(cfg.warmup/clients, time.Time{}, false, func(i int) *tally { return &warm[i] }, nil); err != nil {
		s.close()
		return nil, 0, err
	}
	for _, w := range s.workers {
		if w.failure != nil {
			s.close()
			return nil, 0, fmt.Errorf("warm-up: %w", w.failure)
		}
	}
	return s, time.Since(t0), nil
}

// prepare uploads the inputs and runs the priming jobs.
func (s *session) prepare(sc *serve.Client) error {
	for i, text := range s.in.texts {
		up, err := sc.UploadGraph(text)
		if err != nil {
			return fmt.Errorf("set-up upload %d: %w", i, err)
		}
		if err := checkDigest("set-up upload", up.Digest, s.in.digests[i]); err != nil {
			return err
		}
	}
	// Primes come in (K4, triangle) pairs, one pair per chain base.
	for i := 0; i+1 < len(s.in.primes); i += 2 {
		var got [2]int64
		for j := 0; j < 2; j++ {
			v, err := runJob(sc, s.in.primes[i+j])
			if err != nil {
				return fmt.Errorf("priming %s: %w", s.in.primes[i+j].Pattern, err)
			}
			if v.Result == nil || v.Result.Count == nil {
				return mismatchf("priming %s returned no count", v.Pattern)
			}
			got[j] = *v.Result.Count
		}
		if err := checkMirror(s.kern, s.in.graphs[i/2], got[0], got[1]); err != nil {
			return err
		}
	}
	return nil
}

// runJob submits a job and waits for it to finish.
func runJob(sc *serve.Client, spec serve.JobSpec) (serve.JobView, error) {
	v, status, err := sc.SubmitJob(spec)
	if err == nil && status != http.StatusOK && status != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d", status)
	}
	if err != nil {
		return v, err
	}
	if !terminal(v) {
		v, err = sc.WaitJob(v.ID, jobTimeout)
	}
	if err == nil && v.State != serve.StateDone {
		err = fmt.Errorf("job %s %s: %s", v.ID, v.State, v.Error)
	}
	return v, err
}

func terminal(v serve.JobView) bool {
	return v.State == serve.StateDone || v.State == serve.StateFailed
}

func (s *session) close() error {
	s.kern.Close()
	// A connection dialed but never used holds a server's shutdown for
	// five seconds. Close ours, and the router's, which forwards to its
	// workers through http.DefaultTransport.
	s.tr.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	return s.dep.close()
}

// drive runs every worker's closed loop concurrently: n ops each when n
// is positive, otherwise until deadline. A wrong answer stops every
// client and is returned; a failed op only stops its own client. A
// non-nil checkpoint is passed once every client has reached it: a
// client still short of it at the deadline runs on, unmeasured, until it
// gets there.
func (s *session) drive(n int, deadline time.Time, measured bool, tallyOf func(int) *tally, cp *checkpoint) error {
	var stop atomic.Bool
	errs := make([]error, len(s.workers))
	var wg sync.WaitGroup
	for i, w := range s.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.loop(n, deadline, measured, tallyOf(i), &stop, cp)
			if errs[i] != nil {
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	if cp != nil {
		<-cp.release
	}
	return errors.Join(errs...)
}

// checkpoint pauses each client after its n-th op until every client has
// got there or stopped, then runs f once with the deployment idle. It
// lets a measurement depend on a fixed amount of work rather than on how
// much work fitted in the run. missed records a client that stopped
// short of it, which leaves f measuring a different amount of work.
type checkpoint struct {
	n       int
	arrived sync.WaitGroup
	release chan struct{}
	missed  atomic.Bool
}

func newCheckpoint(n, parties int, f func()) *checkpoint {
	cp := &checkpoint{n: n, release: make(chan struct{})}
	cp.arrived.Add(parties)
	go func() {
		cp.arrived.Wait()
		f()
		close(cp.release)
	}()
	return cp
}

// tally accumulates one client's measurements.
type tally struct {
	readMs    []float64
	serverMs  []float64 // JobView.LatencyNs of each read
	ops       int       // completed reads and writes
	busy      time.Duration
	attempted int
	failed    int

	deltas, incremental, forwarded int

	// Traced runs alternate traced and plain ops; the two read-latency
	// sets give the tracing overhead.
	tracedReadMs, plainReadMs []float64
	spans                     spanTally
}

// worker is one closed-loop client.
type worker struct {
	id     int
	s      *session
	src    stream
	plain  *serve.Client
	traced *serve.Client // nil unless tracing
	rec    *recorder     // the calls traced made

	detects  map[string]detectAnswer // first answer per distinct detect spec
	specs    []serve.JobSpec         // recent read specs, for the key replays
	specPos  int
	lastSpec serve.JobSpec // the last read served; its graph is still stored
	last     *op           // churn: the last step, for the final recount
	lastK    [2]int64
	failure  error

	// Inputs kept for the library replays of a traced run.
	uploads []string
	deltas  []chainStep
}

// chainStep is one applied delta, kept for replay.
type chainStep struct {
	parent *graph.Graph
	delta  graph.EdgeDelta
}

// What a worker keeps for the replays: recent read specs, and the first
// few uploads and deltas it made.
const (
	keepSpecs   = 256
	keepUploads = 2
	keepDeltas  = 8
)

// opFailure is an op that errored, timed out or was refused: counted in
// failed, not a wrong answer.
type opFailure struct{ err error }

func (f *opFailure) Error() string { return f.err.Error() }
func (f *opFailure) Unwrap() error { return f.err }

func (w *worker) loop(n int, deadline time.Time, measured bool, t *tally, stop *atomic.Bool, cp *checkpoint) error {
	arrived := cp == nil
	defer func() {
		if !arrived {
			cp.missed.Store(true)
			cp.arrived.Done()
		}
	}()
	// Ops run after the deadline only to reach the checkpoint are timed
	// nowhere, but still attempted and possibly failed.
	var past tally
	defer func() {
		t.attempted += past.attempted
		t.failed += past.failed
	}()
	for k := 0; !stop.Load(); k++ {
		if !arrived && k == cp.n {
			arrived = true
			cp.arrived.Done()
			<-cp.release
		}
		over := n > 0 && k >= n || n <= 0 && !time.Now().Before(deadline)
		if over && arrived {
			return nil
		}
		into := t
		if over {
			into = &past
		}
		// Clients trace alternate ops out of step with each other, so a
		// traced and a plain op are always in flight together.
		traced := measured && !over && w.traced != nil && (k+w.id)%2 == 0
		err := w.do(w.src.next(), traced, into)
		var f *opFailure
		if errors.As(err, &f) {
			// The stream cannot continue past a lost op (a churn chain
			// would diverge), so the client stops.
			w.failure = f
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// write runs one write under the op timer and counts it.
func (t *tally) write(rec *recorder, f func() error) error {
	rec.setTag(tagWrite)
	t.attempted++
	t0 := time.Now()
	if err := f(); err != nil {
		t.failed++
		return err
	}
	t.busy += time.Since(t0)
	t.ops++
	return nil
}

// do runs one op. Only the write and the reads are timed; generating the
// op, checking its answers and reading traces happen outside the timer.
func (w *worker) do(o *op, traced bool, t *tally) error {
	sc := w.plain
	mark := 0
	if traced {
		sc = w.traced
		mark = len(w.rec.calls)
	}
	var watch int64
	if o.upload != "" {
		var up serve.UploadView
		err := t.write(w.rec, func() (err error) {
			up, err = sc.UploadGraph(o.upload)
			return err
		})
		if err != nil {
			return &opFailure{fmt.Errorf("upload: %w", err)}
		}
		if err := checkDigest("upload", up.Digest, o.digest); err != nil {
			return err
		}
		if w.traced != nil && len(w.uploads) < keepUploads {
			w.uploads = append(w.uploads, o.upload)
		}
	}
	if o.delta != nil {
		var dv serve.DeltaView
		err := t.write(w.rec, func() error {
			var status int
			var err error
			dv, status, err = sc.ApplyDelta(o.parent, *o.delta)
			if err == nil && status != http.StatusCreated && status != http.StatusOK {
				err = fmt.Errorf("HTTP %d", status)
			}
			return err
		})
		if err != nil {
			return &opFailure{fmt.Errorf("delta: %w", err)}
		}
		if err := checkDigest("delta successor", dv.Digest, o.digest); err != nil {
			return err
		}
		if len(dv.Watch) != 1 || dv.Watch[0].Count == nil {
			return mismatchf("delta on %.12s returned no watched count", o.parent)
		}
		watch = *dv.Watch[0].Count
		t.deltas++
		if dv.Incremental {
			t.incremental++
		}
		t.forwarded += dv.Forwarded
		if w.traced != nil && len(w.deltas) < keepDeltas {
			w.deltas = append(w.deltas, chainStep{o.prev, graph.EdgeDelta{Insert: o.delta.Insert, Delete: o.delta.Delete}})
		}
	}

	views := make([]serve.JobView, len(o.reads))
	starts := make([]time.Time, len(o.reads))
	lat := make([]time.Duration, len(o.reads))
	for i, spec := range o.reads {
		w.rec.setTag(i)
		t.attempted++
		starts[i] = time.Now()
		v, status, err := sc.SubmitJob(spec)
		if err == nil && status != http.StatusOK && status != http.StatusAccepted {
			err = fmt.Errorf("HTTP %d", status)
		}
		if err != nil {
			t.failed++
			return &opFailure{fmt.Errorf("submit %s: %w", spec.Pattern, err)}
		}
		if terminal(v) {
			lat[i] = time.Since(starts[i])
		}
		views[i] = v
	}
	var end time.Time
	for i := range o.reads {
		if lat[i] == 0 {
			w.rec.setTag(i)
			v, err := sc.WaitJob(views[i].ID, jobTimeout)
			lat[i] = time.Since(starts[i])
			if err != nil {
				t.failed++
				return &opFailure{fmt.Errorf("wait %s: %w", views[i].ID, err)}
			}
			views[i] = v
		}
		if views[i].State != serve.StateDone {
			t.failed++
			return &opFailure{fmt.Errorf("job %s %s: %s", views[i].ID, views[i].State, views[i].Error)}
		}
		if e := starts[i].Add(lat[i]); e.After(end) {
			end = e
		}
	}
	if len(o.reads) > 0 {
		t.busy += end.Sub(starts[0])
	}
	for i := range o.reads {
		t.readMs = append(t.readMs, ms(lat[i]))
		t.serverMs = append(t.serverMs, float64(views[i].LatencyNs)/1e6)
		t.ops++
		if w.traced != nil {
			if traced {
				t.tracedReadMs = append(t.tracedReadMs, ms(lat[i]))
			} else {
				t.plainReadMs = append(t.plainReadMs, ms(lat[i]))
			}
		}
	}

	if w.s.cfg.tamper != nil {
		for i := range views {
			w.s.cfg.tamper(&views[i])
		}
	}
	if err := w.checkReads(o, views, watch); err != nil {
		return err
	}
	for _, spec := range o.reads {
		if len(w.specs) < keepSpecs {
			w.specs = append(w.specs, spec)
		} else {
			w.specs[w.specPos] = spec
			w.specPos = (w.specPos + 1) % keepSpecs
		}
		w.lastSpec = spec
	}
	if traced {
		return w.traceReads(views, lat, w.rec.calls[mark:], &t.spans)
	}
	return nil
}

// checkReads checks an op's answers: exact counts, the churn watch and
// periodic recounts, and byte-stable detect answers (the library
// comparison of those runs after the measured phase).
func (w *worker) checkReads(o *op, views []serve.JobView, watch int64) error {
	switch {
	case o.counts != nil:
		for i, v := range views {
			if err := checkCount(v, o.counts[i]); err != nil {
				return err
			}
		}
	case o.delta != nil:
		if err := checkCount(views[0], watch); err != nil {
			return err
		}
		if views[1].Result == nil || views[1].Result.Count == nil {
			return mismatchf("triangle count on %.12s returned no count", o.digest)
		}
		w.last, w.lastK = o, [2]int64{watch, *views[1].Result.Count}
		if o.step%churnFullChecks == 0 {
			return checkMirror(w.s.kern, o.mirror, watch, w.lastK[1])
		}
	default:
		for i, v := range views {
			a, err := answerOf(o.reads[i], v)
			if err != nil {
				return err
			}
			key := specKey(o.reads[i])
			if first, ok := w.detects[key]; ok {
				if err := checkSame(first, a); err != nil {
					return err
				}
				continue
			}
			w.detects[key] = a
		}
	}
	return nil
}

// liveHeap is the heap still reachable after forced collections. One
// collection is not enough: sync.Pool contents survive it in the pools'
// victim caches, which made the sample jump by megabytes between runs.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// result is one run's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	failures  []string // why each failed client stopped
	metrics   map[string]metric
}

// run sets up (several times, keeping the last), runs the measured
// phase, checks the answers and computes the metrics of the run's mode.
// A wrong answer returns a result with correct=false and the mismatch.
func run(cfg config) (*result, error) {
	cfg = cfg.withDefaults()
	var (
		s        *session
		setupS   []float64
		heapBase uint64
	)
	for i := 0; i < cfg.setups; i++ {
		last := i == cfg.setups-1
		if last {
			heapBase = liveHeap()
		}
		ns, d, err := start(cfg)
		if err != nil {
			return failedResult(err)
		}
		setupS = append(setupS, d.Seconds())
		if !last {
			if err := ns.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i, err)
			}
			continue
		}
		s = ns
	}

	var before counters
	var proc0 procSample
	if cfg.trace {
		var err error
		if before, err = s.counters(); err != nil {
			s.close()
			return nil, err
		}
		proc0 = sampleProc()
	}
	// The live heap is sampled after a fixed number of ops, not at the
	// end: the job table and stores fill with every op, so an end sample
	// would grow with throughput. Ops a slow run needs past the deadline
	// to get there are not timed.
	var cp *checkpoint
	var heapLive uint64
	if !cfg.trace {
		cp = newCheckpoint(cfg.heapOps, clients, func() { heapLive = liveHeap() })
	}
	tallies := make([]tally, clients)
	t0 := time.Now()
	err := s.drive(0, t0.Add(time.Duration(cfg.seconds*float64(time.Second))), true,
		func(i int) *tally { return &tallies[i] }, cp)
	var after counters
	var proc1 procSample
	if cfg.trace {
		proc1 = sampleProc()
		var cerr error
		if after, cerr = s.counters(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = s.finalChecks(cfg.trace)
	}

	res := &result{metrics: make(map[string]metric)}
	for i := range tallies {
		res.attempted += tallies[i].attempted
		res.failed += tallies[i].failed
	}
	for _, w := range s.workers {
		if w.failure != nil {
			res.failures = append(res.failures, w.failure.Error())
		}
	}
	if cp != nil && cp.missed.Load() && err == nil && len(res.failures) == 0 {
		err = fmt.Errorf("a client stopped before the heap checkpoint at %d ops", cp.n)
	}
	if cfg.trace {
		if lerr := s.layerMetrics(res.metrics, tallies, before, after, proc1.minus(proc0)); err == nil {
			err = lerr
		}
	} else {
		endToEndMetrics(res.metrics, tallies, setupS, float64(heapLive)-float64(heapBase))
	}
	if cerr := s.close(); cerr != nil && err == nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil && !isMismatch(err) {
		return nil, err
	}
	res.correct = err == nil
	return res, err
}

func isMismatch(err error) bool {
	var m *mismatch
	return errors.As(err, &m)
}

// failedResult turns a set-up error into the run's outcome: a wrong
// answer during set-up is still a wrong answer.
func failedResult(err error) (*result, error) {
	if isMismatch(err) {
		return &result{metrics: make(map[string]metric)}, err
	}
	return nil, err
}

// finalChecks runs the checks that need the whole run: the library
// comparison of the detect answers, and a scratch recount of each churn
// chain's last step. In a traced run the library calls are timed.
func (s *session) finalChecks(traced bool) error {
	answers := make(map[string]detectAnswer)
	for _, w := range s.workers {
		for k, a := range w.detects {
			answers[k] = a
		}
		if w.last != nil && w.last.step%churnFullChecks != 0 {
			if err := checkMirror(s.kern, w.last.mirror, w.lastK[0], w.lastK[1]); err != nil {
				return err
			}
		}
	}
	if len(answers) == 0 {
		return nil
	}
	if traced {
		s.detectTimes = &detectTimes{}
	}
	return verifyDetects(s.in, answers, s.cfg.seed, s.detectTimes)
}

// endToEndMetrics fills the metrics an untraced run reports; heapBytes is
// the live heap the deployment and its set-up added.
func endToEndMetrics(m map[string]metric, tallies []tally, setupS []float64, heapBytes float64) {
	var reads []float64
	var tput float64
	ops := 0
	for i := range tallies {
		t := &tallies[i]
		reads = append(reads, t.readMs...)
		tput += ratio(float64(t.ops), t.busy.Seconds())
		ops += t.ops
	}
	// The mean, not the median: the client's poll backoff makes read
	// latency multimodal, and a median falling between modes jumps
	// between them from run to run.
	m["read_mean_ms"] = metric{ratio(sum(reads), float64(len(reads))), len(reads)}
	m["read_p95_ms"] = metric{percentile(reads, 95), len(reads)}
	m["throughput_ops_s"] = metric{tput, ops}
	m["setup_s"] = metric{median(setupS), len(setupS)}
	m["heap_live_mb"] = metric{heapBytes / 1e6, 1}
}
