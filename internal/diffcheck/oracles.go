package diffcheck

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"subgraph"
	"subgraph/internal/cluster"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
	"subgraph/internal/kernel"
	"subgraph/internal/serve"
)

// An Oracle is one correctness relation checked per case. Check returns
// nil when the relation holds and a descriptive error when it is violated
// (the error becomes the artifact's Detail). Checks must be deterministic
// functions of the case so a shrunk candidate fails for the same reason
// the original did.
type Oracle struct {
	// Name is the stable slug used by -oracle filters and artifacts.
	Name string
	// Doc is a one-line description for -list.
	Doc string
	// Applies gates the oracle on case shape (e.g. fault-free only).
	Applies func(c *Case) bool
	// Check evaluates the relation.
	Check func(h *Harness, c *Case) error
}

// Harness holds cross-case state: the lazily started in-process daemon
// the serve-roundtrip oracle talks to. Safe for use from one goroutine
// (the runner is sequential; determinism requires it).
type Harness struct {
	mu     sync.Mutex
	srv    *serve.InProcess
	srvErr error
	kern   *kernel.Kernel
}

// NewHarness returns an empty harness; resources start on first use.
func NewHarness() *Harness { return &Harness{} }

// server starts (once) and returns the shared in-process daemon.
func (h *Harness) server() (*serve.InProcess, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.srv == nil && h.srvErr == nil {
		h.srv, h.srvErr = serve.StartInProcess(serve.Config{Workers: 2})
	}
	return h.srv, h.srvErr
}

// kernel starts (once) and returns the shared local counting kernel.
func (h *Harness) kernel() *kernel.Kernel {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.kern == nil {
		h.kern = kernel.New(2)
	}
	return h.kern
}

// Close releases harness resources.
func (h *Harness) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.srv != nil {
		_ = h.srv.Close(10 * time.Second)
		h.srv = nil
	}
	if h.kern != nil {
		h.kern.Close()
		h.kern = nil
	}
}

// exactAlgorithms are the detectors whose answers are two-sided exact;
// the rest are one-sided (detected ⇒ present, absence may be missed).
var exactAlgorithms = map[string]bool{
	"triangle-neighbor-exchange":   true,
	"triangle-degree-split":        true,
	"neighbor-exchange":            true,
	"edge-collection":              true,
	"local-ball-collection":        true,
	"tree-representative-families": true,
}

// ExactAlgorithm reports whether the named detector's answers are
// two-sided exact. Exported for the runtime canary, which applies the
// same one-sided/two-sided logic to production results that the
// ground-truth oracle applies to generated cases.
func ExactAlgorithm(name string) bool { return exactAlgorithms[name] }

// faultFree reports whether the case's effective fault plan is empty.
func faultFree(c *Case) bool {
	return c.Options.Faults == nil || c.Options.Faults.Plan() == nil
}

// always is the Applies gate of unconditional oracles.
func always(*Case) bool { return true }

// cliqueFamily gates the kernel oracles: fault-free cases whose pattern
// the local kernel backend accepts (K_2..K_8, including the triangle and
// cycle:3 aliases).
func cliqueFamily(c *Case) bool {
	if !faultFree(c) {
		return false
	}
	h, err := c.PatternGraph()
	if err != nil {
		return false
	}
	_, ok := kernel.CliqueSize(h)
	return ok
}

// detectCase runs the library Detect for the case, optionally mutating
// the options first.
func detectCase(c *Case, mutate func(*subgraph.Options)) (*subgraph.Report, error) {
	g, err := c.Graph()
	if err != nil {
		return nil, err
	}
	h, err := c.PatternGraph()
	if err != nil {
		return nil, err
	}
	opts, err := c.DetectOptions()
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&opts)
	}
	return subgraph.Detect(subgraph.NewNetwork(g), h, opts)
}

// statsJSON is the byte-exact comparison form of a run's Stats — the same
// encoding the daemon stores, so "equal" here means "equal on the wire".
func statsJSON(rep *subgraph.Report) ([]byte, error) {
	return json.Marshal(rep.Stats)
}

// diffReports compares two Reports field-by-field, Stats by canonical
// JSON bytes. Empty string means identical.
func diffReports(label string, a, b *subgraph.Report) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return fmt.Sprintf("%s: one report is nil (a=%v b=%v)", label, a != nil, b != nil)
	case a.Detected != b.Detected:
		return fmt.Sprintf("%s: detected %v vs %v", label, a.Detected, b.Detected)
	case a.Algorithm != b.Algorithm:
		return fmt.Sprintf("%s: algorithm %q vs %q", label, a.Algorithm, b.Algorithm)
	case a.Rounds != b.Rounds:
		return fmt.Sprintf("%s: rounds %d vs %d", label, a.Rounds, b.Rounds)
	case a.BandwidthBits != b.BandwidthBits:
		return fmt.Sprintf("%s: bandwidth %d vs %d", label, a.BandwidthBits, b.BandwidthBits)
	}
	if d := congest.DiffStats(a.Stats, b.Stats); d != "" {
		return label + ": " + d
	}
	ja, err1 := statsJSON(a)
	jb, err2 := statsJSON(b)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("%s: stats encoding failed (%v, %v)", label, err1, err2)
	}
	if !bytes.Equal(ja, jb) {
		return fmt.Sprintf("%s: stats JSON differs:\n  %s\n  %s", label, ja, jb)
	}
	return ""
}

// errorsMatch treats two runs as consistent when both succeed or both
// fail with the same message.
func errorsMatch(label string, e1, e2 error) error {
	switch {
	case e1 == nil && e2 == nil:
		return nil
	case e1 != nil && e2 != nil && e1.Error() == e2.Error():
		return nil
	default:
		return fmt.Errorf("%s: errors diverge: %v vs %v", label, e1, e2)
	}
}

// Oracles returns the full battery in evaluation order.
func Oracles() []Oracle {
	return []Oracle{
		{
			Name:    "engine-equality",
			Doc:     "sequential and parallel engines produce identical reports and Stats",
			Applies: always,
			Check:   checkEngineEquality,
		},
		{
			Name:    "split-equality",
			Doc:     "monolithic and two-party split executions agree on every decision",
			Applies: always,
			Check:   checkSplitEquality,
		},
		{
			Name:    "trace-determinism",
			Doc:     "two traced runs yield byte-identical JSONL (OmitTimings)",
			Applies: always,
			Check:   checkTraceDeterminism,
		},
		{
			Name:    "ground-truth",
			Doc:     "detection agrees with VF2 containment (exact two-sided, randomized one-sided)",
			Applies: faultFree,
			Check:   checkGroundTruth,
		},
		{
			Name:    "relabel-invariance",
			Doc:     "exact detectors are invariant under vertex relabeling",
			Applies: faultFree,
			Check:   checkRelabelInvariance,
		},
		{
			Name: "pattern-alias",
			Doc:  "triangle == cycle:3 == clique:3 in digests, reports, and Stats",
			Applies: func(c *Case) bool {
				h, err := c.PatternGraph()
				return err == nil && h.N() == 3 && h.M() == 3
			},
			Check: checkPatternAlias,
		},
		{
			Name:    "nil-vs-zero-faults",
			Doc:     "Faults == nil and the zero FaultPlan run bit-identically",
			Applies: faultFree,
			Check:   checkNilVsZeroFaults,
		},
		{
			Name: "fault-accounting",
			Doc:  "Stats.CorruptedBits equals the measured sent/delivered payload difference",
			Applies: func(c *Case) bool {
				return !faultFree(c)
			},
			Check: checkFaultAccounting,
		},
		{
			Name:    "kernel-vs-truth",
			Doc:     "bitset kernel counts of every size 3..s, in a seeded order on one adjacency per form, equal Chiba–Nishizeki enumeration; dense ≡ hybrid; detection equals VF2",
			Applies: cliqueFamily,
			Check:   checkKernelVsTruth,
		},
		{
			Name:    "kernel-vs-congest",
			Doc:     "kernel clique detection is consistent with both CONGEST engines (exact two-sided, randomized one-sided)",
			Applies: cliqueFamily,
			Check:   checkKernelVsCongest,
		},
		{
			Name:    "serve-roundtrip",
			Doc:     "daemon results are byte-identical to library runs; caching respects deadlines",
			Applies: always,
			Check:   checkServeRoundtrip,
		},
		{
			Name:    "cache-bound",
			Doc:     "the result cache never exceeds its capacity; size ≤ 0 disables it",
			Applies: always,
			Check:   checkCacheBound,
		},
		{
			Name:    "drain-under-fire",
			Doc:     "draining mid-burst completes every admitted job with the library answer; late submits bounce 503",
			Applies: always,
			Check:   checkDrainUnderFire,
		},
		{
			Name: "node-crash-during-drain",
			Doc:  "a worker crash mid-drain loses nothing: the router finishes every admitted job with the library answer via at most one redispatch each; late submits bounce 503",
			// Each evaluation boots a dedicated router + two workers, so a
			// deterministic 1-in-3 subsample (by case seed) keeps the battery
			// fast while still covering the relation across case shapes.
			Applies: func(c *Case) bool { return faultFree(c) && c.Seed%3 == 0 },
			Check:   checkNodeCrashDuringDrain,
		},
		{
			Name:    "delta-vs-scratch",
			Doc:     "random delta sequences: incremental digests, kernel counts (both adjacency modes), daemon watch verdicts, and the final count envelope are byte-identical to from-scratch rebuilds",
			Applies: deltaOracleApplies,
			Check:   checkDeltaVsScratch,
		},
	}
}

func checkEngineEquality(_ *Harness, c *Case) error {
	seqRep, seqErr := detectCase(c, func(o *subgraph.Options) { o.Parallel = false })
	parRep, parErr := detectCase(c, func(o *subgraph.Options) { o.Parallel = true })
	if err := errorsMatch("seq vs parallel", seqErr, parErr); err != nil {
		return err
	}
	if d := diffReports("seq vs parallel", seqRep, parRep); d != "" {
		return fmt.Errorf("%s", d)
	}
	return nil
}

func checkSplitEquality(_ *Harness, c *Case) error {
	g, err := c.Graph()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	owner := splitOwners(g.N(), rng)

	seq, err := runTraffic(g, c.Seed, false, nil)
	if err != nil {
		return fmt.Errorf("sequential traffic run: %w", err)
	}
	par, err := runTraffic(g, c.Seed, true, nil)
	if err != nil {
		return fmt.Errorf("parallel traffic run: %w", err)
	}
	if d := congest.DiffResults(seq, par); d != "" {
		return fmt.Errorf("traffic seq vs parallel: %s", d)
	}
	sp, err := runTrafficSplit(g, c.Seed, owner)
	if err != nil {
		return fmt.Errorf("split traffic run: %w", err)
	}
	if !sp.SharedConsistent {
		return fmt.Errorf("split run: shared vertices diverged between the players")
	}
	if sp.Rounds != seq.Stats.Rounds {
		return fmt.Errorf("split ran %d rounds, monolithic %d", sp.Rounds, seq.Stats.Rounds)
	}
	for v, d := range seq.Decisions {
		if sp.Decisions[v] != d {
			return fmt.Errorf("vertex %d decides %v monolithically but %v under the split simulation", v, d, sp.Decisions[v])
		}
	}
	return nil
}

func checkTraceDeterminism(_ *Harness, c *Case) error {
	runTraced := func() ([]byte, *subgraph.Report, error) {
		var buf bytes.Buffer
		tr := subgraph.NewJSONLTracerOptions(&buf, subgraph.JSONLOptions{OmitTimings: true})
		rep, err := detectCase(c, func(o *subgraph.Options) { o.Trace = tr })
		_ = tr.Close()
		return buf.Bytes(), rep, err
	}
	t1, rep1, err1 := runTraced()
	t2, rep2, err2 := runTraced()
	if err := errorsMatch("traced runs", err1, err2); err != nil {
		return err
	}
	if d := diffReports("traced runs", rep1, rep2); d != "" {
		return fmt.Errorf("%s", d)
	}
	if !bytes.Equal(t1, t2) {
		return fmt.Errorf("two traced runs of the same case produced different JSONL (%d vs %d bytes)", len(t1), len(t2))
	}
	return nil
}

func checkGroundTruth(_ *Harness, c *Case) error {
	rep, err := detectCase(c, nil)
	if err != nil {
		return fmt.Errorf("detect: %w", err)
	}
	g, _ := c.Graph()
	h, _ := c.PatternGraph()
	truth := subgraph.ContainsSubgraph(h, g)
	if exactAlgorithms[rep.Algorithm] {
		if rep.Detected != truth {
			return fmt.Errorf("exact detector %s reported detected=%v but VF2 containment is %v", rep.Algorithm, rep.Detected, truth)
		}
		return nil
	}
	if rep.Detected && !truth {
		return fmt.Errorf("one-sided detector %s reported a copy of %s but VF2 finds none (false positive)", rep.Algorithm, c.Pattern)
	}
	return nil
}

func checkRelabelInvariance(_ *Harness, c *Case) error {
	rep, err := detectCase(c, nil)
	if err != nil {
		return fmt.Errorf("detect: %w", err)
	}
	if !exactAlgorithms[rep.Algorithm] {
		// One-sided detectors draw label-dependent colors; only the exact
		// detectors promise relabeling invariance.
		return nil
	}
	g, _ := c.Graph()
	h, _ := c.PatternGraph()
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5ca1ab1e))
	perm := rng.Perm(g.N())
	g2 := subgraph.Relabel(g, perm)
	if subgraph.ContainsSubgraph(h, g) != subgraph.ContainsSubgraph(h, g2) {
		return fmt.Errorf("VF2 containment changed under relabeling (a Relabel bug)")
	}
	opts, _ := c.DetectOptions()
	rep2, err := subgraph.Detect(subgraph.NewNetwork(g2), h, opts)
	if err != nil {
		return fmt.Errorf("detect on relabeled graph: %w", err)
	}
	if rep2.Algorithm != rep.Algorithm {
		return fmt.Errorf("dispatch changed under relabeling: %s vs %s (degree profile should be invariant)", rep.Algorithm, rep2.Algorithm)
	}
	if rep2.Detected != rep.Detected {
		return fmt.Errorf("exact detector %s found %s=%v on the original but %v on an isomorphic relabeling", rep.Algorithm, c.Pattern, rep.Detected, rep2.Detected)
	}
	return nil
}

func checkPatternAlias(_ *Harness, c *Case) error {
	aliases := []string{"triangle", "cycle:3", "clique:3"}
	var baseRep *subgraph.Report
	var baseDigest string
	for i, spec := range aliases {
		h, err := subgraph.ParsePattern(spec)
		if err != nil {
			return fmt.Errorf("parsing alias %q: %w", spec, err)
		}
		if i == 0 {
			baseDigest = h.Digest()
		} else if h.Digest() != baseDigest {
			return fmt.Errorf("alias %q digest %s != triangle digest %s (cache sharing broken)", spec, h.Digest(), baseDigest)
		}
		alias := c.clone()
		alias.Pattern = spec
		rep, err := detectCase(alias, nil)
		if err != nil {
			return fmt.Errorf("detect with %q: %w", spec, err)
		}
		if i == 0 {
			baseRep = rep
		} else if d := diffReports("triangle vs "+spec, baseRep, rep); d != "" {
			return fmt.Errorf("%s", d)
		}
	}
	return nil
}

func checkNilVsZeroFaults(_ *Harness, c *Case) error {
	repNil, errNil := detectCase(c, func(o *subgraph.Options) { o.Faults = nil })
	repZero, errZero := detectCase(c, func(o *subgraph.Options) { o.Faults = &subgraph.FaultPlan{} })
	if err := errorsMatch("nil vs zero FaultPlan", errNil, errZero); err != nil {
		return err
	}
	if d := diffReports("nil vs zero FaultPlan", repNil, repZero); d != "" {
		return fmt.Errorf("%s", d)
	}
	return nil
}

func checkFaultAccounting(_ *Harness, c *Case) error {
	plan := c.Options.Faults.Plan()
	if plan == nil {
		return nil
	}
	g, err := c.Graph()
	if err != nil {
		return err
	}
	rec := &recordingAdversary{inner: congest.NewPlanAdversary(*plan)}
	res, err := runTraffic(g, c.Seed, false, rec)
	if err != nil {
		return fmt.Errorf("traffic run under faults: %w", err)
	}
	return rec.check(res.Stats)
}

// checkKernelVsTruth pins the word-parallel kernel to the enumeration
// ground truth (graph.CountCliques) and the VF2 containment oracle, and
// the two adjacency forms to each other.
func checkKernelVsTruth(h *Harness, c *Case) error {
	g, err := c.Graph()
	if err != nil {
		return err
	}
	p, err := c.PatternGraph()
	if err != nil {
		return err
	}
	s, _ := kernel.CliqueSize(p)
	k := h.kernel()
	want := g.CountCliques(s)
	// Every size from 3 to s is counted on one adjacency per form, in a
	// seeded order: the K_3 count records the start edges that the sizes
	// of 4 and up after it visit alone.
	sizes := []int{s}
	for size := 3; size < s; size++ {
		sizes = append(sizes, size)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	rng.Shuffle(len(sizes), func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	for _, b := range []*graph.BitAdjacency{graph.NewBitAdjacencyDense(g), graph.NewBitAdjacencyHybrid(g)} {
		for _, size := range sizes {
			if got, truth := k.Count(b, size), g.CountCliques(size); got != truth {
				return fmt.Errorf("%s kernel counts %d copies of K_%d but enumeration counts %d (sizes counted in the order %v)", b.Mode(), got, size, truth, sizes)
			}
		}
		if got := k.Detect(b, s); got != (want > 0) {
			return fmt.Errorf("%s kernel Detect(K_%d) = %v with %d enumerated copies", b.Mode(), s, got, want)
		}
	}
	if truth := subgraph.ContainsSubgraph(p, g); truth != (want > 0) {
		return fmt.Errorf("VF2 containment %v disagrees with enumeration count %d for K_%d", truth, want, s)
	}
	return nil
}

// checkKernelVsCongest pins the kernel's detection decision to both
// CONGEST engines: exact detectors must agree exactly, one-sided
// detectors may miss copies but never invent them.
func checkKernelVsCongest(h *Harness, c *Case) error {
	g, err := c.Graph()
	if err != nil {
		return err
	}
	p, err := c.PatternGraph()
	if err != nil {
		return err
	}
	s, _ := kernel.CliqueSize(p)
	kdet := h.kernel().Detect(graph.NewBitAdjacency(g), s)
	for _, engine := range []struct {
		name     string
		parallel bool
	}{{"sequential", false}, {"parallel", true}} {
		rep, err := detectCase(c, func(o *subgraph.Options) { o.Parallel = engine.parallel })
		if err != nil {
			return fmt.Errorf("%s engine: %w", engine.name, err)
		}
		if exactAlgorithms[rep.Algorithm] {
			if rep.Detected != kdet {
				return fmt.Errorf("%s engine (%s) reports detected=%v but the kernel says %v", engine.name, rep.Algorithm, rep.Detected, kdet)
			}
		} else if rep.Detected && !kdet {
			return fmt.Errorf("one-sided detector %s (%s engine) found K_%d but the kernel counts zero copies (false positive)", rep.Algorithm, engine.name, s)
		}
	}
	return nil
}

func checkServeRoundtrip(h *Harness, c *Case) error {
	srv, err := h.server()
	if err != nil {
		return fmt.Errorf("starting in-process daemon: %w", err)
	}
	g, err := c.Graph()
	if err != nil {
		return err
	}
	var edgeList bytes.Buffer
	if err := subgraph.WriteEdgeList(&edgeList, g); err != nil {
		return err
	}
	up, err := srv.Client.UploadGraph(edgeList.String())
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}
	if up.Digest != g.Digest() {
		return fmt.Errorf("daemon stored digest %s for a graph the library digests as %s", up.Digest, g.Digest())
	}

	submit := func(spec subgraph.OptionsSpec) (serve.JobView, error) {
		jv, status, err := srv.Client.SubmitJob(serve.JobSpec{
			Graph:   up.Digest,
			Pattern: c.Pattern,
			Options: spec,
		})
		if err != nil {
			return jv, fmt.Errorf("submit: %w", err)
		}
		if status != 200 && status != 202 {
			return jv, fmt.Errorf("submit answered HTTP %d", status)
		}
		if jv.State == serve.StateDone || jv.State == serve.StateFailed {
			return jv, nil
		}
		return srv.Client.WaitJob(jv.ID, 60*time.Second)
	}

	jv, err := submit(c.Options)
	if err != nil {
		return err
	}
	libRep, libErr := detectCase(c, nil)
	if jv.State == serve.StateFailed {
		if libErr != nil && libErr.Error() == jv.Error {
			return nil
		}
		return fmt.Errorf("daemon failed the job (%s) but the library says %v", jv.Error, libErr)
	}
	if libErr != nil && libRep == nil {
		return fmt.Errorf("library detect failed (%v) but the daemon succeeded", libErr)
	}
	res := jv.Result
	if res == nil {
		return fmt.Errorf("done job carries no result")
	}
	if res.Partial {
		// The daemon's deadline cap fired; nothing comparable. The
		// generator keeps cases far below the cap, so treat as a bug.
		return fmt.Errorf("daemon returned a partial result for a case the library completes (%s)", res.AbortReason)
	}
	if res.Detected != libRep.Detected || res.Algorithm != libRep.Algorithm ||
		res.Rounds != libRep.Rounds || res.BandwidthBits != libRep.BandwidthBits {
		return fmt.Errorf("daemon result (detected=%v alg=%s rounds=%d bw=%d) != library (detected=%v alg=%s rounds=%d bw=%d)",
			res.Detected, res.Algorithm, res.Rounds, res.BandwidthBits,
			libRep.Detected, libRep.Algorithm, libRep.Rounds, libRep.BandwidthBits)
	}
	libStats, err := statsJSON(libRep)
	if err != nil {
		return err
	}
	if !bytes.Equal([]byte(res.Stats), libStats) {
		return fmt.Errorf("daemon stats are not byte-identical to the library run:\n  daemon:  %s\n  library: %s", res.Stats, libStats)
	}

	// Resubmitting with a different (sufficient) deadline must be answered
	// from cache: complete results are deadline-independent, so the cache
	// key strips the deadline.
	respec := c.Options
	if respec.DeadlineMs == 0 {
		respec.DeadlineMs = 45_000
	} else {
		respec.DeadlineMs += 1_500
	}
	jv2, err := submit(respec)
	if err != nil {
		return err
	}
	if !jv2.Cached {
		return fmt.Errorf("resubmission differing only in deadline_ms (%d vs %d) missed the result cache", respec.DeadlineMs, c.Options.DeadlineMs)
	}
	if jv2.Result == nil || !bytes.Equal([]byte(jv2.Result.Stats), libStats) {
		return fmt.Errorf("cached result's stats differ from the original execution")
	}
	return nil
}

// checkDrainUnderFire boots a dedicated one-worker daemon, fires a burst
// of case jobs at it, and begins draining while they are (typically)
// still queued. The drain contract it pins: every job the daemon
// admitted reaches a terminal state whose result is byte-identical to a
// fresh library run (or fails with the library's error — crash-fault
// cases exercise exactly this during the drain), submissions after
// BeginDrain bounce with 503, and Drain itself completes. A dedicated
// server is required because draining is one-way.
func checkDrainUnderFire(_ *Harness, c *Case) error {
	srv, err := serve.StartInProcess(serve.Config{
		Workers:    1,
		QueueDepth: 8,
		// Cache off so every seed runs the engine for real.
		CacheSize: -1,
	})
	if err != nil {
		return fmt.Errorf("starting dedicated daemon: %w", err)
	}
	defer func() { _ = srv.Close(30 * time.Second) }()

	g, err := c.Graph()
	if err != nil {
		return err
	}
	var edgeList bytes.Buffer
	if err := subgraph.WriteEdgeList(&edgeList, g); err != nil {
		return err
	}
	// Raw statuses matter here (the post-drain 503 especially); a
	// retrying client would paper over the admission decisions under test.
	raw := &serve.Client{Base: srv.BaseURL, Retry: serve.NoRetry()}
	up, err := raw.UploadGraph(edgeList.String())
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}

	const burst = 3
	ids := make([]string, 0, burst)
	seeds := make([]int64, 0, burst)
	for i := int64(0); i < burst; i++ {
		spec := c.Options
		spec.Seed = c.Options.Seed + i
		jv, status, err := raw.SubmitJob(serve.JobSpec{
			Graph:   up.Digest,
			Pattern: c.Pattern,
			Options: spec,
		})
		if err != nil {
			return fmt.Errorf("burst submit %d: %w", i, err)
		}
		if status != http.StatusAccepted && status != http.StatusOK {
			return fmt.Errorf("burst submit %d: HTTP %d on an 8-deep queue", i, status)
		}
		ids = append(ids, jv.ID)
		seeds = append(seeds, spec.Seed)
	}

	// Drain begins while the single worker is (at most) one job in.
	srv.Server.BeginDrain()

	lateSpec := c.Options
	lateSpec.Seed = c.Options.Seed + 99
	if _, status, err := raw.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: c.Pattern, Options: lateSpec}); status != http.StatusServiceUnavailable {
		return fmt.Errorf("post-drain submit answered HTTP %d (%v), want 503", status, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := srv.Server.Drain(ctx); err != nil {
		return fmt.Errorf("drain did not complete: %w", err)
	}

	for i, id := range ids {
		jv, err := raw.WaitJob(id, 10*time.Second)
		if err != nil {
			return fmt.Errorf("admitted job %s lost across the drain: %w", id, err)
		}
		libRep, libErr := detectCase(c, func(o *subgraph.Options) { o.Seed = seeds[i] })
		if jv.State == serve.StateFailed {
			if libErr != nil && libErr.Error() == jv.Error {
				continue
			}
			return fmt.Errorf("drained job %s failed (%s) but the library says %v", id, jv.Error, libErr)
		}
		if jv.State != serve.StateDone || jv.Result == nil {
			return fmt.Errorf("admitted job %s ended %s with no result after drain", id, jv.State)
		}
		if libErr != nil {
			return fmt.Errorf("drained job %s succeeded but the library fails: %v", id, libErr)
		}
		res := jv.Result
		if res.Partial {
			return fmt.Errorf("drained job %s returned a partial result for a case the library completes (%s)", id, res.AbortReason)
		}
		if res.Detected != libRep.Detected || res.Algorithm != libRep.Algorithm ||
			res.Rounds != libRep.Rounds || res.BandwidthBits != libRep.BandwidthBits {
			return fmt.Errorf("drained job %s (detected=%v alg=%s rounds=%d bw=%d) != library (detected=%v alg=%s rounds=%d bw=%d)",
				id, res.Detected, res.Algorithm, res.Rounds, res.BandwidthBits,
				libRep.Detected, libRep.Algorithm, libRep.Rounds, libRep.BandwidthBits)
		}
		libStats, err := statsJSON(libRep)
		if err != nil {
			return err
		}
		if !bytes.Equal([]byte(res.Stats), libStats) {
			return fmt.Errorf("drained job %s stats diverge from the library run:\n  daemon:  %s\n  library: %s", id, res.Stats, libStats)
		}
	}
	return nil
}

// checkNodeCrashDuringDrain boots a dedicated router fronting two
// one-worker daemons, fires a burst of case jobs through the router,
// hard-crashes the worker holding the first still-running assignment,
// and begins draining. The cluster-drain contract it pins: every job
// the router admitted still reaches a terminal state byte-identical to
// a fresh library run — the crashed worker's jobs re-dispatched to the
// surviving replica, each at most once — submissions after BeginDrain
// bounce with 503, and Drain itself completes despite the dead member.
func checkNodeCrashDuringDrain(_ *Harness, c *Case) error {
	cl, err := cluster.StartInProcess(2, serve.Config{
		Workers:    1,
		QueueDepth: 8,
		// Worker caches off so every seed runs the engine for real.
		CacheSize: -1,
	}, cluster.Config{
		// Full replication: both workers own every digest, so the
		// survivor is always a live owner for the re-dispatch.
		Replication: 2,
		CacheSize:   -1,
	})
	if err != nil {
		return fmt.Errorf("starting dedicated cluster: %w", err)
	}
	defer func() { _ = cl.Close(30 * time.Second) }()

	g, err := c.Graph()
	if err != nil {
		return err
	}
	var edgeList bytes.Buffer
	if err := subgraph.WriteEdgeList(&edgeList, g); err != nil {
		return err
	}
	// Raw statuses matter (the post-drain 503 especially); a retrying
	// client would paper over the admission decisions under test.
	raw := &serve.Client{Base: cl.BaseURL, Retry: serve.NoRetry()}
	up, err := raw.UploadGraph(edgeList.String())
	if err != nil {
		return fmt.Errorf("upload: %w", err)
	}

	const burst = 4
	ids := make([]string, 0, burst)
	seeds := make([]int64, 0, burst)
	victim := -1
	for i := int64(0); i < burst; i++ {
		spec := c.Options
		spec.Seed = c.Options.Seed + i
		jv, status, err := raw.SubmitJob(serve.JobSpec{
			Graph:   up.Digest,
			Pattern: c.Pattern,
			Options: spec,
		})
		if err != nil {
			return fmt.Errorf("burst submit %d: %w", i, err)
		}
		if status != http.StatusAccepted && status != http.StatusOK {
			return fmt.Errorf("burst submit %d: HTTP %d from an idle two-worker cluster", i, status)
		}
		ids = append(ids, jv.ID)
		seeds = append(seeds, spec.Seed)
		// Aim the crash at a worker that still holds a running job; the
		// view names it by base URL before the first probe and by node
		// name after.
		if victim < 0 && jv.State != serve.StateDone && jv.State != serve.StateFailed {
			for w, wk := range cl.Workers {
				if jv.Node == wk.BaseURL || jv.Node == fmt.Sprintf("w%d", w) {
					victim = w
					break
				}
			}
		}
	}
	if victim < 0 {
		victim = 0 // burst finished before we could aim; crash someone anyway
	}
	if err := cl.KillWorker(victim); err != nil {
		return fmt.Errorf("killing worker %d: %w", victim, err)
	}

	cl.Router.BeginDrain()
	lateSpec := c.Options
	lateSpec.Seed = c.Options.Seed + 99
	if _, status, err := raw.SubmitJob(serve.JobSpec{Graph: up.Digest, Pattern: c.Pattern, Options: lateSpec}); status != http.StatusServiceUnavailable {
		return fmt.Errorf("post-drain submit answered HTTP %d (%v), want 503", status, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 45*time.Second)
	defer cancel()
	if err := cl.Router.Drain(ctx); err != nil {
		return fmt.Errorf("drain did not complete with a crashed member: %w", err)
	}
	if n := cl.Router.Registry().Counter(cluster.MetricJobsRedispatched).Value(); n > burst {
		return fmt.Errorf("router redispatched %d times for %d admitted jobs (bound is once each)", n, burst)
	}

	for i, id := range ids {
		jv, err := raw.Job(id)
		if err != nil {
			return fmt.Errorf("admitted job %s lost across the crash-drain: %w", id, err)
		}
		libRep, libErr := detectCase(c, func(o *subgraph.Options) { o.Seed = seeds[i] })
		if jv.State == serve.StateFailed {
			if libErr != nil && libErr.Error() == jv.Error {
				continue
			}
			return fmt.Errorf("drained job %s failed (%s) but the library says %v", id, jv.Error, libErr)
		}
		if jv.State != serve.StateDone || jv.Result == nil {
			return fmt.Errorf("admitted job %s ended %s with no result after the crash-drain", id, jv.State)
		}
		if libErr != nil {
			return fmt.Errorf("drained job %s succeeded but the library fails: %v", id, libErr)
		}
		res := jv.Result
		if res.Partial {
			return fmt.Errorf("drained job %s returned a partial result for a case the library completes (%s)", id, res.AbortReason)
		}
		if res.Detected != libRep.Detected || res.Algorithm != libRep.Algorithm ||
			res.Rounds != libRep.Rounds || res.BandwidthBits != libRep.BandwidthBits {
			return fmt.Errorf("drained job %s (detected=%v alg=%s rounds=%d bw=%d) != library (detected=%v alg=%s rounds=%d bw=%d)",
				id, res.Detected, res.Algorithm, res.Rounds, res.BandwidthBits,
				libRep.Detected, libRep.Algorithm, libRep.Rounds, libRep.BandwidthBits)
		}
		libStats, err := statsJSON(libRep)
		if err != nil {
			return err
		}
		if !bytes.Equal([]byte(res.Stats), libStats) {
			return fmt.Errorf("drained job %s stats diverge from the library run:\n  daemon:  %s\n  library: %s", id, res.Stats, libStats)
		}
	}
	return nil
}

func checkCacheBound(_ *Harness, c *Case) error {
	for _, size := range []int{0, -1, 2, 8} {
		cache := serve.NewCache(size)
		limit := size
		if limit < 0 {
			limit = 0
		}
		for i := 0; i < 24; i++ {
			key := fmt.Sprintf("%d|%s|%d", c.Seed, c.Pattern, i)
			cache.Put(key, &serve.JobResult{Algorithm: c.Pattern})
			if cache.Len() > limit {
				return fmt.Errorf("NewCache(%d) grew to %d entries after %d inserts (capacity ignored)", size, cache.Len(), i+1)
			}
			if size <= 0 {
				if _, ok := cache.Get(key); ok {
					return fmt.Errorf("NewCache(%d) returned a hit; a disabled cache must always miss", size)
				}
			}
		}
	}
	return nil
}
