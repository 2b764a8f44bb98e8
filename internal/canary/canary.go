// Package canary is the runtime correctness oracle for the subgraphd
// daemon: it asynchronously re-runs a seeded sample of completed
// production jobs through the *other* simulator engine (sequential ↔
// parallel — property-tested byte-identical, so any divergence is a bug)
// and, for small fault-free instances, against the centralized VF2
// ground truth. A divergence raises an alarm counter in the obs registry
// and writes a shrunk, replayable repro artifact in the diffcheck
// format, so a production miscomputation arrives on an engineer's desk
// as a minimal `diffcheck -replay` case instead of a vague bug report.
//
// The canary rides the serve layer's Config.OnJobDone tap. Sampling and
// the handoff are non-blocking: when the canary falls behind, jobs are
// dropped (and counted), never delaying the serving path.
package canary

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"subgraph"
	"subgraph/internal/diffcheck"
	"subgraph/internal/obs"
	"subgraph/internal/serve"
)

// Metric names exported through the canary's obs.Registry.
const (
	MetricSampled      = "canary_jobs_sampled_total"
	MetricChecked      = "canary_jobs_checked_total"
	MetricDropped      = "canary_jobs_dropped_total" // sampled but queue full
	MetricDivergence   = "canary_divergence_total"   // the alarm
	MetricInconclusive = "canary_inconclusive_total" // replay aborted (deadline)
	MetricVF2Checked   = "canary_vf2_checked_total"
	GaugePending       = "canary_pending"
)

// Config tunes a Canary. Zero fields take the documented defaults.
type Config struct {
	// Fraction of completed jobs to replay, in [0,1] (1 = every job).
	Fraction float64
	// Seed drives the sampling decisions deterministically.
	Seed int64
	// QueueDepth bounds the pending-replay queue; a full queue drops
	// (and counts) instead of blocking the serving path (default 64).
	QueueDepth int
	// VF2MaxN caps the instance size checked against exhaustive VF2
	// containment (default 256; 0 < n ≤ cap and fault-free required).
	VF2MaxN int
	// ArtifactDir receives divergence repro artifacts (default ".").
	ArtifactDir string
	// ShrinkBudget bounds oracle evaluations when minimizing a
	// divergent case (default 120).
	ShrinkBudget int
	// Registry receives the canary's metrics; a fresh one is created
	// when nil. Sharing the daemon's registry puts canary alarms on the
	// same /metrics surface as everything else.
	Registry *obs.Registry
	// Logger receives the canary's structured log stream (divergence
	// alarms with job_id/trace_id/digest attrs, artifact outcomes). Nil
	// discards.
	Logger *slog.Logger

	// TamperSecond, when non-nil, mutates the second engine's report
	// before comparison — the test-only corrupted-engine hook used to
	// prove the alarm path end to end. Never set in production.
	TamperSecond func(*subgraph.Report)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.VF2MaxN <= 0 {
		c.VF2MaxN = 256
	}
	if c.ArtifactDir == "" {
		c.ArtifactDir = "."
	}
	if c.ShrinkBudget <= 0 {
		c.ShrinkBudget = 120
	}
	if c.Registry == nil {
		c.Registry = obs.NewRegistry()
	}
	if c.Logger == nil {
		c.Logger = obs.DiscardLogger
	}
	return c
}

// Canary replays sampled jobs on a single background worker.
type Canary struct {
	cfg Config
	reg *obs.Registry

	mu     sync.Mutex
	rng    *rand.Rand
	closed bool
	ch     chan serve.JobDone

	wg sync.WaitGroup
}

// New builds and starts a canary.
func New(cfg Config) *Canary {
	cfg = cfg.withDefaults()
	c := &Canary{
		cfg: cfg,
		reg: cfg.Registry,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		ch:  make(chan serve.JobDone, cfg.QueueDepth),
	}
	for _, name := range []string{
		MetricSampled, MetricChecked, MetricDropped,
		MetricDivergence, MetricInconclusive, MetricVF2Checked,
	} {
		c.reg.Counter(name)
	}
	c.reg.Gauge(GaugePending)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for jd := range c.ch {
			c.check(jd)
			c.reg.Gauge(GaugePending).Set(float64(len(c.ch)))
		}
	}()
	return c
}

// OnJobDone is the serve.Config.OnJobDone tap: sample, then hand off
// without ever blocking the worker that completed the job.
func (c *Canary) OnJobDone(jd serve.JobDone) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.rng.Float64() >= c.cfg.Fraction {
		return
	}
	c.reg.Counter(MetricSampled).Inc()
	select {
	case c.ch <- jd:
		c.reg.Gauge(GaugePending).Set(float64(len(c.ch)))
	default:
		c.reg.Counter(MetricDropped).Inc()
	}
}

// Drain stops accepting jobs and waits for the pending queue to be
// checked, or ctx to expire.
func (c *Canary) Drain(ctx context.Context) error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
	c.mu.Unlock()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("canary: drain interrupted: %w", context.Cause(ctx))
	}
}

// Divergences returns the alarm count.
func (c *Canary) Divergences() int64 { return c.reg.Counter(MetricDivergence).Value() }

// check replays one job and raises the alarm on any divergence.
func (c *Canary) check(jd serve.JobDone) {
	c.reg.Counter(MetricChecked).Inc()
	h, err := subgraph.ParsePattern(jd.Pattern)
	if err != nil {
		c.reg.Counter(MetricInconclusive).Inc()
		return
	}
	opts, err := jd.Options.Options()
	if err != nil {
		c.reg.Counter(MetricInconclusive).Inc()
		return
	}
	// The second engine: the same deterministic contract, the other
	// scheduler. Running on the shared production Network is safe —
	// concurrent Runs are part of the simulator's documented contract.
	opts.Parallel = !opts.Parallel
	rep2, err := subgraph.Detect(jd.Network, h, opts)
	if rep2 != nil && c.cfg.TamperSecond != nil {
		c.cfg.TamperSecond(rep2)
	}
	if err != nil {
		// The replay aborted (deadline under load) while the primary
		// completed: no verdict either way.
		c.reg.Counter(MetricInconclusive).Inc()
		return
	}
	if detail := diffRecorded(jd.Result, rep2); detail != "" {
		c.raise(jd, "engine-equality", detail)
		return
	}

	// VF2 ground truth for small fault-free instances: the production
	// answer itself is checked, not just engine agreement.
	g := jd.Network.G
	if faultFree(jd.Options) && g.N() <= c.cfg.VF2MaxN {
		c.reg.Counter(MetricVF2Checked).Inc()
		truth := subgraph.ContainsSubgraph(h, g)
		res := jd.Result
		switch {
		case diffcheck.ExactAlgorithm(res.Algorithm) && res.Detected != truth:
			c.raise(jd, "ground-truth", fmt.Sprintf(
				"exact detector %s reported detected=%v but VF2 containment is %v",
				res.Algorithm, res.Detected, truth))
		case res.Detected && !truth:
			c.raise(jd, "ground-truth", fmt.Sprintf(
				"one-sided detector %s reported a copy of %s but VF2 finds none",
				res.Algorithm, jd.Pattern))
		}
	}
}

// faultFree reports whether the job's effective fault plan is empty.
func faultFree(spec subgraph.OptionsSpec) bool {
	return spec.Faults == nil || spec.Faults.Plan() == nil
}

// diffRecorded compares a recorded production result against a fresh
// report. Stats compare by JSON bytes — the daemon's stored encoding.
// RunReport wall-clock fields are deliberately excluded: they describe
// real time, not the computation.
func diffRecorded(res *serve.JobResult, rep *subgraph.Report) string {
	switch {
	case rep == nil:
		return "replay produced a nil report"
	case res.Detected != rep.Detected:
		return fmt.Sprintf("detected %v (production) vs %v (replay)", res.Detected, rep.Detected)
	case res.Algorithm != rep.Algorithm:
		return fmt.Sprintf("algorithm %q vs %q", res.Algorithm, rep.Algorithm)
	case res.Rounds != rep.Rounds:
		return fmt.Sprintf("rounds %d vs %d", res.Rounds, rep.Rounds)
	case res.BandwidthBits != rep.BandwidthBits:
		return fmt.Sprintf("bandwidth %d vs %d", res.BandwidthBits, rep.BandwidthBits)
	}
	stats2, err := json.Marshal(rep.Stats)
	if err != nil {
		return "encoding replay stats: " + err.Error()
	}
	if !bytes.Equal(res.Stats, stats2) {
		return fmt.Sprintf("stats JSON differs:\n  production: %s\n  replay:     %s", res.Stats, stats2)
	}
	return ""
}

// raise counts the alarm and writes the shrunk repro artifact.
func (c *Canary) raise(jd serve.JobDone, oracle, detail string) {
	c.reg.Counter(MetricDivergence).Inc()
	c.cfg.Logger.Error("canary divergence",
		"job_id", jd.ID, "trace_id", jd.TraceID, "digest", jd.Digest,
		"pattern", jd.Pattern, "oracle", oracle, "detail", detail)

	cs := &diffcheck.Case{
		Name:    "canary:" + jd.ID,
		Seed:    jd.Options.Seed,
		N:       jd.Network.G.N(),
		Edges:   jd.Network.G.Edges(),
		Pattern: jd.Pattern,
		Options: jd.Options,
	}
	// The deadline shaped admission, not the computation (the result was
	// complete); dropping it makes the artifact load-independent.
	cs.Options.DeadlineMs = 0

	shrunk, evals := diffcheck.Shrink(cs, c.stillFails(oracle), c.cfg.ShrinkBudget)
	art := &diffcheck.Artifact{
		Version: 1,
		Oracle:  oracle,
		Detail:  detail,
		Case:    *shrunk,
		Shrunk:  shrunk.N != cs.N || len(shrunk.Edges) != len(cs.Edges),
	}
	if art.Shrunk {
		art.OriginalN, art.OriginalEdges = cs.N, len(cs.Edges)
	}
	if err := os.MkdirAll(c.cfg.ArtifactDir, 0o755); err != nil {
		c.cfg.Logger.Warn("canary artifact dir", "job_id", jd.ID, "err", err)
		return
	}
	path := filepath.Join(c.cfg.ArtifactDir, fmt.Sprintf("canary-%s-%s.json", oracle, jd.ID))
	if err := diffcheck.WriteArtifact(path, art); err != nil {
		c.cfg.Logger.Warn("canary artifact write", "job_id", jd.ID, "err", err)
		return
	}
	c.cfg.Logger.Info("canary repro artifact written",
		"job_id", jd.ID, "trace_id", jd.TraceID, "path", path,
		"shrink_evals", evals, "n", shrunk.N, "m", len(shrunk.Edges))
}

// stillFails builds the shrink predicate for the named oracle: a
// candidate still fails when a fresh primary run diverges the same way
// (from a fresh tampered second run, or from VF2).
func (c *Canary) stillFails(oracle string) func(*diffcheck.Case) bool {
	return func(k *diffcheck.Case) bool {
		g, err := k.Graph()
		if err != nil {
			return false
		}
		h, err := k.PatternGraph()
		if err != nil {
			return false
		}
		opts, err := k.DetectOptions()
		if err != nil {
			return false
		}
		nw := subgraph.NewNetwork(g)
		rep1, err1 := subgraph.Detect(nw, h, opts)
		if err1 != nil || rep1 == nil {
			return false
		}
		switch oracle {
		case "engine-equality":
			o2 := opts
			o2.Parallel = !o2.Parallel
			rep2, err2 := subgraph.Detect(nw, h, o2)
			if err2 != nil || rep2 == nil {
				return false
			}
			if c.cfg.TamperSecond != nil {
				c.cfg.TamperSecond(rep2)
			}
			return diffFresh(rep1, rep2) != ""
		case "ground-truth":
			truth := subgraph.ContainsSubgraph(h, g)
			if diffcheck.ExactAlgorithm(rep1.Algorithm) {
				return rep1.Detected != truth
			}
			return rep1.Detected && !truth
		}
		return false
	}
}

// diffFresh compares two fresh reports the same way diffRecorded
// compares against the stored result.
func diffFresh(a, b *subgraph.Report) string {
	ja, err := json.Marshal(a.Stats)
	if err != nil {
		return "encoding stats: " + err.Error()
	}
	return diffRecorded(&serve.JobResult{
		Detected:      a.Detected,
		Algorithm:     a.Algorithm,
		Rounds:        a.Rounds,
		BandwidthBits: a.BandwidthBits,
		Stats:         ja,
	}, b)
}
