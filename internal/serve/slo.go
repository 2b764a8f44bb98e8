package serve

import (
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"subgraph/internal/obs"
)

// SLO-driven load shedding. The server keeps rolling windows of job wall
// latency and queue wait, evaluates their p99 against configured budgets,
// and degrades hysteretically:
//
//	level 0 (healthy)  — everything admitted (subject to queue bounds);
//	level 1 (degraded) — a p99 is past its budget: low-priority jobs are
//	                     shed with 429 + an honest Retry-After;
//	level 2 (critical) — a p99 is past twice its budget: only
//	                     high-priority jobs are admitted.
//
// Recovery requires the breaching p99 to fall below RecoverFraction of
// the level's threshold, so the guard does not flap across the budget
// line; and a level is only entered once the window holds MinSamples
// observations, so a cold server is never degraded by its first slow job.

// Degradation levels.
const (
	sloHealthy  = 0
	sloDegraded = 1
	sloCritical = 2
)

// Job priorities (JobSpec.Priority). The empty string means normal.
const (
	PriorityLow    = "low"
	PriorityNormal = "normal"
	PriorityHigh   = "high"
)

// SLOConfig tunes the guard. The zero value disables shedding entirely
// (both budgets 0).
type SLOConfig struct {
	// LatencyBudget is the rolling p99 budget for end-to-end job wall
	// time (0 disables the latency trigger).
	LatencyBudget time.Duration
	// QueueWaitBudget is the rolling p99 budget for time spent queued
	// before a worker picks the job up (0 disables the queue trigger).
	QueueWaitBudget time.Duration
	// Window is the rolling span both gauges cover (default 30s).
	Window time.Duration
	// RecoverFraction is the hysteresis: a level is left only when the
	// breaching p99 falls below threshold×RecoverFraction (default 0.75).
	RecoverFraction float64
	// MinSamples is the observation count the window must hold before
	// the guard may degrade (default 8).
	MinSamples int
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.RecoverFraction <= 0 || c.RecoverFraction >= 1 {
		c.RecoverFraction = 0.75
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	return c
}

// Enabled reports whether any budget is configured.
func (c SLOConfig) Enabled() bool { return c.LatencyBudget > 0 || c.QueueWaitBudget > 0 }

// sloBuckets spans 0.25ms .. ~3min in ×√2 steps — fine enough that the
// p99 estimate is within ~41% of the true value, which keeps the
// hysteresis bands (enter at 1×, leave at 0.75×, critical at 2×)
// meaningful.
var sloBuckets = obs.ExpBuckets(250e3, 1.4142135623730951, 41)

// SLOTransition is one state change of the guard, as kept in the
// transition log served by GET /debug/slo. P99Ns is the breaching (or,
// on recovery, the recovered) rolling p99 at the moment of transition.
type SLOTransition struct {
	At      time.Time `json:"at"`
	From    string    `json:"from"`
	To      string    `json:"to"`
	Trigger string    `json:"trigger"` // "latency" | "queue_wait" | "recovery"
	P99Ns   float64   `json:"p99_ns"`
}

// maxSLOTransitions bounds the transition log; the oldest entries fall
// off. Transitions are rare (hysteresis), so 64 covers hours of flapping.
const maxSLOTransitions = 64

// levelName names a degradation level for logs and the debug surface.
func levelName(level int32) string {
	switch level {
	case sloDegraded:
		return "degraded"
	case sloCritical:
		return "critical"
	default:
		return "healthy"
	}
}

// sloGuard is the runtime state: two rolling windows and the current
// degradation level.
type sloGuard struct {
	cfg     SLOConfig
	latency *obs.Window // job wall ns
	qwait   *obs.Window // queue wait ns
	level   atomic.Int32
	reg     *obs.Registry
	logger  *slog.Logger
	now     func() time.Time

	// tmu serializes evaluate's read-modify-write of level (observations
	// arrive from every worker) and guards the transition log.
	tmu         sync.Mutex
	transitions []SLOTransition
}

func newSLOGuard(cfg SLOConfig, reg *obs.Registry, slots int) *sloGuard {
	cfg = cfg.withDefaults()
	g := &sloGuard{
		cfg:     cfg,
		latency: obs.NewWindow(cfg.Window, slots, sloBuckets),
		qwait:   obs.NewWindow(cfg.Window, slots, sloBuckets),
		reg:     reg,
		logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
		now:     time.Now,
	}
	reg.Gauge(GaugeSLODegraded)
	reg.Gauge(GaugeSLOLatencyP99)
	reg.Gauge(GaugeSLOQueueWaitP99)
	return g
}

// setClock points the windows and the transition log at a test clock.
func (g *sloGuard) setClock(now func() time.Time) {
	g.latency.SetClock(now)
	g.qwait.SetClock(now)
	g.tmu.Lock()
	g.now = now
	g.tmu.Unlock()
}

// Transitions returns a copy of the state-transition log, oldest first.
func (g *sloGuard) Transitions() []SLOTransition {
	g.tmu.Lock()
	defer g.tmu.Unlock()
	return append([]SLOTransition(nil), g.transitions...)
}

// observeLatency records a finished job's wall time and re-evaluates.
func (g *sloGuard) observeLatency(d time.Duration) {
	g.latency.Observe(float64(d.Nanoseconds()))
	g.evaluate()
}

// observeQueueWait records an admitted job's queue wait and re-evaluates.
func (g *sloGuard) observeQueueWait(d time.Duration) {
	g.qwait.Observe(float64(d.Nanoseconds()))
	g.evaluate()
}

// budgetLevel grades one rolling p99 against its budget under the
// guard's hysteresis, given the level the guard is currently at.
func (g *sloGuard) budgetLevel(w *obs.Window, budget time.Duration, cur int32) int32 {
	if budget <= 0 {
		return sloHealthy
	}
	if w.Count() < int64(g.cfg.MinSamples) {
		// Not enough evidence to degrade; and with an (almost) empty
		// window there is nothing to stay degraded about either.
		return sloHealthy
	}
	p99, ok := w.Quantile(0.99)
	if !ok {
		return sloHealthy
	}
	b := float64(budget.Nanoseconds())
	level := int32(sloHealthy)
	switch {
	case p99 > 2*b:
		level = sloCritical
	case p99 > b:
		level = sloDegraded
	}
	// Hysteresis: to leave a level the p99 must clear RecoverFraction of
	// that level's entry threshold, not merely dip under it.
	if cur > level {
		threshold := b
		if cur == sloCritical {
			threshold = 2 * b
		}
		if p99 >= threshold*g.cfg.RecoverFraction {
			level = cur
		}
	}
	return level
}

// evaluate recomputes the degradation level, exports the gauges, and —
// on a state change — appends to the transition log and emits one
// structured log line. tmu serializes the read-modify-write: workers
// observe concurrently, and two racing evaluations must not both claim
// the same transition.
func (g *sloGuard) evaluate() {
	g.tmu.Lock()
	cur := g.level.Load()
	lat := g.budgetLevel(g.latency, g.cfg.LatencyBudget, cur)
	qw := g.budgetLevel(g.qwait, g.cfg.QueueWaitBudget, cur)
	level := lat
	if qw > level {
		level = qw
	}
	g.level.Store(level)
	if level != cur {
		// Name the window that demanded the new level; a drop in level is
		// a recovery regardless of which budget had been breached.
		trigger := "latency"
		breaching := g.latency
		if qw > lat {
			trigger = "queue_wait"
			breaching = g.qwait
		}
		if level < cur {
			trigger = "recovery"
		}
		p99, _ := breaching.Quantile(0.99)
		tr := SLOTransition{
			At: g.now(), From: levelName(cur), To: levelName(level),
			Trigger: trigger, P99Ns: p99,
		}
		g.transitions = append(g.transitions, tr)
		if len(g.transitions) > maxSLOTransitions {
			g.transitions = g.transitions[len(g.transitions)-maxSLOTransitions:]
		}
		logf := g.logger.Info
		if level > cur {
			logf = g.logger.Warn
		}
		logf("slo transition",
			"from", tr.From, "to", tr.To, "trigger", tr.Trigger,
			"p99_ms", int64(tr.P99Ns/1e6))
	}
	g.tmu.Unlock()
	g.reg.Gauge(GaugeSLODegraded).Set(float64(level))
	if p, ok := g.latency.Quantile(0.99); ok {
		g.reg.Gauge(GaugeSLOLatencyP99).Set(p)
	}
	if p, ok := g.qwait.Quantile(0.99); ok {
		g.reg.Gauge(GaugeSLOQueueWaitP99).Set(p)
	}
}

// shouldShed decides whether a submission at the given priority is shed
// at the current degradation level.
func (g *sloGuard) shouldShed(priority string) bool {
	return levelSheds(g.level.Load(), priority)
}

// levelSheds reports whether a submission at the given priority is shed
// at a degradation level — the serve_slo_degraded gauge value: 0 healthy,
// 1 degraded (low priority shed), 2 critical (only high priority
// admitted).
func levelSheds(level int32, priority string) bool {
	switch level {
	case sloDegraded:
		return priority == PriorityLow
	case sloCritical:
		return priority != PriorityHigh
	default:
		return false
	}
}

// SLOLevelName names a degradation level as /debug surfaces spell it.
func SLOLevelName(level int) string { return levelName(int32(level)) }

// meanLatency estimates per-job service time from the rolling window,
// falling back to a nominal 100ms before any job has finished.
func (g *sloGuard) meanLatency() time.Duration {
	if m, ok := g.latency.Mean(); ok && m > 0 {
		return time.Duration(m)
	}
	return 100 * time.Millisecond
}

// validPriority reports whether a JobSpec priority value is known.
func validPriority(p string) bool {
	switch p {
	case "", PriorityLow, PriorityNormal, PriorityHigh:
		return true
	}
	return false
}
