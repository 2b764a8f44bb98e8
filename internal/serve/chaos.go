package serve

import (
	"math/rand"
	"net/http"
	"sync"
	"time"

	"subgraph/internal/obs"
)

// Chaos metric names (counted in the server's registry so a test can
// read back exactly how much fault injection it survived).
const (
	MetricChaos429   = "chaos_injected_429_total"
	MetricChaos503   = "chaos_injected_503_total"
	MetricChaosDelay = "chaos_injected_delay_total"
)

// ChaosConfig tunes the fault-injection middleware that tests wrap around
// the daemon's API surface. Rates are per-request probabilities in [0,1].
type ChaosConfig struct {
	// Seed makes the injection sequence deterministic.
	Seed int64
	// Reject429 is the probability of answering 429 (Retry-After: 1)
	// without reaching the server.
	Reject429 float64
	// Fail503 is the probability of answering 503 without reaching the
	// server.
	Fail503 float64
	// LatencyRate is the probability of delaying a request by a uniform
	// duration in (0, LatencyMax].
	LatencyRate float64
	// LatencyMax bounds an injected delay (default 50ms).
	LatencyMax time.Duration
}

// Chaos injects faults in front of an http.Handler: the shared test
// adversary the client's retry policy and the canary acceptance run are
// graded against. Injection only hits /v1/ paths — health and metrics
// stay clean so probes and the test's own bookkeeping are not confounded.
type Chaos struct {
	cfg ChaosConfig
	reg *obs.Registry

	mu  sync.Mutex
	rng *rand.Rand
}

// NewChaos builds the injector, registering its counters in reg.
func NewChaos(cfg ChaosConfig, reg *obs.Registry) *Chaos {
	if cfg.LatencyMax <= 0 {
		cfg.LatencyMax = 50 * time.Millisecond
	}
	for _, name := range []string{MetricChaos429, MetricChaos503, MetricChaosDelay} {
		reg.Counter(name)
	}
	return &Chaos{cfg: cfg, reg: reg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// roll draws the three injection decisions atomically, keeping the
// sequence deterministic under concurrent requests (order of arrival
// still varies, but each draw is well-defined).
func (c *Chaos) roll() (r429, r503 bool, delay time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r429 = c.rng.Float64() < c.cfg.Reject429
	r503 = c.rng.Float64() < c.cfg.Fail503
	if c.rng.Float64() < c.cfg.LatencyRate {
		delay = time.Duration(c.rng.Int63n(int64(c.cfg.LatencyMax))) + 1
	}
	return r429, r503, delay
}

// Middleware wraps next with fault injection.
func (c *Chaos) Middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if len(r.URL.Path) < 4 || r.URL.Path[:4] != "/v1/" {
			next.ServeHTTP(w, r)
			return
		}
		r429, r503, delay := c.roll()
		if delay > 0 {
			c.reg.Counter(MetricChaosDelay).Inc()
			time.Sleep(delay)
		}
		switch {
		case r429:
			c.reg.Counter(MetricChaos429).Inc()
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests, "chaos: injected backpressure")
		case r503:
			c.reg.Counter(MetricChaos503).Inc()
			writeErr(w, http.StatusServiceUnavailable, "chaos: injected outage")
		default:
			next.ServeHTTP(w, r)
		}
	})
}
