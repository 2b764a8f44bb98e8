package core

import (
	"time"

	"subgraph/internal/congest"
	"subgraph/internal/obs"
)

// Exec holds the simulator run knobs every detector shares. The paper's
// detectors all run on one synchronous simulator and differ only in their
// bandwidth and round budget, so each config embeds one Exec and each
// detector sets only B, MaxRounds and Broadcast itself.
type Exec struct {
	// Seed derives every node's private random source.
	Seed int64
	// Parallel selects the goroutine engine; both engines produce
	// identical executions.
	Parallel bool
	// Faults optionally injects a delivery-phase fault plan (drops,
	// corruption, crash-stops, throttling).
	Faults *congest.FaultPlan
	// Deadline aborts the run after a wall-clock budget (0 = none); on
	// expiry the partial report is returned alongside the error.
	Deadline time.Duration
	// Resilient wraps every node in the ack/retransmit decorator
	// (congest.WrapResilient), trading rounds and bandwidth for
	// tolerance to message loss. Incompatible with broadcast-CONGEST.
	Resilient *congest.ResilientConfig
	// Tracer, when non-nil, streams run events (rounds, messages,
	// faults, node transitions, timings) to the observability layer in
	// internal/obs; nil disables instrumentation at zero cost.
	Tracer obs.Tracer
}

// run executes one simulation of factory on nw. ccfg carries the
// detector's B, MaxRounds and Broadcast; run adds the knobs and the
// optional resilient decorator. On a deadline or cancellation abort the
// partial Result is returned alongside the error, so callers surface a
// partial report instead of nothing.
func (x Exec) run(nw *congest.Network, factory func() congest.Node, ccfg congest.Config) (*congest.Result, error) {
	ccfg.Seed, ccfg.Parallel = x.Seed, x.Parallel
	ccfg.Faults, ccfg.Deadline, ccfg.Tracer = x.Faults, x.Deadline, x.Tracer
	if x.Resilient != nil {
		var err error
		if factory, ccfg, err = congest.WrapResilient(factory, ccfg, *x.Resilient); err != nil {
			return nil, err
		}
	}
	return congest.Run(nw, factory, ccfg)
}

// Outcome is the decision and cost every detector report carries.
type Outcome struct {
	// Detected reports whether some node rejected.
	Detected bool
	// Rounds is the number of rounds executed.
	Rounds int
	// Bandwidth is the per-edge bit budget the detector ran under
	// (0 = unbounded, the LOCAL model).
	Bandwidth int
	// Stats holds the simulator's communication measurements.
	Stats congest.Stats
}

// outcome reads a run's Outcome under bandwidth b.
func outcome(res *congest.Result, b int) Outcome {
	return Outcome{Detected: res.Rejected(), Rounds: res.Stats.Rounds, Bandwidth: b, Stats: res.Stats}
}
