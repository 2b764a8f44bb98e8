package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Metric names populated by Collector. Counters accumulate from per-round
// and per-event hooks (not from the final summary), so comparing them
// against the runner's returned Stats is a genuine cross-check of the
// instrumentation — the acceptance test in internal/congest asserts exact
// equality.
const (
	MetricRounds        = "rounds_total"
	MetricBits          = "bits_total"
	MetricMessages      = "messages_total"
	MetricDropped       = "dropped_total"
	MetricCorrupted     = "corrupted_total"
	MetricCorruptedBits = "corrupted_bits_total"
	MetricCrashes       = "crashed_nodes_total"
	MetricRejects       = "rejects_total"
	MetricHalts         = "halts_total"
	MetricRuns          = "runs_total"

	GaugeMaxEdgeBits       = "max_edge_bits_round"
	GaugeWorkerUtilization = "worker_utilization_avg"

	HistRoundBits   = "round_bits"
	HistRoundWallNs = "round_wall_ns"
)

// RoundBitsBuckets and RoundWallBuckets are the fixed bucket bounds of the
// collector's histograms (powers of four: wide dynamic range, few buckets).
var (
	RoundBitsBuckets = []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}
	RoundWallBuckets = []float64{1e3, 4e3, 16e3, 64e3, 256e3, 1.024e6, 4.096e6, 16.384e6, 65.536e6, 262.144e6}
)

// PhaseTiming is one named engine phase measurement.
type PhaseTiming struct {
	Name      string `json:"name"`
	ElapsedNs int64  `json:"elapsed_ns"`
}

// RunReport is the machine-readable snapshot a Collector builds from a
// run's event stream: the run description, its final summary, the metric
// registry snapshot, phase timings, and the full per-round series.
type RunReport struct {
	Info    RunInfo          `json:"info"`
	Summary RunSummary       `json:"summary"`
	Metrics RegistrySnapshot `json:"metrics"`
	Phases  []PhaseTiming    `json:"phases,omitempty"`
	Rounds  []RoundStats     `json:"rounds,omitempty"`
}

// WriteJSON writes the report, indented, to w.
func (r *RunReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Collector is a Tracer that aggregates the event stream into a Registry
// and a RunReport. When a detector executes several simulator runs on one
// Collector, counters, histograms, and the round series accumulate across
// runs; Info and Summary describe the last run.
type Collector struct {
	reg     *Registry
	info    RunInfo
	summary RunSummary
	phases  []PhaseTiming
	rounds  []RoundStats

	utilSum   float64
	utilCount int64
}

// NewCollector returns a collector with a fresh registry.
func NewCollector() *Collector {
	c := &Collector{reg: NewRegistry()}
	// Pre-create the fixed-bucket histograms so snapshots of quiet runs
	// still carry the schema.
	c.reg.Histogram(HistRoundBits, RoundBitsBuckets)
	c.reg.Histogram(HistRoundWallNs, RoundWallBuckets)
	return c
}

// Registry exposes the collector's registry (shared metric handles).
func (c *Collector) Registry() *Registry { return c.reg }

// RunStart implements Tracer.
func (c *Collector) RunStart(info RunInfo) {
	c.info = info
	c.reg.Counter(MetricRuns).Inc()
}

// RoundStart implements Tracer.
func (c *Collector) RoundStart(round int) {}

// Message implements Tracer. Per-message aggregates are counted at
// RoundEnd; nothing to do here.
func (c *Collector) Message(ev MessageEvent) {}

// IgnoresMessages implements MessageIgnorer: the collector counts
// messages from RoundEnd, so the runner need not build message events
// for it.
func (c *Collector) IgnoresMessages() bool { return true }

// Fault implements Tracer.
func (c *Collector) Fault(ev FaultEvent) {
	if ev.Kind == "crash" {
		c.reg.Counter(MetricCrashes).Inc()
	}
}

// Node implements Tracer.
func (c *Collector) Node(ev NodeEvent) {
	switch ev.Kind {
	case "reject":
		c.reg.Counter(MetricRejects).Inc()
	case "halt":
		c.reg.Counter(MetricHalts).Inc()
	}
}

// RoundEnd implements Tracer.
func (c *Collector) RoundEnd(rs RoundStats) {
	c.reg.Counter(MetricRounds).Inc()
	c.reg.Counter(MetricBits).Add(rs.Bits)
	c.reg.Counter(MetricMessages).Add(rs.Messages)
	c.reg.Counter(MetricDropped).Add(rs.Dropped)
	c.reg.Counter(MetricCorrupted).Add(rs.Corrupted)
	c.reg.Histogram(HistRoundBits, RoundBitsBuckets).Observe(float64(rs.Bits))
	wall := rs.ComputeNs + rs.DeliverNs
	if wall > 0 {
		c.reg.Histogram(HistRoundWallNs, RoundWallBuckets).Observe(float64(wall))
	}
	if rs.WorkerUtilization > 0 {
		c.utilSum += rs.WorkerUtilization
		c.utilCount++
		c.reg.Gauge(GaugeWorkerUtilization).Set(c.utilSum / float64(c.utilCount))
	}
	c.rounds = append(c.rounds, rs)
}

// Phase implements Tracer.
func (c *Collector) Phase(name string, elapsed time.Duration) {
	c.phases = append(c.phases, PhaseTiming{Name: name, ElapsedNs: elapsed.Nanoseconds()})
}

// RunEnd implements Tracer.
func (c *Collector) RunEnd(sum RunSummary) {
	c.summary = sum
	// CorruptedBits is only surfaced in the summary (per-message flipped
	// counts exist on MessageEvents, but the summary total is exact even
	// when a sink omits payloads). MaxEdgeBitsRound likewise.
	c.reg.Counter(MetricCorruptedBits).Add(sum.CorruptedBits)
	c.reg.Gauge(GaugeMaxEdgeBits).Set(float64(sum.MaxEdgeBitsRound))
}

// Report snapshots the collector into a RunReport.
func (c *Collector) Report() *RunReport {
	return &RunReport{
		Info:    c.info,
		Summary: c.summary,
		Metrics: c.reg.Snapshot(),
		Phases:  append([]PhaseTiming(nil), c.phases...),
		Rounds:  append([]RoundStats(nil), c.rounds...),
	}
}

// WriteJSON writes the current report, indented, to w.
func (c *Collector) WriteJSON(w io.Writer) error { return c.Report().WriteJSON(w) }
