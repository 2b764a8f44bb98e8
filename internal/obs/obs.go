// Package obs is the simulator's observability layer: a streaming Tracer
// hook interface fed by the congest runner, a JSONL trace sink, a metrics
// registry (counters, gauges, fixed-bucket histograms), a machine-readable
// run report, and profiling wiring shared by the CLIs.
//
// The package is a leaf — it imports only the standard library — so every
// layer of the simulator (runner, detectors, CLIs) can depend on it
// without cycles. All hooks are invoked from the runner's orchestrating
// goroutine in deterministic order, so Tracer implementations need not be
// thread-safe and trace streams are reproducible for a fixed seed (modulo
// wall-clock timing fields, which sinks can omit).
package obs

import "time"

// RunInfo describes a run at its start.
type RunInfo struct {
	// Engine is "sequential" or "parallel".
	Engine string `json:"engine"`
	// Nodes and Edges describe the topology.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Bandwidth is the per-edge per-round bit budget (0 = unbounded).
	Bandwidth int `json:"bandwidth_bits"`
	// MaxRounds is the configured round cap.
	MaxRounds int `json:"max_rounds"`
	// Seed is the run seed.
	Seed int64 `json:"seed"`
	// Workers is the parallel engine's worker count (omitted when
	// sequential).
	Workers int `json:"workers,omitempty"`
	// Broadcast marks the broadcast-CONGEST variant.
	Broadcast bool `json:"broadcast,omitempty"`
}

// RoundStats summarizes one completed round.
type RoundStats struct {
	Round int `json:"round"`
	// Bits and Messages count what the algorithm sent this round
	// (dropped messages included — the sender paid for them).
	Bits     int64 `json:"bits"`
	Messages int64 `json:"messages"`
	// Dropped / Corrupted count adversary actions this round.
	Dropped   int64 `json:"dropped,omitempty"`
	Corrupted int64 `json:"corrupted,omitempty"`
	// ActiveNodes is the number of nodes that were neither halted nor
	// crashed at the start of the round.
	ActiveNodes int `json:"active_nodes"`
	// ComputeNs / DeliverNs split the round's wall time into the node
	// Round-call phase and the validate-and-deliver phase.
	ComputeNs int64 `json:"compute_ns,omitempty"`
	DeliverNs int64 `json:"deliver_ns,omitempty"`
	// WorkerUtilization is busy-time / (workers × compute wall time) for
	// the parallel engine, 1 for the sequential engine.
	WorkerUtilization float64 `json:"worker_utilization,omitempty"`
}

// MessageEvent is one message crossing the network, observed in the
// runner's deterministic delivery order. Bits counts the payload as sent;
// Payload renders the payload as delivered (post-corruption).
type MessageEvent struct {
	Round      int    `json:"round"`
	FromVertex int    `json:"from"`
	ToVertex   int    `json:"to"`
	FromID     int64  `json:"from_id"`
	ToID       int64  `json:"to_id"`
	Bits       int    `json:"bits"`
	Fault      string `json:"fault,omitempty"` // "dropped" | "corrupted"
	// FlippedBits is the number of payload bits the adversary flipped
	// (Fault == "corrupted" only).
	FlippedBits int    `json:"flipped_bits,omitempty"`
	Payload     string `json:"payload,omitempty"`
}

// FaultEvent is a non-message adversary action (currently crash-stops).
type FaultEvent struct {
	Round  int    `json:"round"`
	Kind   string `json:"kind"` // "crash"
	Vertex int    `json:"vertex"`
	ID     int64  `json:"id"`
}

// NodeEvent is a node state transition: the first round a node latches
// reject, and the round it halts.
type NodeEvent struct {
	Round  int    `json:"round"`
	Kind   string `json:"kind"` // "reject" | "halt"
	Vertex int    `json:"vertex"`
	ID     int64  `json:"id"`
}

// RunSummary mirrors the run's final Stats plus its outcome.
type RunSummary struct {
	// Outcome is "completed" for a normal finish or "aborted" for a
	// deadline / cancellation abort returning a partial result.
	Outcome string `json:"outcome"`
	// Error carries the abort reason when Outcome == "aborted".
	Error            string `json:"error,omitempty"`
	Rounds           int    `json:"rounds"`
	TotalBits        int64  `json:"total_bits"`
	TotalMessages    int64  `json:"total_messages"`
	MaxEdgeBitsRound int    `json:"max_edge_bits_round"`
	Dropped          int64  `json:"dropped_messages,omitempty"`
	Corrupted        int64  `json:"corrupted_messages,omitempty"`
	CorruptedBits    int64  `json:"corrupted_bits,omitempty"`
	CrashedNodes     int    `json:"crashed_nodes,omitempty"`
	Accepts          int    `json:"accepts"`
	Rejects          int    `json:"rejects"`
	WallNs           int64  `json:"wall_ns,omitempty"`
}

// Tracer receives streaming run events from the congest runner. All
// methods are called from a single goroutine, in deterministic order for
// a fixed seed; implementations must not retain event structs past the
// call (sinks serialize or aggregate immediately).
//
// A nil Tracer in the runner config disables instrumentation entirely:
// the hook call sites are nil-guarded and add zero allocations to the hot
// loop (enforced by the runner's alloc-guard test and benchmarks).
type Tracer interface {
	// RunStart opens a run. Detectors that execute several simulator runs
	// produce several RunStart/RunEnd brackets on the same Tracer.
	RunStart(info RunInfo)
	// RoundStart begins round `round` (1-based).
	RoundStart(round int)
	// Message observes one sent message, annotated with the adversary's
	// action on it. A tracer that ignores messages (MessageIgnorer) is
	// not called.
	Message(ev MessageEvent)
	// Fault observes a non-message adversary action (crash-stop).
	Fault(ev FaultEvent)
	// Node observes a node decision/halt transition.
	Node(ev NodeEvent)
	// RoundEnd closes a round with its aggregate measurements.
	RoundEnd(rs RoundStats)
	// Phase reports an engine phase timing (e.g. "setup": node
	// construction + Init calls).
	Phase(name string, elapsed time.Duration)
	// RunEnd closes the run with its final aggregates. It is not called
	// on model-violation errors (those runs return no result at all).
	RunEnd(sum RunSummary)
}

// MessageIgnorer is implemented by a Tracer that may say its Message
// method does nothing. For such a tracer the runner builds no
// MessageEvent and renders no payload, so a run costs it nothing per
// message. Collector and SpanTracer ignore messages; see ReadsMessages.
type MessageIgnorer interface {
	IgnoresMessages() bool
}

// ReadsMessages reports whether t reads Message events: true unless t is
// a MessageIgnorer that ignores them. A Multi reads them when any of its
// sinks does.
func ReadsMessages(t Tracer) bool {
	mi, ok := t.(MessageIgnorer)
	return !ok || !mi.IgnoresMessages()
}

// Multi fans events out to several tracers in order. Nil entries are
// skipped; Multi(nil...) and Multi() return nil, so callers can pass the
// result straight to a config.
//
// Each sink is panic-isolated: a tracer that panics is recovered and the
// remaining sinks still see the event, so a broken debug sink cannot
// kill a run (the engine treats tracer hooks as infallible). Failing
// sinks are expected to latch errors themselves, as JSONLTracer does.
func Multi(tracers ...Tracer) Tracer {
	kept := make([]Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			kept = append(kept, t)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiTracer(kept)
}

type multiTracer []Tracer

// recoverSink swallows a sink panic. The per-event helpers below exist
// (instead of deferred closures at each call site) so the fan-out path
// stays allocation-free: plain functions with value arguments open-code
// their defers, a closure capturing the event would not.
func recoverSink() { _ = recover() }

func safeRunStart(t Tracer, info RunInfo) {
	defer recoverSink()
	t.RunStart(info)
}
func safeRoundStart(t Tracer, round int) {
	defer recoverSink()
	t.RoundStart(round)
}
func safeMessage(t Tracer, ev MessageEvent) {
	defer recoverSink()
	t.Message(ev)
}
func safeFault(t Tracer, ev FaultEvent) {
	defer recoverSink()
	t.Fault(ev)
}
func safeNode(t Tracer, ev NodeEvent) {
	defer recoverSink()
	t.Node(ev)
}
func safeRoundEnd(t Tracer, rs RoundStats) {
	defer recoverSink()
	t.RoundEnd(rs)
}
func safePhase(t Tracer, name string, elapsed time.Duration) {
	defer recoverSink()
	t.Phase(name, elapsed)
}
func safeRunEnd(t Tracer, sum RunSummary) {
	defer recoverSink()
	t.RunEnd(sum)
}

func (m multiTracer) RunStart(info RunInfo) {
	for _, t := range m {
		safeRunStart(t, info)
	}
}
func (m multiTracer) RoundStart(round int) {
	for _, t := range m {
		safeRoundStart(t, round)
	}
}

// IgnoresMessages implements MessageIgnorer: the fan-out ignores
// messages only when every sink does.
func (m multiTracer) IgnoresMessages() bool {
	for _, t := range m {
		if ReadsMessages(t) {
			return false
		}
	}
	return true
}

func (m multiTracer) Message(ev MessageEvent) {
	for _, t := range m {
		safeMessage(t, ev)
	}
}
func (m multiTracer) Fault(ev FaultEvent) {
	for _, t := range m {
		safeFault(t, ev)
	}
}
func (m multiTracer) Node(ev NodeEvent) {
	for _, t := range m {
		safeNode(t, ev)
	}
}
func (m multiTracer) RoundEnd(rs RoundStats) {
	for _, t := range m {
		safeRoundEnd(t, rs)
	}
}
func (m multiTracer) Phase(name string, elapsed time.Duration) {
	for _, t := range m {
		safePhase(t, name, elapsed)
	}
}
func (m multiTracer) RunEnd(sum RunSummary) {
	for _, t := range m {
		safeRunEnd(t, sum)
	}
}
