package congest

import (
	"time"

	"subgraph/internal/bitio"
	"subgraph/internal/obs"
)

// runTrace is the per-run instrumentation state behind Config.Tracer. A
// nil *runTrace is the disabled state: every hook is a nil-receiver no-op
// taking only value arguments, so the runner's hot loop performs zero
// allocations and no timestamp reads when tracing is off (enforced by
// TestDisabledTraceHooksAllocFree and the runner overhead benchmarks).
//
// All hooks run on the runner's orchestrating goroutine except the
// parallel engine's per-worker busy-time stores, which write disjoint
// workerBusy slots and are read only after wg.Wait().
type runTrace struct {
	t         obs.Tracer
	messages  bool // whether t reads Message events (obs.ReadsMessages)
	runStart  time.Time
	setupDone time.Time // end of the setup phase = start of the round loop
	loopDone  time.Time // end of the round loop = start of teardown

	roundStart   time.Time
	deliverStart time.Time
	computeNs    int64
	utilization  float64

	workerBusy []int64

	// Snapshots of cumulative Stats counters at round start, for
	// per-round deltas.
	prevMsgs, prevDropped, prevCorrupted int64

	// Already-reported node transitions, keyed by vertex.
	halted, rejected []bool
}

// newRunTrace returns nil when t is nil — the zero-overhead path.
func newRunTrace(t obs.Tracer, n int) *runTrace {
	if t == nil {
		return nil
	}
	return &runTrace{
		t:        t,
		messages: obs.ReadsMessages(t),
		runStart: time.Now(),
		halted:   make([]bool, n),
		rejected: make([]bool, n),
	}
}

func (rt *runTrace) onRunStart(nw *Network, cfg Config, workers int) {
	if rt == nil {
		return
	}
	info := obs.RunInfo{
		Engine:    "sequential",
		Nodes:     nw.N(),
		Edges:     nw.G.M(),
		Bandwidth: cfg.B,
		MaxRounds: cfg.MaxRounds,
		Seed:      cfg.Seed,
		Broadcast: cfg.Broadcast,
	}
	if cfg.Parallel {
		info.Engine = "parallel"
		info.Workers = workers
	}
	rt.t.RunStart(info)
}

// onSetupDone reports the "setup" phase: node construction + Init calls.
func (rt *runTrace) onSetupDone() {
	if rt == nil {
		return
	}
	rt.setupDone = time.Now()
	rt.t.Phase("setup", rt.setupDone.Sub(rt.runStart))
}

// onRoundsDone reports the "rounds" phase: the whole round loop, from the
// end of setup to the loop's exit (normal completion or abort). Called at
// the top of finishRun so every exit path emits it exactly once.
func (rt *runTrace) onRoundsDone() {
	if rt == nil {
		return
	}
	rt.loopDone = time.Now()
	rt.t.Phase("rounds", rt.loopDone.Sub(rt.setupDone))
}

// onTeardownDone reports the "teardown" phase: decision assembly after the
// round loop, immediately before RunEnd closes the trace.
func (rt *runTrace) onTeardownDone() {
	if rt == nil {
		return
	}
	rt.t.Phase("teardown", time.Since(rt.loopDone))
}

// onRoundStart opens a round; msgs/dropped/corrupted are the cumulative
// Stats counters at round start (value parameters, so a nil receiver
// never forces Stats to escape).
func (rt *runTrace) onRoundStart(round int, msgs, dropped, corrupted int64) {
	if rt == nil {
		return
	}
	rt.prevMsgs = msgs
	rt.prevDropped = dropped
	rt.prevCorrupted = corrupted
	rt.roundStart = time.Now()
	rt.t.RoundStart(round)
}

// workerSlots returns the per-worker busy accumulator, sized and zeroed
// for this round's compute phase.
func (rt *runTrace) workerSlots(workers int) []int64 {
	if rt == nil {
		return nil
	}
	if cap(rt.workerBusy) < workers {
		rt.workerBusy = make([]int64, workers)
	}
	rt.workerBusy = rt.workerBusy[:workers]
	for i := range rt.workerBusy {
		rt.workerBusy[i] = 0
	}
	return rt.workerBusy
}

// onComputeEnd closes the round's node-step phase. launched is the number
// of worker goroutines actually started (0 for the sequential engine).
func (rt *runTrace) onComputeEnd(launched int) {
	if rt == nil {
		return
	}
	rt.computeNs = time.Since(rt.roundStart).Nanoseconds()
	rt.utilization = 1
	if launched > 0 && rt.computeNs > 0 {
		var busy int64
		for _, b := range rt.workerBusy[:launched] {
			busy += b
		}
		rt.utilization = float64(busy) / (float64(launched) * float64(rt.computeNs))
	}
	rt.deliverStart = time.Now()
}

func (rt *runTrace) onCrash(round, v int, id NodeID) {
	if rt == nil {
		return
	}
	rt.t.Fault(obs.FaultEvent{Round: round, Kind: "crash", Vertex: v, ID: int64(id)})
}

// onMessage observes one sent message in delivery order. bits is the
// payload length as sent; payload is the payload as delivered. Nothing
// is built for a tracer that ignores messages.
func (rt *runTrace) onMessage(round, fromV, toV int, fromID, toID NodeID,
	bits int, payload bitio.BitString, tag FaultTag, flipped int) {
	if rt == nil || !rt.messages {
		return
	}
	ev := obs.MessageEvent{
		Round:      round,
		FromVertex: fromV,
		ToVertex:   toV,
		FromID:     int64(fromID),
		ToID:       int64(toID),
		Bits:       bits,
		Payload:    payload.String(),
	}
	switch tag {
	case FaultDropped:
		ev.Fault = "dropped"
	case FaultCorrupted:
		ev.Fault = "corrupted"
		ev.FlippedBits = flipped
	}
	rt.t.Message(ev)
}

// onNodeScan reports reject/halt transitions for vertex v; called once per
// vertex per round from the sequential delivery scan.
func (rt *runTrace) onNodeScan(round, v int, env *Env) {
	if rt == nil {
		return
	}
	if !rt.rejected[v] && env.decision == Reject {
		rt.rejected[v] = true
		rt.t.Node(obs.NodeEvent{Round: round, Kind: "reject", Vertex: v, ID: int64(env.id)})
	}
	if !rt.halted[v] && env.halted {
		rt.halted[v] = true
		rt.t.Node(obs.NodeEvent{Round: round, Kind: "halt", Vertex: v, ID: int64(env.id)})
	}
}

// onRoundEnd closes a round; bits is the round's sent-bit count and
// msgs/dropped/corrupted are the cumulative Stats counters at round end.
func (rt *runTrace) onRoundEnd(round int, bits, msgs, dropped, corrupted int64, active int) {
	if rt == nil {
		return
	}
	rt.t.RoundEnd(obs.RoundStats{
		Round:             round,
		Bits:              bits,
		Messages:          msgs - rt.prevMsgs,
		Dropped:           dropped - rt.prevDropped,
		Corrupted:         corrupted - rt.prevCorrupted,
		ActiveNodes:       active,
		ComputeNs:         rt.computeNs,
		DeliverNs:         time.Since(rt.deliverStart).Nanoseconds(),
		WorkerUtilization: rt.utilization,
	})
}

// onRunEnd closes the run. outcome is "completed" or "aborted"; errMsg
// carries the abort reason.
func (rt *runTrace) onRunEnd(res *Result, outcome, errMsg string) {
	if rt == nil {
		return
	}
	sum := obs.RunSummary{
		Outcome:          outcome,
		Error:            errMsg,
		Rounds:           res.Stats.Rounds,
		TotalBits:        res.Stats.TotalBits,
		TotalMessages:    res.Stats.TotalMessages,
		MaxEdgeBitsRound: res.Stats.MaxEdgeBitsRound,
		Dropped:          res.Stats.DroppedMessages,
		Corrupted:        res.Stats.CorruptedMessages,
		CorruptedBits:    res.Stats.CorruptedBits,
		CrashedNodes:     res.Stats.CrashedNodes,
		WallNs:           time.Since(rt.runStart).Nanoseconds(),
	}
	for _, d := range res.Decisions {
		if d == Reject {
			sum.Rejects++
		} else {
			sum.Accepts++
		}
	}
	rt.t.RunEnd(sum)
}
