package congest

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"subgraph/internal/obs"
)

// Config controls a simulation run.
type Config struct {
	// B is the per-edge per-round bandwidth in bits; B ≤ 0 means
	// unbounded (the LOCAL model).
	B int
	// MaxRounds bounds the execution; the run also stops when every node
	// has halted. MaxRounds ≤ 0 is an error (a safety net against
	// non-terminating algorithms).
	MaxRounds int
	// Seed derives every node's private random source.
	Seed int64
	// Broadcast restricts nodes to Env.Broadcast (the broadcast-CONGEST
	// variant in which a node sends the same message on all edges).
	Broadcast bool
	// Parallel selects the goroutine engine; the default engine is the
	// deterministic sequential one. Both produce identical executions.
	Parallel bool
	// Workers sets the parallel engine's worker count (default GOMAXPROCS).
	Workers int
	// RecordTranscript retains every message sent, grouped by round.
	RecordTranscript bool

	// Faults injects a declarative fault plan (see faults.go). Nil or the
	// zero plan leaves the network perfectly reliable; any plan is applied
	// deterministically in the delivery phase, identically on both engines.
	Faults *FaultPlan
	// Adversary installs a custom delivery-phase hook; it takes precedence
	// over Faults. The hook must be deterministic (see the interface docs).
	Adversary Adversary
	// Deadline aborts the run after a wall-clock budget (0 = none). The
	// aborted run returns the partial Result accumulated so far together
	// with an error wrapping context.DeadlineExceeded.
	Deadline time.Duration
	// Context optionally cancels the run between rounds; on cancellation
	// Run returns the partial Result plus an error wrapping the context's
	// cause. Nil means no cancellation.
	Context context.Context

	// Tracer, when non-nil, receives streaming run events: round
	// begin/end with per-round bits/messages/timings, every message with
	// its fault annotation, crash-stop fault events, node reject/halt
	// transitions, engine phase timings, and a final summary. All hooks
	// fire on the runner's orchestrating goroutine in deterministic
	// order. A nil Tracer adds zero allocations to the hot loop (see
	// trace.go and the alloc-guard test); unlike RecordTranscript, a
	// streaming Tracer sink observes every message without buffering the
	// run in memory.
	Tracer obs.Tracer
}

// Stats aggregates communication measurements of a run.
//
// Partial-run invariant: on a deadline-expired or context-canceled run
// the returned Stats cover exactly the rounds that fully executed —
// len(PerRoundBits) == Rounds with no trailing entries for the aborted
// round (aborts happen only between rounds, never mid-round), and both
// PerRoundBits and PerNodeBits sum to TotalBits. The consistency test in
// stats_test.go pins this on both engines.
type Stats struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// TotalBits is the sum of all payload lengths.
	TotalBits int64
	// TotalMessages counts messages (including empty payloads).
	TotalMessages int64
	// MaxEdgeBitsRound is the maximum number of bits carried by one
	// directed edge within a single round (≤ B when B > 0).
	MaxEdgeBitsRound int
	// PerRoundBits[r] is the number of bits sent in round r+1.
	PerRoundBits []int64
	// PerNodeBits[v] is the number of bits sent by vertex v in total.
	PerNodeBits []int64

	// DroppedMessages counts messages withheld by the fault adversary
	// (Bernoulli, targeted, or throttled). Sent-side accounting above
	// still includes them: the algorithm paid for the transmission.
	DroppedMessages int64
	// CorruptedMessages counts messages delivered with flipped bits.
	CorruptedMessages int64
	// CorruptedBits is the total number of payload bits flipped.
	CorruptedBits int64
	// CrashedNodes counts nodes crash-stopped by the adversary.
	CrashedNodes int
}

// Result is the outcome of a run.
type Result struct {
	// Decisions holds each vertex's final decision.
	Decisions []Decision
	// Stats holds communication measurements.
	Stats Stats
	// Transcript is non-nil when Config.RecordTranscript was set.
	Transcript *Transcript
}

// Rejected reports whether at least one node rejected — the "H detected"
// outcome under Definition 1.
func (r *Result) Rejected() bool {
	for _, d := range r.Decisions {
		if d == Reject {
			return true
		}
	}
	return false
}

// Transcript records all messages of a run in delivery order.
type Transcript struct {
	// Rounds[r] lists the messages sent in round r+1, sorted by
	// (sender vertex, recipient vertex, emission order). Entries carry the
	// adversary's FaultTag; corrupted entries show the payload as
	// delivered, dropped entries the payload as sent.
	Rounds [][]Message
}

// NodePanicError is a panic inside a node's Init or Round, recovered by
// the runner (on either engine) and surfaced as a structured error instead
// of taking down the process.
type NodePanicError struct {
	// Vertex and ID name the panicking node.
	Vertex int
	ID     NodeID
	// Round is the round being executed (0 for Init).
	Round int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

func (e *NodePanicError) Error() string {
	return fmt.Sprintf("congest: node %d (vertex %d) panicked in round %d: %v",
		e.ID, e.Vertex, e.Round, e.Value)
}

// Run executes factory-created nodes on the network under cfg.
//
// The factory is invoked once per vertex, in vertex order, and must return
// a fresh Node each time. Run returns an error if the algorithm violates
// the model (bandwidth exceeded, send to non-neighbor or ambiguous
// duplicate ID, send during Init) or panics (a *NodePanicError carrying
// the vertex and round). On deadline expiry or context cancellation the
// partial Result accumulated so far is returned alongside the error; all
// other errors return a nil Result.
func Run(nw *Network, factory func() Node, cfg Config) (*Result, error) {
	if cfg.MaxRounds <= 0 {
		return nil, fmt.Errorf("congest: MaxRounds must be positive, got %d", cfg.MaxRounds)
	}
	adv := cfg.Adversary
	if adv == nil && cfg.Faults != nil && !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
		adv = NewPlanAdversary(*cfg.Faults)
	}
	var start time.Time
	if cfg.Deadline > 0 {
		start = time.Now()
	}

	n := nw.N()
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// rt is nil when no Tracer is configured: every runTrace hook is a
	// nil-receiver no-op, so hook call sites below are deliberately
	// unguarded — adding `if rt != nil` branches is both redundant and a
	// past source of inconsistency (see trace.go).
	rt := newRunTrace(cfg.Tracer, n)
	rt.onRunStart(nw, cfg, workers)

	// The run's working memory comes from the Network's pool and goes
	// back when the run ends, on every path (see runScratch).
	idx := nw.deliveryIndex()
	sc := nw.getScratch(idx)
	defer nw.putScratch(sc)
	envs, nodes := sc.envs, sc.nodes
	for v := 0; v < n; v++ {
		ids, vs := idx.neighborsOf(v)
		env := envs[v]
		*env = Env{
			id:        nw.ids[v],
			n:         n,
			b:         cfg.B,
			neighbors: ids,
			nbrVs:     vs,
			rngSrc:    splitMix64{s: uint64(mixSeed(cfg.Seed, int64(v)))},
			broadcast: cfg.Broadcast,
			out:       env.out[:0],
			rng:       env.rng,
		}
		if env.rng != nil {
			// Reseeding resets the wrapper's state too, so the stream is
			// the one a freshly built source would give.
			env.rng.Seed(int64(env.rngSrc.s))
		}
		nodes[v] = factory()
	}

	for v := 0; v < n; v++ {
		envs[v].round = 0
		callNode(nodes[v], envs[v], v, 0, nil, true)
		if len(envs[v].out) > 0 {
			return nil, fmt.Errorf("congest: node %d sent during Init", nw.ids[v])
		}
		if envs[v].err != nil {
			return nil, envs[v].err
		}
	}
	rt.onSetupDone()

	// PerRoundBits is preallocated up to a cap so steady-state appends
	// never grow the slice; runs longer than the cap fall back to
	// amortized doubling (a vanishing per-round alloc rate).
	prCap := cfg.MaxRounds
	if prCap > 4096 {
		prCap = 4096
	}
	stats := Stats{PerNodeBits: make([]int64, n), PerRoundBits: make([]int64, 0, prCap)}
	var transcript *Transcript
	if cfg.RecordTranscript {
		transcript = &Transcript{}
	}

	// Delivery state (see delivery.go): arena-backed double-buffered
	// inboxes plus the precomputed counting-sort slot index. Directed-edge
	// bandwidth accumulators: edge (v, port) ↦ edgeOff[v] + port, where
	// port is the position in v's ID-sorted neighbor list (recorded by Env
	// at send time); flat slices reset via a touched list. Nothing in the
	// per-round delivery path allocates once the arena has warmed up.
	arena := sc.arena
	edgeOff := idx.edgeOff
	edgeSent := sc.edgeSent
	var edgeDelivered []int
	if adv != nil {
		if sc.edgeDelivered == nil {
			sc.edgeDelivered = make([]int, edgeOff[n])
		}
		edgeDelivered = sc.edgeDelivered
	}

	step := func(v, round int) {
		env := envs[v]
		if env.halted || env.crashed {
			return
		}
		env.round = round
		callNode(nodes[v], env, v, round, arena.inboxes[v], false)
	}
	var pool *workerPool
	if cfg.Parallel && n > 1 {
		pool = newWorkerPool(nw, workers, step)
		defer pool.close()
	}

	for round := 1; round <= cfg.MaxRounds; round++ {
		// Graceful abort paths: the partial Result is still returned.
		if cfg.Context != nil {
			select {
			case <-cfg.Context.Done():
				err := fmt.Errorf("congest: run canceled after %d rounds: %w",
					stats.Rounds, context.Cause(cfg.Context))
				return finishRun(envs, stats, transcript, rt, "aborted", err.Error()), err
			default:
			}
		}
		if cfg.Deadline > 0 && time.Since(start) > cfg.Deadline {
			err := fmt.Errorf("congest: deadline %v exceeded after %d rounds: %w",
				cfg.Deadline, stats.Rounds, context.DeadlineExceeded)
			return finishRun(envs, stats, transcript, rt, "aborted", err.Error()), err
		}

		// Apply crash-stop failures (sequentially, for determinism) and
		// count the still-active nodes. Crash fault events may precede the
		// round's RoundStart in the trace: a round in which every node is
		// halted or crashed never starts (the run ends here), and the
		// events carry their round number either way.
		active := 0
		for v := 0; v < n; v++ {
			env := envs[v]
			if adv != nil && !env.crashed && adv.Crashed(round, v) {
				env.crashed = true
				stats.CrashedNodes++
				rt.onCrash(round, v, env.id)
			}
			if !env.halted && !env.crashed {
				active++
			}
		}
		if active == 0 {
			break
		}
		rt.onRoundStart(round, stats.TotalMessages, stats.DroppedMessages, stats.CorruptedMessages)

		if pool != nil {
			pool.run(round, rt.workerSlots(pool.active()))
			rt.onComputeEnd(pool.active())
		} else {
			for v := 0; v < n; v++ {
				step(v, round)
			}
			rt.onComputeEnd(0)
		}
		stats.Rounds = round

		// Collect, validate, apply faults and deliver (sequential,
		// deterministic — the first error in vertex order wins on both
		// engines). Delivered messages are staged into the arena's slot
		// counters; the counting sort in deliver() then reproduces the
		// sender-ID-sorted inbox contract without per-round allocation.
		var roundBits int64
		var roundLog []Message
		for v := 0; v < n; v++ {
			env := envs[v]
			if env.err != nil {
				return nil, env.err
			}
			for _, m := range env.out {
				e := edgeOff[v] + m.port
				bits := m.msg.Payload.Len()
				sc.touched = append(sc.touched, e)
				edgeSent[e] += bits
				if cfg.B > 0 && edgeSent[e] > cfg.B {
					return nil, fmt.Errorf(
						"congest: bandwidth violation in round %d: node %d sent %d bits to %d (B=%d)",
						round, env.id, edgeSent[e], nw.ids[m.toV], cfg.B)
				}
				roundBits += int64(bits)
				stats.TotalMessages++
				stats.PerNodeBits[v] += int64(bits)
				if edgeSent[e] > stats.MaxEdgeBitsRound {
					stats.MaxEdgeBitsRound = edgeSent[e]
				}
				payload, tag, flipped := m.msg.Payload, FaultNone, 0
				if adv != nil {
					payload, tag, flipped = adv.Deliver(round, v, m.toV, edgeDelivered[e], payload)
				}
				switch tag {
				case FaultDropped:
					stats.DroppedMessages++
				case FaultCorrupted:
					stats.CorruptedMessages++
					stats.CorruptedBits += int64(flipped)
				}
				if tag != FaultDropped {
					if adv != nil {
						// The message as delivered may differ from the
						// outbox copy, so it must be staged eagerly.
						edgeDelivered[e] += payload.Len()
						dm := m.msg
						dm.Payload = payload
						arena.stage(e, m.toV, dm)
					} else {
						// Fault-free fast path: only count now; the
						// placement pass below re-walks the outboxes and
						// copies each message exactly once.
						arena.count(e, m.toV)
					}
				}
				if transcript != nil {
					lm := m.msg
					lm.Payload = payload
					lm.Fault = tag
					roundLog = append(roundLog, lm)
				}
				rt.onMessage(round, v, m.toV, env.id, m.msg.To, bits, payload, tag, flipped)
			}
			rt.onNodeScan(round, v, env)
		}
		for _, e := range sc.touched {
			edgeSent[e] = 0
			if adv != nil {
				edgeDelivered[e] = 0
			}
		}
		sc.touched = sc.touched[:0]
		stats.TotalBits += roundBits
		stats.PerRoundBits = append(stats.PerRoundBits, roundBits)
		if transcript != nil {
			transcript.Rounds = append(transcript.Rounds, roundLog)
		}
		if adv == nil {
			buf := arena.beginDeliver()
			for v := 0; v < n; v++ {
				env := envs[v]
				for _, m := range env.out {
					arena.place(buf, edgeOff[v]+m.port, m.msg)
				}
				env.out = env.out[:0]
			}
			arena.endDeliver(buf)
		} else {
			arena.deliver()
			for v := 0; v < n; v++ {
				envs[v].out = envs[v].out[:0]
			}
		}
		rt.onRoundEnd(round, stats.PerRoundBits[round-1],
			stats.TotalMessages, stats.DroppedMessages, stats.CorruptedMessages, active)
	}

	return finishRun(envs, stats, transcript, rt, "completed", ""), nil
}

// runScratch is Run's per-run working memory: the environments with
// their out-queues, the node programs, the inbox arena and the
// directed-edge bandwidth accumulators. Its size depends only on the
// Network, so a Run takes it from the Network's pool and puts it back
// when it ends, and repeated runs on one stored Network stop
// reallocating it. A run's result never points into it.
type runScratch struct {
	envArr        []Env
	envs          []*Env // envs[v] = &envArr[v]
	nodes         []Node
	arena         *inboxArena
	edgeSent      []int
	edgeDelivered []int // built by the first run with an adversary
	touched       []int32
}

// getScratch takes a run's scratch from the Network's pool, or builds it
// when the pool has none: on the first run, beside a concurrent run, or
// after the garbage collector emptied the pool.
func (nw *Network) getScratch(idx *deliveryIndex) *runScratch {
	if sc, ok := nw.scratch.Get().(*runScratch); ok {
		return sc
	}
	n := idx.n
	sc := &runScratch{
		envArr:   make([]Env, n),
		envs:     make([]*Env, n),
		nodes:    make([]Node, n),
		arena:    newInboxArena(idx),
		edgeSent: make([]int, idx.edgeOff[n]),
		touched:  make([]int32, 0, 64),
	}
	for v := range sc.envs {
		sc.envs[v] = &sc.envArr[v]
	}
	return sc
}

// putScratch returns a run's scratch to the pool in the state the next
// run expects, however this one ended (completed, aborted between
// rounds, or failed in the middle of one): the node programs are
// dropped, the bandwidth accumulators are zero, and the arena publishes
// no inbox. Run rebuilds every Env field itself.
func (nw *Network) putScratch(sc *runScratch) {
	clear(sc.nodes)
	for _, e := range sc.touched {
		sc.edgeSent[e] = 0
		if sc.edgeDelivered != nil {
			sc.edgeDelivered[e] = 0
		}
	}
	sc.touched = sc.touched[:0]
	sc.arena.reset()
	nw.scratch.Put(sc)
}

// callNode invokes Init (init=true) or Round with panic containment: a
// panic is recovered into a *NodePanicError on the node's env, surfaced by
// the runner through the usual first-error-in-vertex-order path — so a
// panic inside a parallel-engine worker goroutine no longer takes down the
// process, and both engines report the identical error.
func callNode(node Node, env *Env, v, round int, inbox []Message, init bool) {
	defer func() {
		if r := recover(); r != nil {
			env.fail(&NodePanicError{
				Vertex: v,
				ID:     env.id,
				Round:  round,
				Value:  r,
				Stack:  string(debug.Stack()),
			})
		}
	}()
	if init {
		node.Init(env)
	} else {
		node.Round(env, inbox)
	}
}

// mixSeed decorrelates per-node RNG seeds with a splitmix64 finalizer:
// math/rand sources seeded with consecutive integers produce visibly
// correlated leading outputs, which would skew color-coding draws.
func mixSeed(seed, v int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(v) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

type idVertexSort struct {
	ids []NodeID
	vs  []int32
}

func (s *idVertexSort) Len() int { return len(s.ids) }
func (s *idVertexSort) Less(i, j int) bool {
	if s.ids[i] != s.ids[j] {
		return s.ids[i] < s.ids[j]
	}
	return s.vs[i] < s.vs[j]
}
func (s *idVertexSort) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.vs[i], s.vs[j] = s.vs[j], s.vs[i]
}

// finishRun assembles the (possibly partial) Result of a run and closes
// the trace stream; outcome is "completed" or "aborted" with the abort
// reason in errMsg.
func finishRun(envs []*Env, stats Stats, transcript *Transcript, rt *runTrace, outcome, errMsg string) *Result {
	rt.onRoundsDone()
	res := &Result{
		Decisions:  make([]Decision, len(envs)),
		Stats:      stats,
		Transcript: transcript,
	}
	for v, env := range envs {
		res.Decisions[v] = env.decision
	}
	rt.onTeardownDone()
	rt.onRunEnd(res, outcome, errMsg)
	return res
}
