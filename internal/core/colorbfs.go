// Package core implements the paper's detection algorithms on top of the
// CONGEST simulator: the Theorem 1.1 sublinear even-cycle detector
// (Section 6), the linear-round color-coded BFS baseline for any fixed
// cycle, exact tree detection by representative families (cf. [12]),
// O(n)-round clique detection (cf. [10]), the generic edge-collection
// detector, and LOCAL model detection by neighborhood collection.
package core

import (
	"math/rand"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
)

// Color-coded BFS (Alon–Yuster–Zwick color coding adapted to CONGEST,
// Section 6 Phase I): every node gets a random color in {0..L-1}; tokens
// (origin, hop) start at color-0 origins and move only onto nodes whose
// color equals hop+1; a token returning to its origin at hop L-1 closes a
// properly-colored L-cycle. Nodes relay one queued token per round
// (pipelining); each node forwards a given origin's token at most once, so
// queues are bounded by the origin count.

// cbfsMsg is a ColorBFS token.
type cbfsMsg struct {
	origin congest.NodeID
	hop    int
}

// cbfsCodec encodes tokens in idBits+hopBits bits.
type cbfsCodec struct {
	idBits  int
	hopBits int
}

func (c cbfsCodec) encode(m cbfsMsg) bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(uint64(m.origin), c.idBits)
	w.WriteUint(uint64(m.hop), c.hopBits)
	return w.BitString()
}

func (c cbfsCodec) decode(s bitio.BitString) (cbfsMsg, bool) {
	r := bitio.NewReader(s)
	id, ok1 := r.ReadUint(c.idBits)
	hop, ok2 := r.ReadUint(c.hopBits)
	if !ok1 || !ok2 || r.Remaining() != 0 {
		return cbfsMsg{}, false
	}
	return cbfsMsg{origin: congest.NodeID(id), hop: int(hop)}, true
}

// colorOf returns the node's color for a repetition: the injected coloring
// if provided, otherwise a color drawn from the node's private RNG.
func colorOf(env *congest.Env, coloring func(id congest.NodeID, rep int) int, rep, L int) int {
	if coloring != nil {
		c := coloring(env.ID(), rep)
		if c < 0 || c >= L {
			panic("core: injected coloring out of range")
		}
		return c
	}
	return env.Rand().Intn(L)
}

// cbfsState is the per-repetition token-relay state shared by the linear
// detector and Phase I of the even-cycle algorithm.
type cbfsState struct {
	codec     cbfsCodec
	cycleLen  int
	color     int
	queue     []cbfsMsg
	forwarded map[congest.NodeID]bool
	detected  bool
	overload  bool
}

func newCBFSState(codec cbfsCodec, cycleLen, color int) *cbfsState {
	return &cbfsState{
		codec:     codec,
		cycleLen:  cycleLen,
		color:     color,
		forwarded: make(map[congest.NodeID]bool),
	}
}

// start seeds the node's own token if it is an eligible origin.
func (s *cbfsState) start(env *congest.Env) {
	if s.color == 0 {
		s.queue = append(s.queue, cbfsMsg{origin: env.ID(), hop: 0})
	}
}

// step processes one round: absorb tokens, then relay one queued token.
func (s *cbfsState) step(env *congest.Env, inbox []congest.Message) {
	for _, m := range inbox {
		tok, ok := s.codec.decode(m.Payload)
		if !ok {
			continue
		}
		if tok.origin == env.ID() && tok.hop == s.cycleLen-1 {
			// Our token came back having visited colors 0..L-1: a
			// properly-colored L-cycle through this node exists.
			s.detected = true
			continue
		}
		if s.color != tok.hop+1 || tok.hop+1 >= s.cycleLen {
			continue
		}
		if s.forwarded[tok.origin] {
			continue
		}
		s.forwarded[tok.origin] = true
		s.queue = append(s.queue, cbfsMsg{origin: tok.origin, hop: tok.hop + 1})
	}
	if len(s.queue) > 0 {
		env.Broadcast(s.codec.encode(s.queue[0]))
		s.queue = s.queue[1:]
	}
}

// drainCheck records whether the queue failed to drain within its budget.
func (s *cbfsState) drainCheck() {
	if len(s.queue) > 0 {
		s.overload = true
	}
}

// LinearCycleConfig configures the O(n)-round baseline cycle detector.
type LinearCycleConfig struct {
	Exec
	// CycleLen is the target cycle length L ≥ 3 (odd or even).
	CycleLen int
	// Reps is the number of independent colorings (detection probability
	// amplification). Default 1.
	Reps int
	// Coloring optionally injects a deterministic coloring per repetition
	// (the derandomization hook; nil = random).
	Coloring func(id congest.NodeID, rep int) int
	// BroadcastOnly enforces the broadcast-CONGEST variant; the token
	// relay only broadcasts, so the algorithm is unchanged.
	BroadcastOnly bool
}

// LinearCycleReport is the outcome of the baseline detector.
type LinearCycleReport struct {
	Outcome
	// RoundsPerRep is the per-repetition round budget n + L + 1.
	RoundsPerRep int
}

// linearCycleNode runs one ColorBFS per repetition with round budget
// n + L + 1: at most n origins can occupy a queue, so every token finishes
// its ≤ L hops within the budget (Section 6's pipelining argument without
// the degree threshold). It only rejects on a closed cycle, so it is sound
// unconditionally, and any properly-colored L-cycle is found, so with
// enough repetitions it detects with constant probability — the O(n)
// baseline that Theorem 1.1 improves on for even L.
type linearCycleNode struct {
	cfg    LinearCycleConfig
	codec  cbfsCodec
	perRep int
	rep    int
	state  *cbfsState
}

func (ln *linearCycleNode) Init(env *congest.Env) {}

func (ln *linearCycleNode) Round(env *congest.Env, inbox []congest.Message) {
	r := env.Round() - 1 // 0-based
	rep, offset := r/ln.perRep, r%ln.perRep
	if rep >= ln.cfg.Reps {
		env.Halt()
		return
	}
	if offset == 0 {
		ln.rep = rep
		ln.state = newCBFSState(ln.codec, ln.cfg.CycleLen, colorOf(env, ln.cfg.Coloring, rep, ln.cfg.CycleLen))
		ln.state.start(env)
	}
	ln.state.step(env, inbox)
	if ln.state.detected {
		env.Reject()
	}
	if offset == ln.perRep-1 && rep == ln.cfg.Reps-1 {
		env.Halt()
	}
}

// DetectCycleLinear runs the baseline detector on nw.
func DetectCycleLinear(nw *congest.Network, cfg LinearCycleConfig) (*LinearCycleReport, error) {
	if cfg.CycleLen < 3 {
		panic("core: cycle length must be ≥ 3")
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 1
	}
	codec := cbfsCodec{idBits: nw.IDBits(), hopBits: 8}
	perRep := nw.N() + cfg.CycleLen + 1
	factory := func() congest.Node {
		return &linearCycleNode{cfg: cfg, codec: codec, perRep: perRep}
	}
	b := codec.idBits + codec.hopBits
	res, err := cfg.run(nw, factory, congest.Config{
		B:         b,
		MaxRounds: perRep*cfg.Reps + 1,
		Broadcast: cfg.BroadcastOnly,
	})
	if res == nil {
		return nil, err
	}
	return &LinearCycleReport{Outcome: outcome(res, b), RoundsPerRep: perRep}, err
}

// DefaultCycleReps returns a repetition count giving constant detection
// probability for properly-colored L-cycles: each repetition succeeds with
// probability ≥ L·L^{-L} for a fixed cycle (any rotation/orientation can
// land), so c·L^{L-1} repetitions give constant probability. At simulable
// sizes this is feasible for L ≤ 6; larger L should inject colorings.
func DefaultCycleReps(L int) int {
	reps := 1
	for i := 0; i < L-1; i++ {
		reps *= L
		if reps > 1<<20 {
			return 1 << 20
		}
	}
	return reps
}

// PlantedColoring returns a coloring function that plants the proper
// coloring along the given cycle vertices and randomizes the rest — the
// derandomization hook used by tests and experiments that need
// single-repetition determinism (see DESIGN.md §4.3).
func PlantedColoring(nw *congest.Network, cycle []int, seed int64) func(congest.NodeID, int) int {
	L := len(cycle)
	fixed := make(map[congest.NodeID]int, L)
	for i, v := range cycle {
		fixed[nw.ID(v)] = i
	}
	return func(id congest.NodeID, rep int) int {
		if c, ok := fixed[id]; ok {
			return c
		}
		rng := rand.New(rand.NewSource(seed + int64(id)*7919 + int64(rep)))
		return rng.Intn(L)
	}
}

// RotateToMaxDegree rotates the cycle so it starts at its maximum-degree
// vertex. The even-cycle detector's "good coloring" event places color 0
// there: if that vertex is high-degree, Phase I's BFS starts at it; if
// not, no cycle vertex is removed and Phase II sees the whole cycle. A
// planted coloring without this rotation can fall between the phases
// when the threshold n^{1/(k-1)} is small (large k).
func RotateToMaxDegree(nw *congest.Network, cycle []int) []int {
	best, bestDeg := 0, -1
	for i, v := range cycle {
		if d := nw.G.Degree(v); d > bestDeg {
			best, bestDeg = i, d
		}
	}
	out := make([]int, len(cycle))
	for i := range cycle {
		out[i] = cycle[(best+i)%len(cycle)]
	}
	return out
}
