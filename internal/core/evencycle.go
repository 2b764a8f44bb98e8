package core

import (
	"fmt"
	"math"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
)

// DetectEvenCycle implements Theorem 1.1 / Section 6: C_2k-detection in
// O(n^{1-1/(k(k-1))}) rounds.
//
// Phase I finds 2k-cycles through a high-degree node (degree ≥ n^δ,
// δ = 1/(k-1)) by pipelined color-coded BFS started only at high-degree
// color-0 origins; with |E| ≤ M = O(n^{1+1/k}) there are at most O(M/n^δ)
// origins, so queues drain within R1 = O(M/n^δ) rounds. A queue that fails
// to drain proves |E| > M ≥ ex(n, C_2k), so the graph must contain C_2k
// and rejecting is sound (Lemma 6.3).
//
// Phase II removes high-degree nodes, peels the remainder into ⌈log n⌉
// layers of up-degree ≤ d = ⌈4M/n⌉ (see DESIGN.md §4.1 for the constant),
// and searches for properly-colored cycles whose color-0 node has the
// maximum layer, by propagating increasing (colors 0,1,…,k-1) and
// decreasing (colors 0,2k-1,…,k+1) prefixes that meet at the color-k
// midpoint. A node left unlayered after ⌈log n⌉ peels also proves
// |E| > M, so it rejects.
//
// Balancing R1 ≈ M/n^δ against R2 ≈ d·n^{δ(k-2)} at δ = 1/(k-1) gives the
// advertised O(n^{1-1/(k(k-1))}) round budget per repetition.

// EvenCycleConfig configures the Theorem 1.1 detector.
type EvenCycleConfig struct {
	Exec
	// K selects the target cycle C_2k; K ≥ 2.
	K int
	// TuranConstant is the c in M = c·n^{1+1/k} ≥ ex(n, C_2k). Soundness
	// of the overload/decomposition rejects requires M ≥ ex(n, C_2k);
	// the default 2.0 is safe at simulable sizes (see DESIGN.md §4.2).
	TuranConstant float64
	// PhaseIReps / PhaseIIReps repeat each phase with fresh colors.
	// Defaults are 1; constant success probability needs O((2k)^{2k}).
	PhaseIReps, PhaseIIReps int
	// Coloring optionally injects a coloring (id, rep) → {0..2k-1}; reps
	// of phase I and phase II draw from disjoint rep indices (phase I
	// uses 0..PhaseIReps-1, phase II continues from PhaseIReps).
	Coloring func(id congest.NodeID, rep int) int
	// BroadcastOnly runs under the broadcast-CONGEST variant of [10]
	// (a node must send the same message on all edges). The algorithm
	// only ever broadcasts, so this is a model restriction, not a
	// behavioral change; the flag makes the simulator enforce it.
	BroadcastOnly bool
	// PeelFactor is the a in d = ⌈a·M/n⌉ (default 4; DESIGN.md §4.1
	// explains why a = 4 guarantees geometric decay of the peeling).
	// Exposed for the E-ablation benchmarks: smaller a shrinks the
	// Phase II budget but risks decomposition failure (a sound reject
	// only when M ≥ ex(n, C_2k) truly holds).
	PeelFactor int
}

// EvenCycleReport is the outcome of the detector. Detected means some
// node rejected (Definition 1: a copy of C_2k was found, or the edge
// bound certified one exists); Bandwidth fits one length-2k prefix.
type EvenCycleReport struct {
	Outcome
	// R1 and R2 are the per-repetition round budgets of the two phases.
	R1, R2 int
	// M is the Turán bound used, HighDegree the n^δ threshold, D the
	// peeling parameter and Layers the peeling iteration count.
	M, HighDegree, D, Layers int
}

// evenCyclePlan holds the parameters every node derives identically from
// (n, k, M) — the shared knowledge assumption standard in CONGEST.
type evenCyclePlan struct {
	cfg     EvenCycleConfig
	n       int
	k       int
	cycle   int // 2k
	m       int // Turán bound
	highDeg int // n^δ threshold
	d       int // peeling parameter
	layers  int // ⌈log2 n⌉ peeling iterations
	r1      int // phase I rounds per rep
	r2      int // phase II prefix rounds per rep (after layering)
	idBits  int
	codec   cbfsCodec

	// Round layout (all 1-based, inclusive):
	//   [1, p1End]                 phase I repetitions
	//   p1End+1                    removal announcement
	//   [p1End+2, layerEnd]        layer peeling (layers rounds)
	//   then PhaseIIReps blocks of r2 rounds each
	p1End    int
	layerEnd int
	total    int
}

func newEvenCyclePlan(nw *congest.Network, cfg EvenCycleConfig) *evenCyclePlan {
	n := nw.N()
	k := cfg.K
	delta := 1.0 / float64(k-1)
	m := int(math.Ceil(cfg.TuranConstant * math.Pow(float64(n), 1+1/float64(k))))
	highDeg := int(math.Ceil(math.Pow(float64(n), delta)))
	if highDeg < 2 {
		highDeg = 2
	}
	a := cfg.PeelFactor
	if a <= 0 {
		a = 4
	}
	d := (a*m + n - 1) / n
	layers := int(math.Ceil(math.Log2(float64(n+1)))) + 1
	// Phase I budget: ≤ 2M/n^δ origins block any queue (Lemma 6.1 with
	// the degree-sum constant), plus 2k hops of slack.
	r1 := 2*((m+highDeg-1)/highDeg) + 2*k + 2
	// Phase II prefix budget: sends bounded by d·n^{δ(k-2)} per node per
	// color class (Section 6 step 3), summed over 2k classes, plus the
	// stage-A round and slack.
	growth := math.Pow(float64(n), delta*float64(k-2))
	if growth < 1 {
		growth = 1
	}
	r2 := 1 + 2*k*d*int(math.Ceil(growth)) + 2*k + 2
	p := &evenCyclePlan{
		cfg: cfg, n: n, k: k, cycle: 2 * k, m: m, highDeg: highDeg,
		d: d, layers: layers, r1: r1, r2: r2,
		idBits: nw.IDBits(),
	}
	p.codec = cbfsCodec{idBits: p.idBits, hopBits: 8}
	p.p1End = r1 * cfg.PhaseIReps
	p.layerEnd = p.p1End + 1 + layers
	p.total = p.layerEnd + r2*cfg.PhaseIIReps + 1
	return p
}

// Message type tags for phase II (phase I reuses the raw cbfs codec; the
// two phases occupy disjoint round ranges so tags never collide).
const (
	msgRemoved  = 0 // high-degree node announces removal
	msgAssigned = 1 // node announces layer assignment
	msgStageA   = 2 // color-0 node announces (id, layer)
	msgPrefix   = 3 // partial prefix (dir, len, vertex ids)
)

type prefixMsg struct {
	dir      int // 0 increasing, 1 decreasing
	vertices []congest.NodeID
}

// encodePhase2 encodes phase II messages with a 2-bit tag.
func (p *evenCyclePlan) encodeRemoved() bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(msgRemoved, 2)
	return w.BitString()
}

func (p *evenCyclePlan) encodeAssigned() bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(msgAssigned, 2)
	return w.BitString()
}

func (p *evenCyclePlan) encodeStageA(id congest.NodeID, layer int) bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(msgStageA, 2)
	w.WriteUint(uint64(id), p.idBits)
	w.WriteUint(uint64(layer), 16)
	return w.BitString()
}

func (p *evenCyclePlan) encodePrefix(m prefixMsg) bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(msgPrefix, 2)
	w.WriteUint(uint64(m.dir), 1)
	w.WriteUint(uint64(len(m.vertices)), 8)
	for _, v := range m.vertices {
		w.WriteUint(uint64(v), p.idBits)
	}
	return w.BitString()
}

// decodePhase2 decodes a phase II message; kind is one of the msg* tags.
func (p *evenCyclePlan) decodePhase2(s bitio.BitString) (kind int, id congest.NodeID, layer int, pm prefixMsg, ok bool) {
	r := bitio.NewReader(s)
	tag, ok1 := r.ReadUint(2)
	if !ok1 {
		return 0, 0, 0, prefixMsg{}, false
	}
	switch tag {
	case msgRemoved, msgAssigned:
		return int(tag), 0, 0, prefixMsg{}, true
	case msgStageA:
		idv, ok2 := r.ReadUint(p.idBits)
		lv, ok3 := r.ReadUint(16)
		if !ok2 || !ok3 {
			return 0, 0, 0, prefixMsg{}, false
		}
		return msgStageA, congest.NodeID(idv), int(lv), prefixMsg{}, true
	case msgPrefix:
		dir, ok2 := r.ReadUint(1)
		cnt, ok3 := r.ReadUint(8)
		if !ok2 || !ok3 {
			return 0, 0, 0, prefixMsg{}, false
		}
		vs := make([]congest.NodeID, cnt)
		for i := range vs {
			v, okv := r.ReadUint(p.idBits)
			if !okv {
				return 0, 0, 0, prefixMsg{}, false
			}
			vs[i] = congest.NodeID(v)
		}
		return msgPrefix, 0, 0, prefixMsg{dir: int(dir), vertices: vs}, true
	}
	return 0, 0, 0, prefixMsg{}, false
}

// bandwidth returns the per-edge bit budget: one full-length prefix
// message (2 + 1 + 8 + 2k·idBits bits) — the paper's "B large enough to
// send a sequence of 2k identifiers".
func (p *evenCyclePlan) bandwidth() int {
	return 2 + 1 + 8 + p.cycle*p.idBits
}

// evenCycleNode is the per-node program.
type evenCycleNode struct {
	plan *evenCyclePlan

	// Phase I state.
	p1 *cbfsState

	// Phase II state.
	removed    bool            // this node is high-degree and sits out
	remDeg     int             // unassigned active neighbors (peeling)
	layer      int             // 0 = unassigned
	color      int             // per-rep color
	queue      []prefixMsg     // outgoing prefix queue
	incSeen    map[string]bool // midpoint: inc prefixes by origin|ender
	decSeen    map[string]bool
	incOrigins map[congest.NodeID][]congest.NodeID // origin → inc enders
	decOrigins map[congest.NodeID][]congest.NodeID
}

func (en *evenCycleNode) Init(env *congest.Env) {
	en.remDeg = env.Degree()
}

func (en *evenCycleNode) Round(env *congest.Env, inbox []congest.Message) {
	p := en.plan
	r := env.Round()
	switch {
	case r <= p.p1End:
		en.phase1(env, inbox, r)
	case r == p.p1End+1:
		// Removal announcement: high-degree nodes retire for phase II.
		en.removed = env.Degree() >= p.highDeg
		if en.removed {
			env.Broadcast(p.encodeRemoved())
		}
	case r <= p.layerEnd:
		en.peel(env, inbox, r)
	case r <= p.layerEnd+p.r2*p.cfg.PhaseIIReps:
		en.phase2(env, inbox, r)
	default:
		env.Halt()
	}
}

// phase1 runs the high-degree color-BFS repetitions.
func (en *evenCycleNode) phase1(env *congest.Env, inbox []congest.Message, r int) {
	p := en.plan
	rep, offset := (r-1)/p.r1, (r-1)%p.r1
	if offset == 0 {
		color := colorOf(env, p.cfg.Coloring, rep, p.cycle)
		en.p1 = newCBFSState(p.codec, p.cycle, color)
		// Only high-degree color-0 nodes originate tokens.
		if env.Degree() >= p.highDeg {
			en.p1.start(env)
		}
	}
	en.p1.step(env, inbox)
	if en.p1.detected {
		env.Reject() // a properly-colored C_2k closed at this origin
	}
	if offset == p.r1-1 {
		en.p1.drainCheck()
		if en.p1.overload {
			// Queue failed to drain ⇒ more than M ≥ ex(n, C_2k) edges ⇒
			// the graph contains C_2k (Lemma 6.3).
			env.Reject()
		}
	}
}

// peel runs one layer-assignment iteration per round.
func (en *evenCycleNode) peel(env *congest.Env, inbox []congest.Message, r int) {
	p := en.plan
	// Absorb announcements from the previous round.
	for _, m := range inbox {
		kind, _, _, _, ok := p.decodePhase2(m.Payload)
		if !ok {
			continue
		}
		if kind == msgRemoved || kind == msgAssigned {
			en.remDeg--
		}
	}
	if en.removed || en.layer != 0 {
		return
	}
	iter := r - (p.p1End + 1) // 1-based peeling iteration
	if en.remDeg <= p.d {
		en.layer = iter
		env.Broadcast(p.encodeAssigned())
		return
	}
	if iter == p.layers {
		// Unassigned after ⌈log n⌉ peels ⇒ some remaining subgraph has
		// average degree > d ≥ 4·ex(n', C_2k)/n' ⇒ C_2k exists.
		env.Reject()
	}
}

// phase2 runs the layered prefix-propagation repetitions.
func (en *evenCycleNode) phase2(env *congest.Env, inbox []congest.Message, r int) {
	p := en.plan
	if en.removed {
		return
	}
	rel := r - p.layerEnd - 1 // 0-based within phase II block
	rep, offset := rel/p.r2, rel%p.r2
	if offset == 0 {
		en.color = colorOf(env, p.cfg.Coloring, p.cfg.PhaseIReps+rep, p.cycle)
		en.queue = nil
		en.incSeen = make(map[string]bool)
		en.decSeen = make(map[string]bool)
		en.incOrigins = make(map[congest.NodeID][]congest.NodeID)
		en.decOrigins = make(map[congest.NodeID][]congest.NodeID)
		// Stage A: color-0 nodes announce (id, layer). Unlayered nodes
		// (layer 0 — only possible if they rejected already) stay silent.
		if en.color == 0 && en.layer > 0 {
			env.Broadcast(p.encodeStageA(env.ID(), en.layer))
		}
		return
	}
	// Absorb.
	for _, m := range inbox {
		kind, id, layer, pm, ok := p.decodePhase2(m.Payload)
		if !ok {
			continue
		}
		switch kind {
		case msgStageA:
			// Stage B: only colors 1 and 2k-1 extend, and only when the
			// origin's layer is ≥ ours (the cycle's color-0 node must
			// carry the maximum layer).
			if layer < en.layer {
				continue
			}
			if en.color == 1 {
				en.push(prefixMsg{dir: 0, vertices: []congest.NodeID{id, env.ID()}})
			} else if en.color == p.cycle-1 {
				en.push(prefixMsg{dir: 1, vertices: []congest.NodeID{id, env.ID()}})
			}
		case msgPrefix:
			en.handlePrefix(env, m.From, pm)
		}
	}
	// Relay one queued prefix per round.
	if len(en.queue) > 0 {
		env.Broadcast(p.encodePrefix(en.queue[0]))
		en.queue = en.queue[1:]
	}
	if offset == p.r2-1 && len(en.queue) > 0 {
		// Cannot happen when |E| ≤ M (the step-3 growth bound); if it
		// does, the edge bound is violated and C_2k exists.
		env.Reject()
	}
}

func (en *evenCycleNode) push(m prefixMsg) {
	en.queue = append(en.queue, m)
}

// handlePrefix implements stage C (extension by colors 2..k-1 and
// 2k-2..k+1) and stage D (midpoint matching at color k).
func (en *evenCycleNode) handlePrefix(env *congest.Env, from congest.NodeID, pm prefixMsg) {
	p := en.plan
	plen := len(pm.vertices) - 1 // prefix length in edges
	if plen < 1 || plen > p.k-1 {
		return
	}
	if en.color == p.k && plen == p.k-1 {
		// Stage D: record and match. The prefix ends at a neighbor
		// (its sender); inc enders have color k-1, dec enders k+1, so an
		// (inc, dec) pair with a common origin closes a C_2k through us.
		origin, ender := pm.vertices[0], pm.vertices[len(pm.vertices)-1]
		key := fmt.Sprintf("%d|%d", origin, ender)
		if pm.dir == 0 {
			if en.incSeen[key] {
				return
			}
			en.incSeen[key] = true
			en.incOrigins[origin] = append(en.incOrigins[origin], ender)
			if len(en.decOrigins[origin]) > 0 {
				env.Reject()
			}
		} else {
			if en.decSeen[key] {
				return
			}
			en.decSeen[key] = true
			en.decOrigins[origin] = append(en.decOrigins[origin], ender)
			if len(en.incOrigins[origin]) > 0 {
				env.Reject()
			}
		}
		return
	}
	// Stage C: extension. An inc prefix of length i-1 is extended by a
	// color-i node (2 ≤ i ≤ k-1); a dec prefix of length i-1 by a color
	// (2k-i) node.
	var extends bool
	if pm.dir == 0 {
		extends = en.color == plen+1 && plen+1 <= p.k-1
	} else {
		extends = en.color == p.cycle-(plen+1) && plen+1 <= p.k-1
	}
	if !extends {
		return
	}
	// The sender must be the prefix's last vertex (it appended itself
	// before broadcasting); self-originating or repeated ids cannot occur
	// in properly-colored prefixes, but we guard against malformed ones.
	for _, v := range pm.vertices {
		if v == env.ID() {
			return
		}
	}
	ext := append(append([]congest.NodeID(nil), pm.vertices...), env.ID())
	en.push(prefixMsg{dir: pm.dir, vertices: ext})
}

// DetectEvenCycle runs the Theorem 1.1 detector on nw.
func DetectEvenCycle(nw *congest.Network, cfg EvenCycleConfig) (*EvenCycleReport, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: even-cycle detection needs k ≥ 2, got %d", cfg.K)
	}
	if cfg.TuranConstant <= 0 {
		// k=2: Reiman's theorem gives ex(n, C4) = n/4·(1+√(4n-3)) < n^{3/2}
		// for every n, so c = 1 is provably sound. For k ≥ 3 the known
		// bounds (e.g. ex(n, C6) ≤ 0.6272·n^{4/3} asymptotically) leave
		// small-n slack, so a conservative c = 2 is used.
		if cfg.K == 2 {
			cfg.TuranConstant = 1.0
		} else {
			cfg.TuranConstant = 2.0
		}
	}
	if cfg.PhaseIReps <= 0 {
		cfg.PhaseIReps = 1
	}
	if cfg.PhaseIIReps <= 0 {
		cfg.PhaseIIReps = 1
	}
	plan := newEvenCyclePlan(nw, cfg)
	factory := func() congest.Node { return &evenCycleNode{plan: plan} }
	res, err := cfg.run(nw, factory, congest.Config{
		B:         plan.bandwidth(),
		MaxRounds: plan.total,
		Broadcast: cfg.BroadcastOnly,
	})
	if res == nil {
		return nil, err
	}
	return &EvenCycleReport{Outcome: outcome(res, plan.bandwidth()),
		R1: plan.r1, R2: plan.r2,
		M: plan.m, HighDegree: plan.highDeg, D: plan.d, Layers: plan.layers,
	}, err
}
