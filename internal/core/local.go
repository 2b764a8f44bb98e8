package core

import (
	"fmt"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// LOCAL-model H-detection (the Section 1 observation that subgraph
// detection is "extremely local"): with unbounded message size, every node
// collects its radius-|V(H)| ball in |V(H)| rounds — any copy of H lies
// inside the ball of each of its members — and checks it locally. The
// point of the E7 experiment is the contrast between this O(|H|) round
// count (with enormous messages) and the CONGEST bounds: Theorem 1.2's
// graphs take O(log n) LOCAL rounds but near-quadratic CONGEST rounds.

// LocalConfig configures the LOCAL-model detector.
type LocalConfig struct {
	Exec
	// H is the pattern graph.
	H *graph.Graph
}

// LocalReport is the outcome of the LOCAL detector. Its Bandwidth is 0:
// LOCAL messages are unbounded.
type LocalReport struct {
	Outcome
	// MaxMessageBits is the largest single message — the quantity CONGEST
	// forbids.
	MaxMessageBits int
}

type localNode struct {
	h      *graph.Graph
	idBits int
	radius int
	known  map[edgeKey]struct{}
}

func (ln *localNode) Init(env *congest.Env) {
	ln.known = make(map[edgeKey]struct{})
}

// encodeEdges writes the full known edge set as (count, pairs...).
func (ln *localNode) encodeEdges() bitio.BitString {
	w := bitio.NewWriter()
	w.WriteUint(uint64(len(ln.known)), 32)
	for e := range ln.known {
		w.WriteUint(uint64(e.a), ln.idBits)
		w.WriteUint(uint64(e.b), ln.idBits)
	}
	return w.BitString()
}

func (ln *localNode) Round(env *congest.Env, inbox []congest.Message) {
	if env.Round() == 1 {
		for _, nb := range env.Neighbors() {
			ln.known[mkEdge(env.ID(), nb)] = struct{}{}
		}
	}
	for _, m := range inbox {
		r := bitio.NewReader(m.Payload)
		cnt, ok := r.ReadUint(32)
		if !ok {
			continue
		}
		for i := uint64(0); i < cnt; i++ {
			a, ok1 := r.ReadUint(ln.idBits)
			b, ok2 := r.ReadUint(ln.idBits)
			if !ok1 || !ok2 {
				break
			}
			ln.known[mkEdge(congest.NodeID(a), congest.NodeID(b))] = struct{}{}
		}
	}
	if env.Round() > ln.radius {
		if containsPattern(ln.h, ln.known) {
			env.Reject()
		}
		env.Halt()
		return
	}
	env.Broadcast(ln.encodeEdges())
}

// DetectLocal runs the LOCAL-model detector on nw.
func DetectLocal(nw *congest.Network, cfg LocalConfig) (*LocalReport, error) {
	if cfg.H == nil || cfg.H.N() == 0 {
		return nil, fmt.Errorf("core: empty pattern")
	}
	idBits := nw.IDBits()
	radius := cfg.H.N()
	factory := func() congest.Node {
		return &localNode{h: cfg.H, idBits: idBits, radius: radius}
	}
	res, err := cfg.run(nw, factory, congest.Config{B: 0, MaxRounds: radius + 2}) // LOCAL: unbounded
	if res == nil {
		return nil, err
	}
	return &LocalReport{Outcome: outcome(res, 0), MaxMessageBits: res.Stats.MaxEdgeBitsRound}, err
}
