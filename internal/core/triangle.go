package core

import (
	"subgraph/internal/bitio"
	"subgraph/internal/congest"
)

// Triangle detection by neighbor-list exchange in O(Δ) rounds at
// B = O(log n): every node streams its adjacency list to all neighbors,
// one identifier per round; a node that finds a received list containing
// one of its own neighbors closes a triangle. This is the natural
// complement of Theorem 5.1: one-round protocols need bandwidth Ω(Δ),
// and here Δ rounds suffice at logarithmic bandwidth — the two ends of
// the rounds × bandwidth tradeoff for the same problem.
//
// Deterministic and exact: rejects iff a triangle exists.

// TriangleConfig configures the Δ-round triangle detector.
type TriangleConfig struct {
	Exec
}

// TriangleReport is the outcome of the triangle detector.
type TriangleReport struct {
	Outcome
	// MaxDegree is the Δ that bounds the round count.
	MaxDegree int
}

type triangleNode struct {
	idBits int
	sent   int
	done   bool
}

func (tn *triangleNode) Init(env *congest.Env) {}

func (tn *triangleNode) Round(env *congest.Env, inbox []congest.Message) {
	// A received identifier x from neighbor w witnesses the edge {w,x};
	// if x is also our neighbor, {self, w, x} is a triangle.
	for _, m := range inbox {
		r := bitio.NewReader(m.Payload)
		x, ok := r.ReadUint(tn.idBits)
		if !ok {
			continue
		}
		id := congest.NodeID(x)
		if id != env.ID() && env.HasNeighbor(id) && env.HasNeighbor(m.From) {
			env.Reject()
		}
	}
	if tn.sent < env.Degree() {
		env.Broadcast(bitio.Uint(uint64(env.Neighbors()[tn.sent]), tn.idBits))
		tn.sent++
		return
	}
	if !tn.done {
		tn.done = true
		return // one grace round to absorb the final identifiers
	}
	env.Halt()
}

// DetectTriangle runs the Δ-round neighbor-exchange triangle detector.
func DetectTriangle(nw *congest.Network, cfg TriangleConfig) (*TriangleReport, error) {
	idBits := nw.IDBits()
	factory := func() congest.Node { return &triangleNode{idBits: idBits} }
	res, err := cfg.run(nw, factory, congest.Config{B: idBits, MaxRounds: nw.G.MaxDegree() + 3})
	if res == nil {
		return nil, err
	}
	return &TriangleReport{Outcome: outcome(res, idBits), MaxDegree: nw.G.MaxDegree()}, err
}
