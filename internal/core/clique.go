package core

import (
	"fmt"

	"subgraph/internal/bitio"
	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// K_s detection in O(n) rounds (the [10] upper bound the paper cites):
// every node announces its adjacency list at one identifier per round;
// after max-degree rounds each node knows the full adjacency among its own
// neighbors and checks locally for a K_{s-1} inside its neighborhood,
// which together with itself forms a K_s.

// CliqueConfig configures the linear-round clique detector.
type CliqueConfig struct {
	Exec
	// S is the clique size, S ≥ 2.
	S int
}

// CliqueReport is the outcome of the clique detector.
type CliqueReport struct {
	Outcome
}

type cliqueNode struct {
	s      int
	idBits int
	sent   int
	links  map[congest.NodeID][]congest.NodeID
}

func (cn *cliqueNode) Init(env *congest.Env) {
	cn.links = make(map[congest.NodeID][]congest.NodeID)
}

func (cn *cliqueNode) Round(env *congest.Env, inbox []congest.Message) {
	for _, m := range inbox {
		r := bitio.NewReader(m.Payload)
		v, ok := r.ReadUint(cn.idBits)
		if !ok {
			continue
		}
		cn.links[m.From] = append(cn.links[m.From], congest.NodeID(v))
	}
	if cn.sent < env.Degree() {
		env.Broadcast(bitio.Uint(uint64(env.Neighbors()[cn.sent]), cn.idBits))
		cn.sent++
		return
	}
	// Everything announced and (by the global round schedule) everything
	// heard: build the neighborhood graph and search K_{s-1}.
	if env.Round() <= env.N()+1 {
		return // wait out slower (higher-degree) neighbors
	}
	nbrs := env.Neighbors()
	index := make(map[congest.NodeID]int, len(nbrs))
	for i, id := range nbrs {
		index[id] = i
	}
	b := graph.NewBuilder(len(nbrs))
	for from, list := range cn.links {
		i, ok := index[from]
		if !ok {
			continue
		}
		for _, to := range list {
			if j, ok := index[to]; ok {
				b.AddEdgeOK(i, j)
			}
		}
	}
	local := b.Build()
	if local.CountCliques(cn.s-1) > 0 {
		env.Reject()
	}
	env.Halt()
}

// DetectClique runs the linear-round K_s detector on nw. It is
// deterministic; detection is exact (no repetitions needed).
func DetectClique(nw *congest.Network, cfg CliqueConfig) (*CliqueReport, error) {
	if cfg.S < 2 {
		return nil, fmt.Errorf("core: clique detection needs s ≥ 2, got %d", cfg.S)
	}
	idBits := nw.IDBits()
	factory := func() congest.Node {
		return &cliqueNode{s: cfg.S, idBits: idBits}
	}
	res, err := cfg.run(nw, factory, congest.Config{B: idBits, MaxRounds: nw.N() + 3})
	if res == nil {
		return nil, err
	}
	return &CliqueReport{Outcome: outcome(res, idBits)}, err
}
