// Package cclique lists cliques in the Congested Clique model: n nodes
// with an all-to-all communication graph, where in each round every
// ordered pair of nodes may exchange B bits (B = Θ(log n) in the paper's
// clique-listing lower bound). The input graph is separate from the
// communication graph: node v initially knows only the input edges
// incident to v.
//
// The model is CONGEST on K_n (Dolev–Lenzen–Peled; Censor-Hillel's
// survey), so the listers are congest.Node programs run by congest.Run
// over congest.NewNetwork(graph.Complete(n)). Identifiers are vertex
// indices: int(env.ID()) is a node's index and int(m.From) its sender's.
// Each program reads its own input row from the input graph in Init.
//
// The package implements partition-based K_s listing — the
// Dolev–Lenzen–Peled "Tri, Tri again" algorithm generalized from triangles
// to s-cliques — whose round complexity ~n^{1-2/s} matches the shape of the
// Ω̃(n^{1-2/s}) lower bound the paper proves (Section 1.1 and Lemma 1.3),
// and the naive all-to-all baseline.
package cclique

import (
	"fmt"
	"slices"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// ListResult reports the outcome of a listing run.
type ListResult struct {
	// Cliques lists each K_s exactly once, vertices ascending.
	Cliques [][]int
	// Stats holds the communication measurements of the run; on K_n,
	// MaxEdgeBitsRound is the most bits one ordered pair carried in a
	// round.
	Stats congest.Stats
	// Groups is the partition parameter k.
	Groups int
	// Collectors is the number of collector nodes C(k+s-1, s).
	Collectors int
	// B is the per-pair bandwidth used.
	B int
}

// finder is a lister's node program: once the run ends, cliques returns
// the cliques this node listed.
type finder interface {
	congest.Node
	cliques() [][]int
}

// checkS rejects clique sizes below 2.
func checkS(s int) error {
	if s < 2 {
		return fmt.Errorf("cclique: s must be ≥ 2, got %d", s)
	}
	return nil
}

// runOnClique runs one newNode program per vertex of g on K_n, res.B bits
// per ordered pair per round, on the engine eng selects. It fills
// res.Stats and res.Cliques, the latter sorted.
func runOnClique(g *graph.Graph, res *ListResult, maxRounds int, eng congest.Config, newNode func() finder) error {
	nodes := make([]finder, 0, g.N())
	factory := func() congest.Node {
		nd := newNode()
		nodes = append(nodes, nd)
		return nd
	}
	eng.B, eng.MaxRounds = res.B, maxRounds
	run, err := congest.Run(congest.NewNetwork(graph.Complete(g.N())), factory, eng)
	if err != nil {
		return err
	}
	res.Stats = run.Stats
	for _, nd := range nodes {
		res.Cliques = append(res.Cliques, nd.cliques()...)
	}
	slices.SortFunc(res.Cliques, slices.Compare[[]int])
	return nil
}
