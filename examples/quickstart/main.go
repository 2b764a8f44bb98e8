// Quickstart: detect a 4-cycle in a random network with the public API.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"subgraph"
)

func main() {
	// A sparse random network with a planted C4 — the distributed nodes
	// must find it while exchanging only B bits per edge per round.
	rng := rand.New(rand.NewSource(42))
	g, cycle := subgraph.PlantCycle(subgraph.GNP(150, 0.012, rng), 4, rng)
	fmt.Printf("network: n=%d m=%d, planted C4 through vertices %v\n", g.N(), g.M(), cycle)

	nw := subgraph.NewNetwork(g)

	// C4 = K_{2,2} is complete multipartite, so it dispatches to the exact
	// neighbor-exchange detector: every node streams its neighbor list,
	// one identifier per round, and the highest-degree vertex of any C4
	// sees it by round Δ+1.
	rep, err := subgraph.Detect(nw, subgraph.Cycle(4), subgraph.Options{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("algorithm : %s\n", rep.Algorithm)
	fmt.Printf("detected  : %v (ground truth %v)\n",
		rep.Detected, subgraph.ContainsSubgraph(subgraph.Cycle(4), g))
	fmt.Printf("rounds    : %d at B=%d bits/edge/round\n", rep.Rounds, rep.BandwidthBits)
	fmt.Printf("traffic   : %d bits in %d messages\n", rep.Stats.TotalBits, rep.Stats.TotalMessages)

	// Compare with the LOCAL model: constant rounds, unbounded messages.
	loc, err := subgraph.DetectLocal(nw, subgraph.Cycle(4), subgraph.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("LOCAL     : detected=%v in %d rounds, largest message %d bits\n",
		loc.Detected, loc.Rounds, loc.Stats.MaxEdgeBitsRound)
}
