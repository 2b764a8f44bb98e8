package subgraph_test

import (
	"fmt"

	"subgraph"
)

// ExampleDetect shows the dispatcher picking the clique detector and
// confirming a K4 inside K6.
func ExampleDetect() {
	nw := subgraph.NewNetwork(subgraph.Complete(6))
	rep, err := subgraph.Detect(nw, subgraph.Complete(4), subgraph.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Algorithm, rep.Detected)
	// Output: neighbor-exchange true
}

// ExampleDetect_triangle shows the Δ-round triangle detector rejecting a
// bipartite (triangle-free) network.
func ExampleDetect_triangle() {
	nw := subgraph.NewNetwork(subgraph.CompleteBipartite(3, 3))
	rep, err := subgraph.Detect(nw, subgraph.Cycle(3), subgraph.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Algorithm, rep.Detected)
	// Output: triangle-neighbor-exchange false
}

// ExampleDetectLocal shows LOCAL-model detection: constant rounds with
// unbounded messages.
func ExampleDetectLocal() {
	nw := subgraph.NewNetwork(subgraph.Cycle(20))
	rep, err := subgraph.DetectLocal(nw, subgraph.Path(5), subgraph.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Detected, rep.Rounds <= 7)
	// Output: true true
}

// ExampleContainsSubgraph shows the centralized ground-truth check used
// throughout the test suite.
func ExampleContainsSubgraph() {
	fmt.Println(subgraph.ContainsSubgraph(subgraph.Cycle(4), subgraph.CompleteBipartite(2, 2)))
	fmt.Println(subgraph.ContainsSubgraph(subgraph.Cycle(3), subgraph.CompleteBipartite(2, 2)))
	// Output:
	// true
	// false
}

// ExampleNewGraphBuilder assembles a custom topology.
func ExampleNewGraphBuilder() {
	b := subgraph.NewGraphBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	fmt.Println(g.N(), g.M(), subgraph.ContainsSubgraph(subgraph.Cycle(4), g))
	// Output: 4 4 true
}
