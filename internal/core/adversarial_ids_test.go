package core

import (
	"math/rand"
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Detectors must be correct under ANY identifier assignment, not just
// id(v)=v: sparse random 30-bit namespaces exercise the fixed-width
// encodings, the sorted-neighbor logic and every id comparison.

func scrambledNetwork(g *graph.Graph, rng *rand.Rand) *congest.Network {
	used := map[congest.NodeID]bool{}
	ids := make([]congest.NodeID, g.N())
	for v := range ids {
		for {
			id := congest.NodeID(rng.Int63n(1 << 30))
			if !used[id] {
				used[id] = true
				ids[v] = id
				break
			}
		}
	}
	return congest.NewNetworkWithIDs(g, ids)
}

func TestTriangleDetectorScrambledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := graph.GNP(14, 0.3, rng)
		nw := scrambledNetwork(g, rng)
		rep, err := DetectTriangle(nw, TriangleConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected != (g.CountTriangles() > 0) {
			t.Fatalf("trial %d: detected=%v truth=%v", trial, rep.Detected, g.CountTriangles() > 0)
		}
	}
}

func TestCliqueDetectorScrambledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		g := graph.GNP(12, 0.45, rng)
		nw := scrambledNetwork(g, rng)
		rep, err := DetectNeighborExchange(nw, NeighborExchangeConfig{H: graph.Complete(4)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected != (g.CountCliques(4) > 0) {
			t.Fatalf("trial %d: clique answer wrong", trial)
		}
	}
}

func TestEvenCycleScrambledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, cyc := graph.PlantCycle(graph.GNP(30, 0.03, rng), 4, rng)
	nw := scrambledNetwork(g, rng)
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{
		K:        2,
		Coloring: PlantedColoring(nw, RotateToMaxDegree(nw, cyc), 7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("planted C4 undetected under scrambled ids")
	}
	// And soundness on a scrambled tree.
	tree := scrambledNetwork(graph.RandomTree(25, rng), rng)
	rep2, err := DetectEvenCycle(tree, EvenCycleConfig{K: 2, Exec: Exec{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Detected {
		t.Fatal("false positive on scrambled tree")
	}
}

func TestLinearCycleScrambledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.Cycle(9)
	nw := scrambledNetwork(g, rng)
	// The planted coloring keys off identifiers, so it works regardless
	// of the namespace.
	rep, err := DetectCycleLinear(nw, LinearCycleConfig{
		CycleLen: 9,
		Coloring: PlantedColoring(nw, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("C9 undetected under scrambled ids")
	}
}

func TestCollectScrambledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.GNP(14, 0.3, rng)
	nw := scrambledNetwork(g, rng)
	h := graph.Star(3)
	rep, err := DetectCollect(nw, CollectConfig{H: h})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected != graph.ContainsSubgraph(h, g) {
		t.Fatal("collect answer wrong under scrambled ids")
	}
}

func TestSummaryScrambledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := connectedGNP(t, 18, 0.25, rng)
	nw := scrambledNetwork(g, rng)
	rep, err := ComputeNetworkSummary(nw, SummaryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent || rep.EdgeCount != g.M() {
		t.Fatalf("summary wrong under scrambled ids: %+v", rep)
	}
	// The leader must be the minimum of the scrambled namespace.
	min := nw.ID(0)
	for v := 1; v < nw.N(); v++ {
		if nw.ID(v) < min {
			min = nw.ID(v)
		}
	}
	if rep.LeaderID != min {
		t.Fatalf("leader %d, want %d", rep.LeaderID, min)
	}
}

func TestTesterScrambledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := scrambledNetwork(graph.CompleteBipartite(6, 6), rng)
	rep, err := TestTriangleFreeness(nw, TesterConfig{Trials: 20, Exec: Exec{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected {
		t.Fatal("tester rejected triangle-free graph under scrambled ids")
	}
}
