package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

func TestTriangleSplitBasic(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want bool
	}{
		{graph.Cycle(3), true},
		{graph.Cycle(8), false},
		{graph.Complete(6), true},
		{graph.CompleteBipartite(5, 5), false},
		{graph.ProjectivePlaneIncidence(3), false},
		{graph.Path(2), false}, // n < 3 guard
	}
	for i, c := range cases {
		nw := congest.NewNetwork(c.g)
		rep, err := DetectTriangleSplit(nw, TriangleSplitConfig{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if rep.Detected != c.want {
			t.Errorf("case %d: detected=%v want %v", i, rep.Detected, c.want)
		}
	}
}

func TestTriangleSplitAllHighTriangle(t *testing.T) {
	// A triangle among three hubs, each with many pendant leaves: all
	// three members are high-degree, exercising regime 2 specifically.
	b := graph.NewBuilder(33)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	for i := 0; i < 10; i++ {
		b.AddEdge(0, 3+i)
		b.AddEdge(1, 13+i)
		b.AddEdge(2, 23+i)
	}
	g := b.Build()
	nw := congest.NewNetwork(g)
	// Force a tiny threshold so the hubs are all "high".
	rep, err := DetectTriangleSplit(nw, TriangleSplitConfig{Threshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("all-high triangle missed")
	}
	if rep.HighCount != 3 {
		t.Fatalf("high count %d", rep.HighCount)
	}
}

func TestTriangleSplitLowMemberTriangle(t *testing.T) {
	// Triangle with one low-degree member among two hubs: regime 1.
	b := graph.NewBuilder(30)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	for i := 0; i < 13; i++ {
		b.AddEdge(0, 3+i)
		b.AddEdge(1, 16+i)
	}
	nw := congest.NewNetwork(b.Build())
	rep, err := DetectTriangleSplit(nw, TriangleSplitConfig{Threshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("low-member triangle missed")
	}
}

func TestTriangleSplitSublinearOnSkewedGraph(t *testing.T) {
	// A star with one triangle: Δ = n-1 but m ≈ n, so the split detector
	// must finish in O(√n) rounds while the Δ-round detector pays Θ(n).
	n := 400
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(1, 2) // closes the triangle {0,1,2}
	g := b.Build()
	nw := congest.NewNetwork(g)
	split, err := DetectTriangleSplit(nw, TriangleSplitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	delta, err := DetectTriangle(nw, TriangleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !split.Detected || !delta.Detected {
		t.Fatalf("detection failed: split=%v delta=%v", split.Detected, delta.Detected)
	}
	bound := 2*int(math.Sqrt(float64(2*g.M()))) + 10
	if split.Rounds > bound {
		t.Fatalf("split rounds %d exceed O(√m) bound %d", split.Rounds, bound)
	}
	if split.Rounds >= delta.Rounds {
		t.Fatalf("split (%d) not faster than Δ-round (%d) on a star", split.Rounds, delta.Rounds)
	}
}

// Property: the degree-split detector is exact on random graphs, at the
// optimal threshold and at adversarial ones.
func TestQuickTriangleSplitExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(16, 0.25, rng)
		nw := congest.NewNetwork(g)
		want := g.CountTriangles() > 0
		for _, th := range []int{0, 1, 100} {
			rep, err := DetectTriangleSplit(nw, TriangleSplitConfig{Threshold: th, Exec: Exec{Seed: seed}})
			if err != nil || rep.Detected != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleSplitScrambledIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.GNP(15, 0.3, rng)
	nw := scrambledNetwork(g, rng)
	rep, err := DetectTriangleSplit(nw, TriangleSplitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected != (g.CountTriangles() > 0) {
		t.Fatal("split detector wrong under scrambled ids")
	}
}
