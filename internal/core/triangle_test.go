package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

func TestDetectTriangleBasic(t *testing.T) {
	cases := []struct {
		g    *graph.Graph
		want bool
	}{
		{graph.Cycle(3), true},
		{graph.Cycle(6), false},
		{graph.Complete(5), true},
		{graph.CompleteBipartite(4, 4), false},
		{graph.Path(5), false},
		{graph.ProjectivePlaneIncidence(3), false},
	}
	for i, c := range cases {
		nw := congest.NewNetwork(c.g)
		rep, err := DetectTriangle(nw, TriangleConfig{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if rep.Detected != c.want {
			t.Errorf("case %d: detected=%v want %v", i, rep.Detected, c.want)
		}
	}
}

func TestDetectTriangleSkewedDegrees(t *testing.T) {
	// Triangle whose members have very different degrees: the completeness
	// argument relies on the min-degree member's list reaching the others
	// before they halt.
	b := graph.NewBuilder(20)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	for v := 3; v < 20; v++ {
		b.AddEdge(2, v) // vertex 2 has degree 19
	}
	nw := congest.NewNetwork(b.Build())
	rep, err := DetectTriangle(nw, TriangleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("skewed triangle missed")
	}
}

func TestDetectTriangleRoundsBoundedByDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.GNP(60, 0.1, rng)
	nw := congest.NewNetwork(g)
	rep, err := DetectTriangle(nw, TriangleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds > rep.MaxDegree+3 {
		t.Fatalf("rounds %d exceed Δ+3 = %d", rep.Rounds, rep.MaxDegree+3)
	}
}

// Property: the Δ-round detector is exact on random graphs.
func TestQuickTriangleExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(16, 0.25, rng)
		nw := congest.NewNetwork(g)
		rep, err := DetectTriangle(nw, TriangleConfig{Exec: Exec{Seed: seed}})
		if err != nil {
			return false
		}
		return rep.Detected == (g.CountTriangles() > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The rounds×bandwidth tradeoff of Theorem 5.1: at B = O(log n) the
// Δ-round algorithm works, while Theorem 5.1 shows one round needs
// B = Ω(Δ). This test pins the upper-bound end.
func TestTriangleTradeoffUpperEnd(t *testing.T) {
	g := graph.Star(30).Clone() // hub of degree 30...
	g.AddEdge(1, 2)             // ...plus one triangle through it
	nw := congest.NewNetwork(g.Build())
	rep, err := DetectTriangle(nw, TriangleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("triangle through the hub missed")
	}
	if rep.Bandwidth > 8 { // idBits for n=31
		t.Fatalf("bandwidth %d not logarithmic", rep.Bandwidth)
	}
}
