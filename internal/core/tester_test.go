package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

func TestTesterSoundOnTriangleFree(t *testing.T) {
	// One-sided error: the tester must never reject a triangle-free
	// graph, for any seed and trial count.
	for _, g := range []*graph.Graph{
		graph.CompleteBipartite(8, 8),
		graph.Cycle(20),
		graph.ProjectivePlaneIncidence(3),
	} {
		nw := congest.NewNetwork(g)
		for seed := int64(0); seed < 5; seed++ {
			rep, err := TestTriangleFreeness(nw, TesterConfig{Trials: 30, Exec: Exec{Seed: seed}})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Detected {
				t.Fatalf("tester rejected a triangle-free graph (seed %d)", seed)
			}
		}
	}
}

func TestTesterDetectsFarInstances(t *testing.T) {
	// Dense random graphs are far from triangle-free: nearly every vertex
	// sits in many triangles, so a handful of trials detects.
	rng := rand.New(rand.NewSource(1))
	g := graph.GNP(40, 0.5, rng)
	if g.CountTriangles() == 0 {
		t.Skip("unlucky sample")
	}
	nw := congest.NewNetwork(g)
	rep, err := TestTriangleFreeness(nw, TesterConfig{Trials: 8, Exec: Exec{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("tester missed a dense far instance")
	}
	if rep.Rounds > 2*8+3 {
		t.Fatalf("tester rounds %d not constant", rep.Rounds)
	}
}

func TestTesterConstantRoundsVsExact(t *testing.T) {
	// The contrast the paper draws: the tester's rounds do not grow with
	// Δ, the exact detector's do.
	rng := rand.New(rand.NewSource(3))
	g := graph.GNP(120, 0.3, rng)
	nw := congest.NewNetwork(g)
	tester, err := TestTriangleFreeness(nw, TesterConfig{Trials: 10, Exec: Exec{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := DetectTriangle(nw, TriangleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !tester.Detected || !exact.Detected {
		t.Fatalf("detection failed: tester=%v exact=%v", tester.Detected, exact.Detected)
	}
	if tester.Rounds >= exact.Rounds {
		t.Fatalf("tester (%d rounds) not faster than exact (%d rounds) on a dense graph",
			tester.Rounds, exact.Rounds)
	}
}

// Property: one-sided soundness — any reject implies a triangle exists.
func TestQuickTesterSoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(15, 0.2, rng)
		nw := congest.NewNetwork(g)
		rep, err := TestTriangleFreeness(nw, TesterConfig{Trials: 12, Exec: Exec{Seed: seed}})
		if err != nil {
			return false
		}
		if rep.Detected {
			return g.CountTriangles() > 0
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTesterSparseMayMiss(t *testing.T) {
	// A single planted triangle in a large sparse graph: a few trials
	// will usually miss it — the tester's completeness genuinely needs
	// farness. (This documents the relaxation rather than asserting a
	// probabilistic miss; we only check soundness of whatever happened.)
	rng := rand.New(rand.NewSource(4))
	g, _ := graph.PlantClique(graph.GNP(100, 0.01, rng), 3, rng)
	nw := congest.NewNetwork(g)
	rep, err := TestTriangleFreeness(nw, TesterConfig{Trials: 2, Exec: Exec{Seed: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Detected && g.CountTriangles() == 0 {
		t.Fatal("unsound reject")
	}
}
