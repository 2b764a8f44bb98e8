package core

import (
	"testing"

	"subgraph/internal/congest"
	"subgraph/internal/graph"
)

// Stress tests on the extremal C4-free instances (projective-plane
// incidence graphs): the densest graphs on which the k=2 detector must
// stay sound, exercising the Turán-threshold logic near its boundary.

func TestEvenCycleSoundOnProjectivePlane(t *testing.T) {
	for _, q := range []int{3, 5, 7} {
		g := graph.ProjectivePlaneIncidence(q)
		nw := congest.NewNetwork(g)
		rep, err := DetectEvenCycle(nw, EvenCycleConfig{K: 2, PhaseIReps: 2, PhaseIIReps: 2, Exec: Exec{Seed: int64(q)}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected {
			t.Errorf("q=%d: false C4 detection on a C4-free extremal graph (n=%d m=%d M=%d)",
				q, g.N(), g.M(), rep.M)
		}
		if g.M() > rep.M {
			t.Errorf("q=%d: extremal graph exceeds the Turán bound M — soundness would be void", q)
		}
	}
}

func TestEvenCycleDetectsC6OnProjectivePlane(t *testing.T) {
	// Girth 6 ⇒ plenty of C6s; the k=3 detector must find one. With
	// random colors the per-rep probability is small, so plant a coloring
	// along one hexagon found by the centralized searcher.
	g := graph.ProjectivePlaneIncidence(3)
	hex := graph.FindSubgraph(graph.Cycle(6), g)
	if hex == nil {
		t.Fatal("no C6 in girth-6 graph?")
	}
	nw := congest.NewNetwork(g)
	rep, err := DetectEvenCycle(nw, EvenCycleConfig{
		K:        3,
		Coloring: PlantedColoring(nw, hex, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("C6 undetected on PG(2,3) incidence graph")
	}
}

func TestLinearBaselineSoundOddCyclesOnBipartite(t *testing.T) {
	// Incidence graphs are bipartite: no odd cycle of any length; the
	// baseline must accept for every odd L.
	g := graph.ProjectivePlaneIncidence(3)
	nw := congest.NewNetwork(g)
	for _, L := range []int{3, 5, 7} {
		rep, err := DetectCycleLinear(nw, LinearCycleConfig{CycleLen: L, Reps: 10, Exec: Exec{Seed: int64(L)}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Detected {
			t.Errorf("odd C%d detected in a bipartite graph", L)
		}
	}
}

func TestCollectFindsC6OnFanoPlane(t *testing.T) {
	g := graph.ProjectivePlaneIncidence(2)
	nw := congest.NewNetwork(g)
	rep, err := DetectCollect(nw, CollectConfig{H: graph.Cycle(6)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("edge collection missed C6 in the Fano incidence graph")
	}
}
