package cclique

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"subgraph/internal/graph"
)

func TestNaiveListingMatchesGroundTruth(t *testing.T) {
	for _, tc := range []struct {
		g *graph.Graph
		s int
	}{
		{graph.Complete(10), 3},
		{graph.Complete(10), 4},
		{graph.CompleteBipartite(5, 5), 3},
		{graph.Cycle(8), 3},
	} {
		res, err := ListCliquesNaive(tc.g, tc.s, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := normalize(groundTruthCliques(tc.g, tc.s))
		if !reflect.DeepEqual(res.Cliques, want) {
			t.Fatalf("s=%d: got %d cliques want %d", tc.s, len(res.Cliques), len(want))
		}
	}
}

// Property: the naive and partition-based listings agree exactly.
func TestQuickNaiveVsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.GNP(18, 0.4, rng)
		a, err := ListCliquesNaive(g, 3, 0)
		if err != nil {
			return false
		}
		b, err := ListCliques(g, 3, 0)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(a.Cliques, b.Cliques)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveRoundsShape(t *testing.T) {
	// ⌈n/B⌉ + 1 rounds.
	g := graph.Complete(32)
	res, err := ListCliquesNaive(g, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds != 32/8+1 {
		t.Fatalf("rounds %d, want %d", res.Stats.Rounds, 32/8+1)
	}
	if res.Stats.MaxEdgeBitsRound > 8 {
		t.Fatalf("bandwidth exceeded: %d", res.Stats.MaxEdgeBitsRound)
	}
}

func TestNaiveTiny(t *testing.T) {
	res, err := ListCliquesNaive(graph.Path(2), 3, 0)
	if err != nil || len(res.Cliques) != 0 {
		t.Fatalf("n<s: %v %v", res, err)
	}
	if _, err := ListCliquesNaive(graph.Complete(4), 1, 0); err == nil {
		t.Fatal("s=1 accepted")
	}
}
