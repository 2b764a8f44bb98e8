package kernel

import (
	"math/rand"
	"testing"

	"subgraph/internal/graph"
)

// TestCountIncidentMatchesExclusion pins incident(g, T) against the
// identity incident = count(g) - count(g \ T) on random graphs, touched
// sets, clique sizes, and both adjacency forms.
func TestCountIncidentMatchesExclusion(t *testing.T) {
	k := New(2)
	defer k.Close()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(30)
		g := graph.GNP(n, 0.25, rng)
		// Random touched set.
		var touched []int32
		inT := make(map[int32]bool)
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.2 {
				touched = append(touched, int32(v))
				inT[int32(v)] = true
			}
		}
		// Duplicates and out-of-range entries must be tolerated.
		touched = append(touched, touched...)
		touched = append(touched, -1, int32(n), int32(n+7))
		without, _ := g.InducedSubgraph(func(v int) bool { return !inT[int32(v)] })
		for s := 3; s <= 6; s++ {
			want := k.Count(graph.NewBitAdjacency(g), s) - k.Count(graph.NewBitAdjacency(without), s)
			for _, build := range []func(*graph.Graph) *graph.BitAdjacency{
				graph.NewBitAdjacencyDense, graph.NewBitAdjacencyHybrid,
			} {
				b := build(g)
				if got := k.CountIncident(g, b, s, touched); got != want {
					t.Fatalf("trial %d s=%d mode=%s: CountIncident = %d, want %d",
						trial, s, b.Mode(), got, want)
				}
			}
		}
	}
}

// TestCountDeltaMatchesScratch applies random deltas and checks the
// incremental count equals a from-scratch count of the child.
func TestCountDeltaMatchesScratch(t *testing.T) {
	k := New(2)
	defer k.Close()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 12 + rng.Intn(28)
		parent := graph.GNP(n, 0.25, rng)
		parent, _ = graph.PlantClique(parent, 5, rng)
		var d graph.EdgeDelta
		for _, e := range parent.Edges() {
			if rng.Float64() < 0.08 {
				d.Delete = append(d.Delete, e)
			}
		}
		for i := 0; i < 4; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || parent.HasEdge(u, v) {
				continue
			}
			dup := false
			for _, e := range d.Insert {
				if e == [2]int{u, v} || e == [2]int{v, u} {
					dup = true
				}
			}
			if !dup {
				d.Insert = append(d.Insert, [2]int{u, v})
			}
		}
		res, err := graph.ApplyDelta(parent, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		child := res.Graph
		pb := graph.NewBitAdjacency(parent)
		cb := graph.NewBitAdjacency(child)
		for s := 2; s <= 6; s++ {
			parentCount := k.Count(pb, s)
			want := k.Count(cb, s)
			got := k.CountDelta(parent, pb, child, cb, s, res.Touched, parentCount)
			if got != want {
				t.Fatalf("trial %d s=%d: CountDelta = %d, want %d (touched %d/%d)",
					trial, s, got, want, len(res.Touched), n)
			}
		}
	}
}

// TestCountIncidentEdgeCases covers the trivial sizes and empty sets.
func TestCountIncidentEdgeCases(t *testing.T) {
	k := New(1)
	defer k.Close()
	g := graph.Complete(5)
	b := graph.NewBitAdjacency(g)
	if got := k.CountIncident(g, b, 3, nil); got != 0 {
		t.Fatalf("empty touched: got %d, want 0", got)
	}
	if got := k.CountIncident(g, b, 1, []int32{0, 0, 2}); got != 2 {
		t.Fatalf("s=1: got %d, want 2", got)
	}
	// Touching every vertex counts everything.
	all := []int32{0, 1, 2, 3, 4}
	if got, want := k.CountIncident(g, b, 3, all), k.Count(b, 3); got != want {
		t.Fatalf("full touch: got %d, want %d", got, want)
	}
	// s=2: edges with at least one touched endpoint.
	if got := k.CountIncident(g, b, 2, []int32{0}); got != 4 {
		t.Fatalf("s=2 single vertex on K5: got %d, want 4", got)
	}
}

// TestCountSuccessorHybrid plants a K_6 through a delta on a graph past
// the dense budget (n = 11586), so the child's Successor takes the hybrid
// form. Its counts, and CountDelta into it, must equal a scratch build's.
func TestCountSuccessorHybrid(t *testing.T) {
	k := New(2)
	defer k.Close()
	rng := rand.New(rand.NewSource(9))
	g := graph.GNM(11586, 40000, rng)
	var d graph.EdgeDelta
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			u, v := 1000*i, 1000*j
			if !g.HasEdge(u, v) {
				d.Insert = append(d.Insert, [2]int{u, v})
			}
		}
	}
	res, err := graph.ApplyDelta(g, d)
	if err != nil {
		t.Fatal(err)
	}
	pb := graph.NewBitAdjacency(g)
	sb := pb.Successor(res.Graph, res.Touched)
	scratch := graph.NewBitAdjacency(res.Graph)
	if sb.Mode() != graph.BitHybrid || scratch.Mode() != graph.BitHybrid {
		t.Fatalf("modes %s (successor), %s (scratch), want hybrid", sb.Mode(), scratch.Mode())
	}
	for s := 3; s <= 6; s++ {
		want := k.Count(scratch, s)
		if got := k.CountDelta(g, pb, res.Graph, sb, s, res.Touched, k.Count(pb, s)); got != want {
			t.Fatalf("K_%d: CountDelta into the successor = %d, scratch Count = %d", s, got, want)
		}
		if got := k.Count(sb, s); got != want {
			t.Fatalf("K_%d: Count(successor) = %d, scratch Count = %d", s, got, want)
		}
	}
}
