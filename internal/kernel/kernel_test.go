package kernel

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"subgraph/internal/graph"
)

// corpus is the graph set the kernel correctness properties sweep:
// structured generators, GNP at several densities, and planted cliques.
func corpus() []*graph.Graph {
	rng := rand.New(rand.NewSource(11))
	gs := []*graph.Graph{
		graph.NewBuilder(0).Build(),
		graph.NewBuilder(3).Build(),
		graph.Path(8),
		graph.Cycle(9),
		graph.Star(12),
		graph.Complete(9),
		graph.CompleteBipartite(4, 6),
		graph.BlowUpCycle(3, 3),
	}
	for _, n := range []int{12, 40, 64, 65, 90} {
		for _, p := range []float64{0.1, 0.3, 0.6} {
			gs = append(gs, graph.GNP(n, p, rng))
		}
	}
	for _, s := range []int{4, 5, 6} {
		g, _ := graph.PlantClique(graph.GNP(35, 0.1, rng), s, rng)
		gs = append(gs, g)
	}
	return gs
}

// TestKernelCountMatchesChibaNishizeki pins both kernel forms to the
// existing enumeration ground truth (graph.CountCliques) for every
// supported clique size, and detection to the VF2 oracle.
func TestKernelCountMatchesChibaNishizeki(t *testing.T) {
	k := New(3)
	defer k.Close()
	for gi, g := range corpus() {
		dense := graph.NewBitAdjacencyDense(g)
		hybrid := graph.NewBitAdjacencyHybrid(g)
		for s := 1; s <= MaxCliqueSize; s++ {
			want := g.CountCliques(s)
			for _, b := range []*graph.BitAdjacency{dense, hybrid} {
				if got := k.Count(b, s); got != want {
					t.Fatalf("graph %d (%v) %s: Count(K_%d) = %d, want %d", gi, g, b.Mode(), s, got, want)
				}
				if got := k.Detect(b, s); got != (want > 0) {
					t.Fatalf("graph %d (%v) %s: Detect(K_%d) = %v, want %v", gi, g, b.Mode(), s, got, want > 0)
				}
			}
			if s >= 2 && s <= 6 {
				if vf2 := graph.ContainsSubgraph(graph.Complete(s), g); vf2 != (want > 0) {
					t.Fatalf("graph %d (%v): VF2 says K_%d present=%v but enumeration counts %d", gi, g, s, vf2, want)
				}
			}
		}
	}
}

// TestKernelWorkerCounts pins the count to be independent of the pool
// size (chunking and reduction must not drop or double work).
func TestKernelWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.GNP(120, 0.25, rng)
	b := graph.NewBitAdjacencyDense(g)
	want := g.CountCliques(4)
	for _, workers := range []int{1, 2, 3, 7, 16} {
		k := New(workers)
		if got := k.Count(b, 4); got != want {
			t.Fatalf("workers=%d: Count(K_4) = %d, want %d", workers, got, want)
		}
		k.Close()
	}
}

// TestCliqueSize pins the serve-side eligibility gate.
func TestCliqueSize(t *testing.T) {
	for s := 2; s <= MaxCliqueSize; s++ {
		if got, ok := CliqueSize(graph.Complete(s)); !ok || got != s {
			t.Fatalf("CliqueSize(K_%d) = (%d, %v)", s, got, ok)
		}
	}
	for _, h := range []*graph.Graph{
		graph.Complete(1),
		graph.Complete(MaxCliqueSize + 1),
		graph.Cycle(4),
		graph.Path(4),
		graph.Star(3),
	} {
		if _, ok := CliqueSize(h); ok {
			t.Fatalf("CliqueSize(%v) accepted a non-clique-family pattern", h)
		}
	}
}

// TestIntersectCount pins the dense kernel's masked intersections on
// deterministic cases the fuzz target then widens.
func TestIntersectCount(t *testing.T) {
	cases := []struct {
		a, b []uint64
		off  uint
		want int64
	}{
		{nil, nil, 0, 0},
		{[]uint64{0}, []uint64{^uint64(0)}, 0, 0},
		{[]uint64{^uint64(0)}, []uint64{^uint64(0)}, 0, 63},
		{[]uint64{^uint64(0)}, []uint64{^uint64(0)}, 63, 0},
		{[]uint64{0b1011}, []uint64{0b1110}, 0, 2},
		{[]uint64{0b1011}, []uint64{0b1110}, 1, 1},
		{[]uint64{1 << 63, 1}, []uint64{1 << 63, 3}, 62, 2}, // later words count in full
		{[]uint64{1 << 63, 1}, []uint64{1 << 63, 3}, 63, 1},
	}
	for i, c := range cases {
		if got := intersectCountAbove(c.a, c.b, c.off); got != c.want {
			t.Fatalf("case %d: intersectCountAbove = %d, want %d", i, got, c.want)
		}
		checkAbove(t, c.a, c.b, c.off)
	}
}

// TestFirstPassRace: two Kernels race their first K_3 passes on one
// shared adjacency of each form. Both record its start edges, exactly one
// set is published, and it is the set a lone first pass records. Every
// count, the filtered K_4 and K_5 passes after the race included, equals
// enumeration. CI repeats it under -race.
func TestFirstPassRace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, _ := graph.PlantClique(graph.GNP(300, 0.08, rng), 5, rng)
	want := map[int]int64{3: g.CountCliques(3), 4: g.CountCliques(4), 5: g.CountCliques(5)}
	ks := []*Kernel{New(2), New(2)}
	defer ks[0].Close()
	defer ks[1].Close()
	for _, build := range []func(*graph.Graph) *graph.BitAdjacency{
		graph.NewBitAdjacencyDense, graph.NewBitAdjacencyHybrid,
	} {
		lone := build(g)
		ks[0].Count(lone, 3)
		ref, _ := lone.StartEdges()

		b := build(g)
		race := func(s int) {
			var wg sync.WaitGroup
			got := make([]int64, len(ks))
			for i, k := range ks {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = k.Count(b, s)
				}()
			}
			wg.Wait()
			for i, c := range got {
				if c != want[s] {
					t.Fatalf("%s: kernel %d counts %d copies of K_%d, enumeration %d", b.Mode(), i, c, s, want[s])
				}
			}
		}
		race(3)
		set, ok := b.StartEdges()
		if !ok || !slices.Equal(set, ref) {
			t.Fatalf("%s: after the race the published start edges are %v (published %v), want the lone pass's", b.Mode(), set, ok)
		}
		if b.SetStartEdges(make([]uint64, len(set))) {
			t.Fatalf("%s: a second start-edge set was published", b.Mode())
		}
		race(4)
		race(5)
		race(3)
		if again, _ := b.StartEdges(); &again[0] != &set[0] {
			t.Fatalf("%s: later passes replaced the published start edges", b.Mode())
		}
	}
}
