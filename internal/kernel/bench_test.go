package kernel

import (
	"math/rand"
	"testing"

	"subgraph"
	"subgraph/internal/graph"
)

// Kernel-vs-simulation benchmarks.
//
// Both sides answer the same question on the same seeded instances —
// "does G contain K_s (and how many copies)?" — the simulation through
// subgraph.Detect's CONGEST engines (the serve detect path), the kernel
// through a full BitAdjacency build plus counting pass (the serve count
// path pays both on every cache miss, so the build is inside the
// measured op). EXPERIMENTS.md E11 reproduces this sweep.

// benchInstance builds the shared seeded workload graph: GNP with a
// planted K_4 so detection has a witness to find.
func benchInstance(n int, p float64) *graph.Graph {
	rng := rand.New(rand.NewSource(42))
	g, _ := graph.PlantClique(graph.GNP(n, p, rng), 4, rng)
	return g
}

func benchKernel(b *testing.B, g *graph.Graph, s int) {
	b.Helper()
	k := New(0)
	defer k.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		bits := graph.NewBitAdjacency(g)
		sink += k.Count(bits, s)
	}
	_ = sink
}

func benchSim(b *testing.B, g *graph.Graph, pattern string) {
	b.Helper()
	nw := subgraph.NewNetwork(g)
	h, err := subgraph.ParsePattern(pattern)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := subgraph.Detect(nw, h, subgraph.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelTriangleN300(b *testing.B) { benchKernel(b, benchInstance(300, 0.05), 3) }
func BenchmarkSimTriangleN300(b *testing.B)    { benchSim(b, benchInstance(300, 0.05), "triangle") }

func BenchmarkKernelTriangleN600(b *testing.B) { benchKernel(b, benchInstance(600, 0.03), 3) }
func BenchmarkSimTriangleN600(b *testing.B)    { benchSim(b, benchInstance(600, 0.03), "triangle") }

func BenchmarkKernelClique4N300(b *testing.B) { benchKernel(b, benchInstance(300, 0.05), 4) }
func BenchmarkSimClique4N300(b *testing.B)    { benchSim(b, benchInstance(300, 0.05), "clique:4") }

func BenchmarkKernelClique5N200(b *testing.B) { benchKernel(b, benchInstance(200, 0.1), 5) }
func BenchmarkSimClique5N200(b *testing.B)    { benchSim(b, benchInstance(200, 0.1), "clique:5") }

// BenchmarkKernelHybridTriangleN600 pins the hybrid form's cost on the
// same instance the dense benchmark runs (mode is forced; the auto
// picker would choose dense at this size).
func BenchmarkKernelHybridTriangleN600(b *testing.B) {
	g := benchInstance(600, 0.03)
	k := New(0)
	defer k.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		bits := graph.NewBitAdjacencyHybrid(g)
		sink += k.Count(bits, 3)
	}
	_ = sink
}

// BenchmarkFreshK345 counts K3, K4 and K5 on one fresh adjacency of the
// count-fresh shape (GNP(2000, 40/1999) with a planted K5) per op, as a
// count-fresh upload's three count jobs do: the K3 pass sweeps every
// forward edge and records the start edges, and the K4 and K5 passes
// visit those alone. Each op's adjacency is built with the timer stopped.
func BenchmarkFreshK345(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, _ := graph.PlantClique(graph.GNP(2000, 40.0/1999, rng), 5, rng)
	k := New(0)
	defer k.Close()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bits := graph.NewBitAdjacency(g)
		b.StartTimer()
		for s := 3; s <= 5; s++ {
			sink += k.Count(bits, s)
		}
	}
	_ = sink
}

// churnDelta draws a delta of changes/2 deletes and changes/2 inserts
// against g.
func churnDelta(rng *rand.Rand, g *graph.Graph, changes int) graph.EdgeDelta {
	var d graph.EdgeDelta
	edges := g.Edges()
	for _, i := range rng.Perm(len(edges))[:changes/2] {
		d.Delete = append(d.Delete, edges[i])
	}
	inserted := make(map[[2]int]bool)
	for len(d.Insert) < changes/2 {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		e := [2]int{min(u, v), max(u, v)}
		if u != v && !g.HasEdge(u, v) && !inserted[e] {
			inserted[e] = true
			d.Insert = append(d.Insert, e)
		}
	}
	return d
}

// BenchmarkCountDeltaK4 is one K4 CountDelta on the churn shape: a
// GNP(2000, 40/1999) parent and a child four deletes and four inserts
// away. It reads the two graphs' rows alone, so its cost follows the
// delta's footprint, not n.
func BenchmarkCountDeltaK4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	parent := graph.GNP(2000, 40.0/1999, rng)
	res, err := graph.ApplyDelta(parent, churnDelta(rng, parent, 8))
	if err != nil {
		b.Fatal(err)
	}
	k := New(0)
	defer k.Close()
	pc := k.Count(graph.NewBitAdjacency(parent), 4)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += k.CountDelta(parent, nil, res.Graph, nil, 4, res.Touched, pc)
	}
	_ = sink
}

// BenchmarkCountDeltaThreshold sets a K4 CountDelta at the default churn
// threshold (5% of the churn shape's edges, 2,000 changes) against what
// the server would otherwise run for the child: a scratch adjacency build
// and a full count. The delta sub-benchmark must not be the slower.
func BenchmarkCountDeltaThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	parent := graph.GNP(2000, 40.0/1999, rng)
	res, err := graph.ApplyDelta(parent, churnDelta(rng, parent, parent.M()/20))
	if err != nil {
		b.Fatal(err)
	}
	k := New(0)
	defer k.Close()
	pc := k.Count(graph.NewBitAdjacency(parent), 4)
	b.Run("delta", func(b *testing.B) {
		b.ReportAllocs()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += k.CountDelta(parent, nil, res.Graph, nil, 4, res.Touched, pc)
		}
		_ = sink
	})
	b.Run("scratch", func(b *testing.B) {
		b.ReportAllocs()
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += k.Count(graph.NewBitAdjacency(res.Graph), 4)
		}
		_ = sink
	})
}
