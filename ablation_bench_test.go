package subgraph

// Ablation benchmarks for the design choices called out in DESIGN.md §4:
// the Phase II peeling constant, the congested-clique routing scheme
// (partition vs naive all-to-all), and the VF2 twin symmetry breaking.

import (
	"fmt"
	"math/rand"
	"testing"

	"subgraph/internal/cclique"
	"subgraph/internal/congest"
	"subgraph/internal/core"
	"subgraph/internal/graph"
)

// BenchmarkAblationPeelFactor sweeps the a in d = ⌈a·M/n⌉: smaller a
// shrinks the dominant Phase II budget linearly but weakens the peeling
// guarantee (a = 4 is the provable choice; see DESIGN.md §4.1).
func BenchmarkAblationPeelFactor(b *testing.B) {
	n := 800
	rng := rand.New(rand.NewSource(1))
	g, cyc := graph.PlantCycle(graph.GNP(n, 1.0/float64(n), rng), 4, rng)
	nw := congest.NewNetwork(g)
	coloring := core.PlantedColoring(nw, cyc, 1)
	for _, a := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("a=%d", a), func(b *testing.B) {
			var rep *core.EvenCycleReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = core.DetectEvenCycle(nw, core.EvenCycleConfig{
					K: 2, Coloring: coloring, PeelFactor: a,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Detected {
					b.Fatal("planted cycle missed")
				}
			}
			b.ReportMetric(float64(rep.Rounds), "rounds")
			b.ReportMetric(float64(rep.D), "d")
		})
	}
}

// BenchmarkAblationListing compares the partition-based K_3 listing
// (Θ(n^{1-2/s}) rounds, the paper-matching scheme) against the naive
// all-to-all baseline (Θ(n/log n) rounds, tiny constants).
func BenchmarkAblationListing(b *testing.B) {
	for _, n := range []int{32, 64} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.GNP(n, 0.5, rng)
		b.Run(fmt.Sprintf("partition/n=%d", n), func(b *testing.B) {
			var res *cclique.ListResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cclique.ListCliques(g, 3, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(res.Stats.TotalBits), "bits")
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			var res *cclique.ListResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cclique.ListCliquesNaive(g, 3, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(res.Stats.TotalBits), "bits")
		})
	}
}

// BenchmarkAblationSummaryPrimitive measures the O(n) leader-election +
// BFS + convergecast primitive that justifies collect.go's scheduling
// convention.
func BenchmarkAblationSummaryPrimitive(b *testing.B) {
	for _, n := range []int{50, 200} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.GNP(n, 4.0/float64(n), rng)
			if !g.Connected() {
				b.Skip("disconnected sample")
			}
			nw := congest.NewNetwork(g)
			var rep *core.SummaryReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = core.ComputeNetworkSummary(nw, core.SummaryConfig{Exec: core.Exec{Seed: int64(i)}})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Consistent {
					b.Fatal("inconsistent summary")
				}
			}
			b.ReportMetric(float64(rep.Rounds), "rounds")
		})
	}
}
