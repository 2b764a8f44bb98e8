package subgraph

// The benchmark harness: one benchmark family per experiment of
// EXPERIMENTS.md (E1..E7; DESIGN.md §3 maps each to its theorem/figure).
// Each benchmark runs the experiment at a fixed size and reports the
// paper-relevant quantity (rounds, bits, error rates) via b.ReportMetric,
// so `go test -bench=. -benchmem` regenerates every series.

import (
	"fmt"
	"math/rand"
	"testing"

	"subgraph/internal/cclique"
	"subgraph/internal/comm"
	"subgraph/internal/congest"
	"subgraph/internal/core"
	"subgraph/internal/experiments"
	"subgraph/internal/graph"
	"subgraph/internal/lower"
	"subgraph/internal/obs"
)

// --- E1: Theorem 1.1, sublinear even-cycle detection ---

func benchmarkE1(b *testing.B, k, n int, sublinear bool) {
	rng := rand.New(rand.NewSource(int64(n)))
	base := graph.GNP(n, 1.0/float64(n), rng)
	g, cyc := graph.PlantCycle(base, 2*k, rng)
	nw := congest.NewNetwork(g)
	coloring := core.PlantedColoring(nw, cyc, 1)
	b.ResetTimer()
	var rounds, bits int64
	for i := 0; i < b.N; i++ {
		if sublinear {
			rep, err := core.DetectEvenCycle(nw, core.EvenCycleConfig{K: k, Coloring: coloring, Exec: core.Exec{Seed: int64(i)}})
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Detected {
				b.Fatal("planted cycle missed")
			}
			rounds, bits = int64(rep.Rounds), rep.Stats.TotalBits
		} else {
			rep, err := core.DetectCycleLinear(nw, core.LinearCycleConfig{CycleLen: 2 * k, Coloring: coloring, Exec: core.Exec{Seed: int64(i)}})
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Detected {
				b.Fatal("planted cycle missed")
			}
			rounds, bits = int64(rep.Rounds), rep.Stats.TotalBits
		}
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(bits), "bits")
}

func BenchmarkE1EvenCycleSublinearK2(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkE1(b, 2, n, true) })
	}
}

func BenchmarkE1EvenCycleSublinearK3(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkE1(b, 3, n, true) })
	}
}

func BenchmarkE1EvenCycleLinearBaseline(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchmarkE1(b, 2, n, false) })
	}
}

// --- E2: Theorem 1.2, the G_{k,n} reduction ---

func BenchmarkE2LowerBoundFamily(b *testing.B) {
	for _, n := range []int{4, 8} {
		b.Run(fmt.Sprintf("k=2/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			inst := comm.RandomDisjointness(n, 1.5/float64(n), true, rng)
			b.ResetTimer()
			var rep *lower.ReductionReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = lower.RunReduction(2, inst, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Detected {
					b.Fatal("intersecting instance undetected")
				}
			}
			b.ReportMetric(float64(rep.Cut), "cut-edges")
			b.ReportMetric(float64(rep.BitsExchanged), "AB-bits")
			b.ReportMetric(float64(rep.Rounds), "rounds")
		})
	}
}

// --- E3: Section 3.4, bipartite variant ---

func BenchmarkE3BipartiteFamily(b *testing.B) {
	for _, n := range []int{3, 5} {
		b.Run(fmt.Sprintf("k=2/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			inst := comm.RandomDisjointness(n, 1.5/float64(n), true, rng)
			h := lower.BuildBipartiteHk(2, n)
			g := lower.BuildBipartiteGkn(2, inst)
			b.ResetTimer()
			var sim *comm.SimResult
			for i := 0; i < b.N; i++ {
				var err error
				sim, err = lower.RunBipartiteReduction(h, g, int64(i))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sim.Cut), "cut-edges")
			b.ReportMetric(float64(sim.BitsExchanged), "AB-bits")
		})
	}
}

// --- E4: Theorem 4.1, the fooling adversary ---

func BenchmarkE4Fooling(b *testing.B) {
	for _, c := range []int{1, 2} {
		b.Run(fmt.Sprintf("n=8/c=%d", c), func(b *testing.B) {
			var rep *lower.FoolingReport
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = lower.RunFoolingAdversary(lower.LowBitsTriangleAlgorithm(c), 8)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Fooled {
					b.Fatal("adversary failed in the low-C regime")
				}
			}
			b.ReportMetric(float64(rep.LargestClass), "largest-class")
			b.ReportMetric(float64(rep.MaxNodeBits), "C-bits")
		})
	}
}

// --- E5: Theorem 5.1, one-round bandwidth ---

func BenchmarkE5OneRound(b *testing.B) {
	n := 64
	for _, k := range []int{1, n / 2, n + 2} {
		b.Run(fmt.Sprintf("n=%d/K=%d", n, k), func(b *testing.B) {
			p := &lower.SamplingProtocol{K: k, IDBits: 18}
			var res *lower.OneRoundResult
			for i := 0; i < b.N; i++ {
				res = lower.EvaluateOneRound(p, n, 4000, int64(i))
			}
			b.ReportMetric(res.ErrorRate, "error")
			b.ReportMetric(res.MissRate, "miss")
			b.ReportMetric(float64(res.MessageBits), "B-bits")
		})
	}
}

// --- E6: Lemma 1.3 counting and congested-clique listing ---

func BenchmarkE6CliqueCounting(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g := graph.GNP(60, 0.3, rng)
	for _, s := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("s=%d", s), func(b *testing.B) {
			var count int64
			for i := 0; i < b.N; i++ {
				count = g.CountCliques(s)
			}
			b.ReportMetric(float64(count), "copies")
			b.ReportMetric(float64(count)/graph.KsUpperBound(int64(g.M()), s), "ratio-vs-bound")
		})
	}
}

func BenchmarkE6CliqueListing(b *testing.B) {
	for _, n := range []int{16, 32} {
		b.Run(fmt.Sprintf("s=3/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			g := graph.GNP(n, 0.5, rng)
			var res *cclique.ListResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cclique.ListCliques(g, 3, 0)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Rounds), "rounds")
			b.ReportMetric(float64(len(res.Cliques)), "cliques")
		})
	}
}

// --- E7: LOCAL vs CONGEST separation ---

func BenchmarkE7Separation(b *testing.B) {
	n := 4
	rng := rand.New(rand.NewSource(7))
	inst := comm.RandomDisjointness(n, 1.5/float64(n), true, rng)
	g := lower.BuildGkn(2, inst)
	hk := lower.BuildHk(2)
	nw := congest.NewNetwork(g.G)
	b.Run("local", func(b *testing.B) {
		var rep *core.LocalReport
		for i := 0; i < b.N; i++ {
			var err error
			rep, err = core.DetectLocal(nw, core.LocalConfig{H: hk.G})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rep.Rounds), "rounds")
		b.ReportMetric(float64(rep.MaxMessageBits), "max-msg-bits")
	})
	b.Run("congest", func(b *testing.B) {
		var rep *core.CollectReport
		for i := 0; i < b.N; i++ {
			var err error
			rep, err = core.DetectCollect(nw, core.CollectConfig{H: hk.G})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(rep.Rounds), "rounds")
		b.ReportMetric(float64(rep.Bandwidth), "B-bits")
	})
}

// --- E8: fault injection — detection under message loss ---

func BenchmarkE8DropSweep(b *testing.B) {
	drops := []float64{0, 0.3}
	b.Run("evencycle", func(b *testing.B) {
		var rows []experiments.E8Row
		for i := 0; i < b.N; i++ {
			rows = experiments.E8EvenCycleDropSweep(2, 60, drops, 4, int64(i))
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.PlainRate, "plain-rate")
		b.ReportMetric(last.ResilientRate, "resil-rate")
		b.ReportMetric(last.ResilientRounds/last.PlainRounds, "round-overhead")
	})
	b.Run("triangle", func(b *testing.B) {
		var rows []experiments.E8Row
		for i := 0; i < b.N; i++ {
			rows = experiments.E8TriangleDropSweep(24, 1.0/24, drops, 4, int64(i))
		}
		last := rows[len(rows)-1]
		b.ReportMetric(last.PlainRate, "plain-rate")
		b.ReportMetric(last.ResilientRate, "resil-rate")
		b.ReportMetric(last.ResilientBits/last.PlainBits, "bit-overhead")
	})
}

// --- simulator micro-benchmarks (engine throughput) ---

func BenchmarkSimulatorSequential(b *testing.B) {
	benchmarkEngine(b, false)
}

func BenchmarkSimulatorParallel(b *testing.B) {
	benchmarkEngine(b, true)
}

func benchmarkEngine(b *testing.B, parallel bool) {
	rng := rand.New(rand.NewSource(1))
	g := graph.GNP(300, 0.05, rng)
	nw := congest.NewNetwork(g)
	coloring := func(id congest.NodeID, rep int) int { return int(id) % 8 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.DetectCycleLinear(nw, core.LinearCycleConfig{
			CycleLen: 8, Coloring: coloring, Exec: core.Exec{Parallel: parallel},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Detect per detect-mix pattern, without the HTTP layers ---

// detectMixGraphs are the inputs of bench/'s detect-mix workload for a
// seed (its plantedGraphs): four GNP(150, 1.2/150) backgrounds with a
// planted triangle, C4, K4 and triangle, drawn from one source.
func detectMixGraphs(seed int64) []*graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var gs []*graph.Graph
	for i := 0; i < 4; i++ {
		g := graph.GNP(150, 1.2/150, rng)
		switch i % 3 {
		case 0:
			g, _ = graph.PlantClique(g, 3, rng)
		case 1:
			g, _ = graph.PlantCycle(g, 4, rng)
		case 2:
			g, _ = graph.PlantClique(g, 4, rng)
		}
		gs = append(gs, g)
	}
	return gs
}

// BenchmarkDetectMixPatterns times Detect for each detect-mix pattern on
// the workload's four seed-1 graphs: one op is one detect on each graph,
// and rounds/detect is the mean over the four. Each served/<pattern>
// sub-benchmark runs the detects as subgraphd runs an untraced job: on
// Networks kept across jobs, as the graph store keeps them, with one
// SpanTracer under a live timeline root as the only tracer. They time
// the served engine path without HTTP.
func BenchmarkDetectMixPatterns(b *testing.B) {
	var nws []*Network
	for _, g := range detectMixGraphs(1) {
		nws = append(nws, NewNetwork(g))
	}
	for _, p := range []string{"triangle", "cycle:4", "clique:4", "path:4", "star:3"} {
		h, err := ParsePattern(p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(p, func(b *testing.B) {
			rounds := 0
			for i := 0; i < b.N; i++ {
				for _, nw := range nws {
					rep, err := Detect(nw, h, Options{Seed: int64(i)})
					if err != nil {
						b.Fatal(err)
					}
					rounds += rep.Rounds
				}
			}
			b.ReportMetric(float64(rounds)/float64(len(nws)*b.N), "rounds/detect")
		})
		b.Run("served/"+p, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, nw := range nws {
					root := obs.NewTimeline("bench").StartSpan("job")
					if _, err := Detect(nw, h, Options{Seed: int64(i), Trace: obs.NewSpanTracer(root)}); err != nil {
						b.Fatal(err)
					}
					root.Finish()
				}
			}
		})
	}
}

// Keep the experiments import live for the exponent-fit sanity bench.
func BenchmarkE1ExponentFit(b *testing.B) {
	rows := experiments.E1EvenCycleScaling(2, []int{100, 200, 400}, 1)
	b.ResetTimer()
	var sub float64
	for i := 0; i < b.N; i++ {
		sub, _, _ = experiments.E1Exponents(rows)
	}
	b.ReportMetric(sub, "fitted-exponent")
}
